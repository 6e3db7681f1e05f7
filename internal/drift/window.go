// Package drift implements the online half of the advisor: the windowed,
// exponentially decay-weighted workload the tuning daemon accumulates from
// streamed query observations, the drift detector that decides when the
// deployed index configuration has gone stale, and the guardrailed delta
// planner that turns a window snapshot into a creates/drops plan against the
// deployed selection.
//
// The package is deliberately clock-free: every entry point takes explicit
// timestamps (the observation's own, or the caller's injected clock), so the
// daemon's decision paths are deterministic under a seeded fake clock and the
// paper's drift scenario replays bit-identically from a recorded stream.
package drift

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/workload"
)

// Observation is one aggregated query-template observation from a serving
// database: "this conjunctive template ran Count times around At". It is the
// wire format of the daemon's POST /observe endpoint (JSON array or JSONL).
type Observation struct {
	// Table names the accessed table (matching the schema workload).
	Table string `json:"table"`
	// Attrs names the accessed attributes, either qualified ("ORD.W_ID") or
	// by their unique plain names — exactly the names of the schema JSON.
	Attrs []string `json:"attrs"`
	// Kind is "select" (default, empty), "insert" or "update".
	Kind string `json:"kind,omitempty"`
	// Count is the number of executions observed (>= 1).
	Count int64 `json:"count"`
	// At is the observation time; zero means "now" (the ingester's clock).
	At time.Time `json:"at,omitempty"`
}

// ErrMalformed tags observations the window cannot resolve against its
// schema: unknown table or attribute, empty or cross-table attribute sets,
// bad kind, non-positive count. Malformed observations are counted and
// dropped by the daemon — never fatal.
var ErrMalformed = errors.New("drift: malformed observation")

// Window is a bounded, exponentially decay-weighted accumulator of query
// observations over a fixed schema. Each distinct template signature holds
// one decayed weight; Snapshot renders the window as a *workload.Workload
// whose frequencies are the rounded decayed weights, ready for the selection
// strategies.
//
// Memory is bounded by Cap distinct templates: inserting a new signature
// into a full window evicts the lowest-weight template (ties broken by
// signature order) and counts the eviction. Decay uses the exponent trick —
// weights are stored at a moving reference time and rescaled only when the
// exponent would overflow — so Observe is O(1) amortized.
//
// Window is not safe for concurrent use; the daemon serializes access
// through its ingestion loop.
type Window struct {
	schema   *workload.Workload
	byAttr   map[string]int // attribute name -> global ID
	byTable  map[string]int // table name -> ID
	halfLife float64        // seconds; +Inf disables decay
	cap      int

	ref       time.Time // reference time weights are scaled to
	templates map[string]*wtemplate
	// order lists the retained signatures in first-seen order, so sums over
	// the window do not follow Go's map order (float addition is not
	// associative).
	order     []string
	evictions int64
	dropped   int64 // observations older than the reference horizon
}

type wtemplate struct {
	table  int
	attrs  []int // sorted global IDs
	kind   workload.QueryKind
	weight float64 // decayed weight, expressed at Window.ref
}

// WindowConfig sizes a Window.
type WindowConfig struct {
	// HalfLife is the exponential-decay half-life of observation weight;
	// <= 0 disables decay (pure accumulation).
	HalfLife time.Duration
	// Cap bounds the distinct templates retained; <= 0 means 4096.
	Cap int
}

// NewWindow builds a window over the given schema workload. Only the
// schema's tables and attributes are used; its query templates seed nothing.
func NewWindow(schema *workload.Workload, cfg WindowConfig) *Window {
	w := &Window{
		schema:    schema,
		byAttr:    make(map[string]int, schema.NumAttrs()),
		byTable:   make(map[string]int, len(schema.Tables)),
		halfLife:  cfg.HalfLife.Seconds(),
		cap:       cfg.Cap,
		templates: make(map[string]*wtemplate),
	}
	if w.halfLife <= 0 {
		w.halfLife = math.Inf(1)
	}
	if w.cap <= 0 {
		w.cap = 4096
	}
	for _, a := range schema.Attrs() {
		w.byAttr[a.Name] = a.ID
	}
	for _, t := range schema.Tables {
		w.byTable[t.Name] = t.ID
	}
	return w
}

// Resolve maps an observation onto the schema, returning the canonical
// template signature and the resolved attribute IDs. A nil error means the
// observation is well-formed; otherwise the error wraps ErrMalformed with
// the reason.
func (w *Window) Resolve(obs Observation) (sig string, attrs []int, kind workload.QueryKind, err error) {
	if obs.Count < 1 {
		return "", nil, 0, fmt.Errorf("%w: count %d < 1", ErrMalformed, obs.Count)
	}
	switch obs.Kind {
	case "", "select":
		kind = workload.Select
	case "insert":
		kind = workload.Insert
	case "update":
		kind = workload.Update
	default:
		return "", nil, 0, fmt.Errorf("%w: unknown kind %q", ErrMalformed, obs.Kind)
	}
	if len(obs.Attrs) == 0 {
		return "", nil, 0, fmt.Errorf("%w: no attributes", ErrMalformed)
	}
	table, haveTable := w.byTable[obs.Table]
	attrs = make([]int, 0, len(obs.Attrs))
	seen := make(map[int]bool, len(obs.Attrs))
	for _, name := range obs.Attrs {
		id, ok := w.byAttr[name]
		if !ok {
			return "", nil, 0, fmt.Errorf("%w: unknown attribute %q", ErrMalformed, name)
		}
		if seen[id] {
			return "", nil, 0, fmt.Errorf("%w: attribute %q repeated", ErrMalformed, name)
		}
		seen[id] = true
		at := w.schema.TableOf(id)
		if haveTable && at != table {
			return "", nil, 0, fmt.Errorf("%w: attribute %q belongs to table %d, not %q", ErrMalformed, name, at, obs.Table)
		}
		if !haveTable && len(attrs) > 0 && at != w.schema.TableOf(attrs[0]) {
			return "", nil, 0, fmt.Errorf("%w: attributes span tables", ErrMalformed)
		}
		attrs = append(attrs, id)
	}
	if obs.Table != "" && !haveTable {
		return "", nil, 0, fmt.Errorf("%w: unknown table %q", ErrMalformed, obs.Table)
	}
	sort.Ints(attrs)
	sig = compress.TemplateSignature(workload.Query{Table: w.schema.TableOf(attrs[0]), Kind: kind, Attrs: attrs})
	return sig, attrs, kind, nil
}

// Observe folds one observation into the window at time at (obs.At is
// ignored here; the caller — who owns the clock — picks the effective time).
// Malformed observations return an ErrMalformed-wrapped error and change
// nothing.
func (w *Window) Observe(obs Observation, at time.Time) error {
	sig, attrs, kind, err := w.Resolve(obs)
	if err != nil {
		return err
	}
	scale := w.advance(at)
	t := w.templates[sig]
	if t == nil {
		t = &wtemplate{table: w.schema.TableOf(attrs[0]), attrs: attrs, kind: kind}
		w.templates[sig] = t
		w.order = append(w.order, sig)
	}
	t.weight += float64(obs.Count) * scale
	// Evict after crediting the weight, so a heavy newcomer displaces a
	// light incumbent instead of being evicted at weight zero itself.
	w.evict()
	return nil
}

// advance moves the reference time forward to at (never backward: a stale
// timestamp contributes at the reference horizon) and returns the scale a
// new observation at `at` carries relative to the reference.
//
// Weights are stored at w.ref; an observation at time at > ref is worth
// 2^((at-ref)/halfLife) reference-units. When that exponent grows past 64
// half-lives the stored weights are rescaled and ref moves up, keeping every
// float in range — the classic decayed-counter normalization.
func (w *Window) advance(at time.Time) float64 {
	if w.ref.IsZero() {
		w.ref = at
		return 1
	}
	if !at.After(w.ref) {
		if at.Before(w.ref) {
			w.dropped++ // counted for observability; still folded at the horizon
		}
		return 1
	}
	if math.IsInf(w.halfLife, 1) {
		w.ref = at
		return 1
	}
	exp := at.Sub(w.ref).Seconds() / w.halfLife
	if exp > 64 {
		// Renormalize: express every stored weight at the new reference.
		down := math.Exp2(-exp)
		for _, t := range w.templates {
			t.weight *= down
		}
		w.ref = at
		return 1
	}
	return math.Exp2(exp)
}

// evict drops lowest-weight templates until the window fits its cap,
// breaking weight ties by signature order for determinism.
func (w *Window) evict() {
	for len(w.templates) > w.cap {
		at, low := -1, 0.0
		for i, sig := range w.order {
			if wt := w.templates[sig].weight; at < 0 || wt < low || (wt == low && sig < w.order[at]) {
				at, low = i, wt
			}
		}
		delete(w.templates, w.order[at])
		w.order = slices.Delete(w.order, at, at+1)
		w.evictions++
	}
}

// decayAt returns the factor mapping stored (reference-time) weights to
// their value at time at.
func (w *Window) decayAt(at time.Time) float64 {
	if w.ref.IsZero() || math.IsInf(w.halfLife, 1) || !at.After(w.ref) {
		return 1
	}
	return math.Exp2(-at.Sub(w.ref).Seconds() / w.halfLife)
}

// Len returns the number of distinct templates currently retained.
func (w *Window) Len() int { return len(w.templates) }

// Evictions returns how many templates the cap has evicted so far.
func (w *Window) Evictions() int64 { return w.evictions }

// Stale returns how many observations arrived with timestamps at or before
// the reference horizon (folded in without decay credit).
func (w *Window) Stale() int64 { return w.dropped }

// TotalWeight returns the decayed total observation weight at time at,
// summed in first-seen order so the same stream gives the same bits.
func (w *Window) TotalWeight(at time.Time) float64 {
	d := w.decayAt(at)
	var sum float64
	for _, sig := range w.order {
		sum += w.templates[sig].weight * d
	}
	return sum
}

// Snapshot renders the window as a workload over the schema's tables and
// attributes: one query template per retained signature (in signature order,
// so snapshots are deterministic), with frequency = round(decayed weight at
// `at`). Templates whose weight rounds to zero are omitted from the snapshot
// but stay in the window. A window with no template of positive rounded
// weight returns nil — there is nothing to tune yet.
func (w *Window) Snapshot(at time.Time) *workload.Workload {
	if len(w.templates) == 0 {
		return nil
	}
	sigs := make([]string, 0, len(w.templates))
	for sig := range w.templates {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	d := w.decayAt(at)
	var queries []workload.Query
	for _, sig := range sigs {
		t := w.templates[sig]
		freq := int64(math.Round(t.weight * d))
		if freq < 1 {
			continue
		}
		queries = append(queries, workload.Query{
			ID:    len(queries),
			Table: t.table,
			Attrs: append([]int(nil), t.attrs...),
			Freq:  freq,
			Kind:  t.kind,
		})
	}
	if len(queries) == 0 {
		return nil
	}
	tables := make([]workload.Table, len(w.schema.Tables))
	copy(tables, w.schema.Tables)
	attrs := make([]workload.Attribute, w.schema.NumAttrs())
	copy(attrs, w.schema.Attrs())
	snap, err := workload.New(tables, attrs, queries)
	if err != nil {
		// The window only ever holds resolved, schema-consistent templates;
		// a constructor error here is a programming bug, not bad input.
		panic(fmt.Sprintf("drift: window snapshot invalid: %v", err))
	}
	return snap
}
