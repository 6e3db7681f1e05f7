// Package core implements the paper's primary contribution: the recursive,
// constructive multi-attribute index-selection strategy of Algorithm 1
// (heuristic H6, Section II-C).
//
// Starting from the empty selection, each construction step either adds a new
// single-attribute index (step 3a) or appends one attribute to the end of an
// existing index (step 3b, "morphing"), always choosing the step with the
// best ratio of additional performance to additional memory — evaluated in
// the presence of all previously selected indexes, which is how index
// interaction (IIA) is taken into account. The full step trace approximates
// the efficient frontier of performance versus memory: cutting the trace at
// any budget yields the H6 selection for that budget.
//
// The optional extensions of Remark 1 (restricting new single-attribute
// indexes to the n best, dropping unused indexes, recording second-best
// opportunities, and pair construction steps) and the multi-index evaluation
// of Remark 2 are all supported through Options.
//
// The selector works on interned identities: every candidate index is
// canonicalized to a dense workload.IndexID (shared with the what-if
// optimizer's interner), the selection is an ID bitset, and the per-candidate
// cost/maintenance caches are flat tables indexed by ID — the inner loop does
// no string construction or map hashing.
//
// One step loop decides each construction step: the lazy (CELF) loop of
// lazy.go. The reconfiguration term R is priced per created byte
// (Options.Reconfig), a constant per candidate step, so priced runs take the
// same loop. Two exact oracles survive in test code: the uncached sweep
// (collectSweep, differential_test.go) and the original string-keyed selector
// (reference_test.go).
package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Options configures Algorithm 1.
type Options struct {
	// Budget is the memory budget A in bytes. Steps that would exceed it are
	// not applied. Budget must be positive.
	Budget int64
	// MaxSteps bounds the number of construction steps; 0 means unlimited.
	MaxSteps int
	// TopNSingle restricts step (3a) to the n single-attribute indexes with
	// the best initial benefit/size ratio (Remark 1.1); 0 considers all.
	TopNSingle int
	// DropUnused evicts selected indexes that no query uses anymore
	// (Remark 1.2), freeing their memory at zero cost change.
	DropUnused bool
	// TrackSecondBest records each step's best rejected alternative in the
	// trace (Remark 1.3).
	TrackSecondBest bool
	// PairSteps additionally considers two-attribute construction steps:
	// building a new two-attribute index or appending an attribute pair
	// (Remark 1.4). The pair universe is limited to PairLimit co-occurring
	// pairs by weight.
	PairSteps bool
	// PairLimit bounds the pair universe for PairSteps; 0 means 200.
	PairLimit int
	// MultiIndex evaluates candidate steps with whole-selection what-if
	// calls instead of the single-index decomposition (Remark 2). Much more
	// expensive; intended for small workloads.
	MultiIndex bool
	// Reconfig prices R(I*, I-bar*), added to the workload cost when
	// comparing steps. The zero value means reconfiguration is free.
	Reconfig Reconfig
	// Deprecated: ignored. Candidate evaluation is serial; the field stays
	// only because the end-to-end benchmark (bench/e2e/erp.go) still sets it.
	Parallelism int
	// Explain records decision provenance: one explain.StepProvenance per
	// applied step (gain decomposition by query, maintenance delta,
	// runner-up margin, and the lazy loop's prune ledger) on
	// Result.Provenance and on each step's telemetry span. Recording reads
	// state the step loop already maintains — it changes no evaluation, no
	// tie-break, and no what-if call, so traces are bit-identical with
	// Explain on or off; when off, no provenance path allocates.
	Explain bool
	// Progress, if non-nil, receives one live-progress update per applied
	// construction step (never per candidate) for the /progress endpoint.
	Progress *telemetry.Progress
	// Span, if non-nil, is the parent telemetry span (normally the advisor's
	// per-Select root span); the run records one child span per construction
	// step under it. Nil disables tracing with zero overhead.
	Span *telemetry.Span
	// Context, if non-nil, cancels the run: cancellation is checked at every
	// step boundary and polled inside the candidate evaluation loop. An
	// interrupted run is not an error — Extend is an anytime algorithm, every
	// completed step is a feasible frontier point — so Select returns the
	// best-so-far Result with Partial set and StopReason saying why. The
	// context's deadline is the run's only wall-clock bound.
	Context context.Context
}

// Reconfig is the reconfiguration cost R(I*, I-bar*) against the deployed
// selection I-bar*: every byte of a selected index that is not deployed
// costs CreatePerByte. A step's change in R then depends only on the index it
// creates and the one it replaces, a constant per candidate step.
// CreatePerByte must be finite and non-negative; 0 means free.
type Reconfig struct {
	Deployed      workload.Selection
	CreatePerByte float64
}

// StepKind labels a construction step.
type StepKind int

const (
	// StepNewIndex is step (3a): a new single-attribute index.
	StepNewIndex StepKind = iota
	// StepExtend is step (3b): one attribute appended to an existing index.
	StepExtend
	// StepNewPair builds a new two-attribute index (Remark 1.4).
	StepNewPair
	// StepExtendPair appends two attributes to an existing index (Remark 1.4).
	StepExtendPair
	// StepDrop evicts an unused index (Remark 1.2).
	StepDrop
)

func (k StepKind) String() string {
	switch k {
	case StepNewIndex:
		return "new"
	case StepExtend:
		return "extend"
	case StepNewPair:
		return "new-pair"
	case StepExtendPair:
		return "extend-pair"
	case StepDrop:
		return "drop"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step records one applied construction step.
type Step struct {
	Kind StepKind
	// Index is the index created or extended into (for StepDrop: removed).
	Index workload.Index
	// Replaced is the pre-extension index for StepExtend/StepExtendPair.
	Replaced *workload.Index
	// CostBefore/CostAfter are F(I)+R(I) around the step.
	CostBefore, CostAfter float64
	// MemBefore/MemAfter are P(I) around the step.
	MemBefore, MemAfter int64
	// Ratio is the step's (cost reduction)/(additional memory).
	Ratio float64
	// RunnerUp describes the best rejected alternative when
	// Options.TrackSecondBest is set.
	RunnerUp *Alternative
	// Candidates is the number of candidate steps enumerated for this step;
	// Evaluated of them had their gain (re)computed and CacheServed were
	// decided by the lazy loop from a still-exact cached evaluation without
	// recomputation (always zero on the sweep). Drop steps (Remark 1.2)
	// enumerate nothing and report zeros.
	Candidates, Evaluated, CacheServed int
	// Pruned counts candidates the lazy (CELF) loop skipped entirely because
	// their gain upper bound could not beat the step's winner — neither
	// evaluated nor served from cache. Always zero on the sweep;
	// Candidates = Evaluated + CacheServed + Pruned.
	Pruned int
}

// Alternative is a rejected candidate step (Remark 1.3).
type Alternative struct {
	Kind  StepKind
	Index workload.Index
	Ratio float64
}

// Result is the outcome of a run of Algorithm 1.
type Result struct {
	// Steps is the full construction trace in order.
	Steps []Step
	// Selection is the final index selection (within budget).
	Selection workload.Selection
	// InitialCost is F(∅) (+R if configured).
	InitialCost float64
	// Cost is the final F(I*) (+R).
	Cost float64
	// Memory is the final P(I*).
	Memory int64
	// Evaluated and CacheServed total the candidate accounting over the whole
	// run (see Step). They can exceed the per-step sums: the final enumeration
	// round that finds no viable step still evaluates candidates but records
	// no step.
	Evaluated, CacheServed int
	// Pruned totals the candidates the lazy (CELF) loop bound-skipped over the
	// whole run (see Step.Pruned). Zero on the sweep and multi-index paths.
	Pruned int
	// Provenance, when Options.Explain was set, holds one record per Step,
	// aligned by index (drop steps included). Nil otherwise.
	Provenance []explain.StepProvenance
	// StopReason says why the construction loop ended: converged (no viable
	// candidate), budget-exhausted (viable candidates remained but none fit
	// the memory budget), max-steps, deadline, or cancelled.
	StopReason fault.StopReason
	// Partial is true when the run was interrupted (deadline or cancellation)
	// before reaching convergence. The trace is then a bit-identical prefix
	// of what an unbounded run would produce: a step whose evaluation was in
	// flight at the stop is discarded, never applied over partially
	// evaluated candidates.
	Partial bool
}

// Frontier returns the (memory, cost) point after every step, prefixed with
// the empty-selection point — the H6 approximation of the efficient frontier.
func (r *Result) Frontier() []FrontierPoint {
	pts := make([]FrontierPoint, 0, len(r.Steps)+1)
	pts = append(pts, FrontierPoint{Memory: 0, Cost: r.InitialCost})
	for _, s := range r.Steps {
		pts = append(pts, FrontierPoint{Memory: s.MemAfter, Cost: s.CostAfter})
	}
	return pts
}

// FrontierPoint is one point of the performance/memory frontier.
type FrontierPoint struct {
	Memory int64
	Cost   float64
}

// SelectionAt replays the trace and returns the selection, cost and memory
// of the last step within the given budget. It lets one run of Algorithm 1
// (with a large budget) answer every smaller budget, as in the paper's
// budget sweeps.
func (r *Result) SelectionAt(budget int64) (workload.Selection, float64, int64) {
	sel := workload.NewSelection()
	cost := r.InitialCost
	var mem int64
	for _, s := range r.Steps {
		if s.MemAfter > budget {
			// Drop steps only shrink memory; later cheaper states may still
			// fit, so skip-forward only on growth steps.
			if s.Kind != StepDrop {
				break
			}
		}
		switch s.Kind {
		case StepDrop:
			sel.Remove(s.Index)
		case StepExtend, StepExtendPair:
			sel.Remove(*s.Replaced)
			sel.Add(s.Index)
		default:
			sel.Add(s.Index)
		}
		cost, mem = s.CostAfter, s.MemAfter
	}
	return sel, cost, mem
}

// Select runs Algorithm 1 on workload w with costs served by opt.
//
// Select never lets a panic escape: a panic anywhere in the run (e.g. a
// crashing cost source) is recovered and returned as a
// *fault.WorkerPanicError, so one bad estimate cannot take down a serving
// process.
func Select(w *workload.Workload, opt *whatif.Optimizer, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fault.AsPanicError("core.Select", r)
		}
	}()
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("core: budget must be positive (got %d)", opts.Budget)
	}
	if p := opts.Reconfig.CreatePerByte; !(p >= 0) || math.IsInf(p, 1) {
		return nil, fmt.Errorf("core: Reconfig.CreatePerByte must be finite and non-negative (got %v)", p)
	}
	if opts.MultiIndex {
		return newSelector(w, opt, opts).runMultiIndex()
	}
	return newSelector(w, opt, opts).run()
}

// selector holds the incremental state of a run. All index identities are
// interned IDs from the what-if optimizer's interner; candidate enumeration
// interns, evaluation only reads.
type selector struct {
	w    *workload.Workload
	opt  *whatif.Optimizer
	opts Options
	in   *workload.Interner

	queriesWith [][]int32 // attr -> read-query IDs (shared with w)
	base        []float64 // query -> f_j(0)
	cost        []float64 // query -> current cost under sel
	// served maps each query to the selected indexes serving it and their
	// costs. Selections stay small (tens of indexes), so a small map per
	// query beats a dense table over all interned IDs. cheapest keeps each
	// query's two cheapest servers, so the gain loops read the cheapest
	// server other than a given index without walking served.
	served   []map[workload.IndexID]float64
	cheapest []cheapPair

	sel   *workload.IDSelection
	size  map[workload.IndexID]int64 // selected index -> p_k
	fsum  float64                    // read component of F(I) = sum b_j cost_j
	wsum  float64                    // write component: maintenance of selected indexes
	mem   int64                      // P(I)
	recon float64                    // R(I) = CreatePerByte * created

	// deployed interns Options.Reconfig.Deployed; nil when reconfiguration
	// is free. created counts the selected bytes outside it.
	deployed *workload.IDSelection
	created  int64

	// selByLead holds the selected indexes grouped by leading attribute,
	// each list in canonical key order (addIndex/removeIndex keep it);
	// leadOrder lists every attribute in decimal-string order. Canonical key
	// order is lead-first, so walking the lists in leadOrder yields the whole
	// selection sorted without sorting it (sortedSel), and one lead's
	// extension bases are read without touching the rest (rebuildBucket).
	selByLead [][]selEntry
	leadOrder []int

	// writesOn lists each table's write templates: the only queries that
	// charge maintenance to an index on that table.
	writesOn [][]int32

	// candCost caches f_j(candidate) aligned with queriesWith[lead] (nil =
	// not yet computed); maintTab caches the frequency-weighted maintenance
	// cost (NaN = not yet computed). Both are flat tables indexed by interned
	// ID, grown by ensure() after each batch of interning.
	candCost [][]float64
	maintTab []float64

	// singles pre-builds the step-(3a) candidate per attribute (nil where no
	// read query accesses the attribute), so enumerate allocates nothing for
	// them.
	singles   []workload.Index
	singleIDs []workload.IndexID

	// lazy is the CELF priority-queue state (lazy.go); nil under MultiIndex.
	// decide is run()'s step decision, collectLazy; tests swap in the
	// uncached sweep (collectSweep) as its exact oracle.
	lazy   *lazyState
	decide func() (best, second candidate, haveSecond, ok bool, err error)
	// snapCost is mutateStep's reusable cost-snapshot buffer.
	snapCost []float64

	singleAllowed map[int]bool // non-nil when TopNSingle restricts step 3a
	pairs         [][2]int     // pair universe for PairSteps

	// lastCandidates/lastEvaluated/lastCached/lastPruned are the deciding
	// phase's enumeration accounting for the step being decided; apply()
	// copies them into the recorded Step.
	lastCandidates, lastEvaluated, lastCached, lastPruned int
	totalEvaluated, totalCached, totalPruned              int

	// Provenance capture state, touched only when opts.Explain is set:
	// prov accumulates one record per applied step; byQueryScratch is
	// mutateStep's reusable per-query-delta buffer (captureDeltas fills it,
	// captureProv copies the capped top into the record); lastReadGain and
	// lastChanged summarize the buffer; the lastLedger fields carry the lazy
	// loop's prune ledger from collectLazy to the apply that records it.
	prov            []explain.StepProvenance
	byQueryScratch  []explain.QueryDelta
	lastReadGain    float64
	lastChanged     int
	lastLedger      []explain.PrunedBucket
	lastLedgerBkts  int
	lastLedgerSkip  int
	lastLedgerTrunc bool

	// stop turns Options.Context (and its deadline) into the sticky stop
	// signal checked at step boundaries and polled by evalAll.
	// stopReason records why the construction loop ended.
	stop       *fault.Stopper
	stopReason fault.StopReason

	steps []Step
}

// gainKey identifies a candidate step: the step kind plus the interned ID of
// the index the step would create. For extension steps the pre-extension
// index is implied (the key minus its last one or two attributes), so the
// pair is unique across the whole candidate universe.
type gainKey struct {
	kind StepKind
	id   workload.IndexID
}

// gainEntry is an evaluation outcome: the candidate and whether it is a
// viable step (positive gain and memory growth). Selection-membership and
// budget checks are NOT part of the entry — they depend on per-step state
// and are re-applied cheaply on every use. optGain, recon and dm are
// reported even for non-viable outcomes: the lazy path derives stale upper
// bounds from them (see lazy.go), while the sweep ignores them.
type gainEntry struct {
	c       candidate
	ok      bool
	optGain float64 // optimistic surrogate read gain net of maintenance
	recon   float64 // the step's change in R, already subtracted from c.gain
	dm      int64   // memory delta, valid while the base index stays selected
}

func newSelector(w *workload.Workload, opt *whatif.Optimizer, opts Options) *selector {
	s := &selector{
		w:    w,
		opt:  opt,
		opts: opts,
		in:   opt.Interner(),
		size: make(map[workload.IndexID]int64),
	}
	s.sel = workload.NewIDSelection(s.in)
	s.stop = fault.NewStopper(opts.Context)
	s.queriesWith = make([][]int32, w.NumAttrs())
	for a := range s.queriesWith {
		s.queriesWith[a] = w.ReadQueriesWithAttr(a)
	}
	s.writesOn = w.WritesByTable()
	s.base = make([]float64, w.NumQueries())
	s.cost = make([]float64, w.NumQueries())
	s.served = make([]map[workload.IndexID]float64, w.NumQueries())
	s.cheapest = make([]cheapPair, w.NumQueries())
	for _, q := range w.Queries {
		s.base[q.ID] = opt.BaseCost(q)
		s.cost[q.ID] = s.base[q.ID]
		s.served[q.ID] = make(map[workload.IndexID]float64)
		s.cheapest[q.ID] = noCheapPair
		s.fsum += float64(q.Freq) * s.base[q.ID]
	}
	s.selByLead = make([][]selEntry, w.NumAttrs())
	s.leadOrder = make([]int, w.NumAttrs())
	for a := range s.leadOrder {
		s.leadOrder[a] = a
	}
	slices.SortFunc(s.leadOrder, func(a, b int) int {
		return workload.CompareIndexKeys(workload.Index{Attrs: []int{a}}, workload.Index{Attrs: []int{b}})
	})
	s.singles = make([]workload.Index, w.NumAttrs())
	s.singleIDs = make([]workload.IndexID, w.NumAttrs())
	for _, a := range w.Attrs() {
		if len(s.queriesWith[a.ID]) == 0 {
			continue
		}
		idx := workload.Index{Table: a.Table, Attrs: []int{a.ID}}
		s.singles[a.ID] = idx
		s.singleIDs[a.ID] = s.in.Intern(idx)
	}
	if opts.Reconfig.CreatePerByte > 0 {
		s.deployed = workload.NewIDSelection(s.in)
		for _, k := range opts.Reconfig.Deployed.Sorted() { // key order: deterministic IDs
			s.deployed.Add(s.in.Intern(k))
		}
	}
	s.ensure()
	if !opts.MultiIndex {
		// Built last: the bound slacks derive from the base costs above.
		s.lazy = newLazyState(s)
		s.decide = s.collectLazy
	}
	return s
}

// ensure grows the flat per-ID tables to cover every ID interned so far.
// Must be called after any batch of interning, before the new IDs are
// evaluated.
func (s *selector) ensure() {
	for n := s.in.Len(); len(s.maintTab) < n; {
		s.candCost = append(s.candCost, nil)
		s.maintTab = append(s.maintTab, math.NaN())
	}
}

// costsFor returns f_j(k) for the queries in queriesWith[k.Leading()],
// computing and caching them on first use; id must be k's interned ID.
func (s *selector) costsFor(k workload.Index, id workload.IndexID) []float64 {
	if c := s.candCost[id]; c != nil {
		return c
	}
	qs := s.queriesWith[k.Leading()]
	c := make([]float64, len(qs))
	for i, qid := range qs {
		c[i] = s.opt.CostWithInterned(&s.w.Queries[qid], k, id)
	}
	s.candCost[id] = c
	return c
}

// extCostsFor returns f_j(ext) aligned with queriesWith[ext.Leading()].
// When the optimizer's source is prefix-invariant, entries whose coverable
// prefix the extension leaves unchanged are derived from the pre-extension
// index's costs — those queries "do not change and have already been
// determined previously" (Section III-A), so no what-if call is spent on
// them. A measured source is asked about every query, matching the paper's
// end-to-end methodology of executing every query under every candidate.
func (s *selector) extCostsFor(base workload.Index, baseID workload.IndexID, ext workload.Index, extID workload.IndexID) []float64 {
	if c := s.candCost[extID]; c != nil {
		return c
	}
	if !s.opt.PrefixInvariant() {
		return s.costsFor(ext, extID)
	}
	baseCosts := s.costsFor(base, baseID)
	qs := s.queriesWith[ext.Leading()]
	c := make([]float64, len(qs))
	for i, qid := range qs {
		q := &s.w.Queries[qid]
		if len(workload.CoverablePrefix(*q, ext)) == len(workload.CoverablePrefix(*q, base)) {
			c[i] = baseCosts[i]
		} else {
			c[i] = s.opt.CostWithInterned(q, ext, extID)
		}
	}
	s.candCost[extID] = c
	return c
}

// maintFor returns the frequency-weighted maintenance cost the selected
// write templates impose on index k, cached per interned ID.
func (s *selector) maintFor(k workload.Index, id workload.IndexID) float64 {
	if c := s.maintTab[id]; !math.IsNaN(c) {
		return c
	}
	var cost float64
	for _, qid := range s.writesOn[k.Table] {
		q := &s.w.Queries[qid]
		cost += float64(q.Freq) * s.opt.MaintenanceCostInterned(q, k, id)
	}
	s.maintTab[id] = cost
	return cost
}

// total returns the tracked F(I) + maintenance + R(I).
func (s *selector) total() float64 { return s.fsum + s.wsum + s.recon }

// createdBytes is what selecting index k (interned as id) adds to the
// created byte count behind R: its size unless it is deployed, and 0 when
// reconfiguration is free.
func (s *selector) createdBytes(k workload.Index, id workload.IndexID) int64 {
	if s.deployed == nil || s.deployed.Has(id) {
		return 0
	}
	return s.indexSize(k, id)
}

// addCreated moves the created byte count by delta and re-prices R(I).
func (s *selector) addCreated(delta int64) {
	s.created += delta
	s.recon = s.opts.Reconfig.CreatePerByte * float64(s.created)
}

func (s *selector) indexSize(k workload.Index, id workload.IndexID) int64 {
	return s.opt.IndexSizeInterned(k, id)
}

// candidate is a potential construction step under evaluation.
type candidate struct {
	kind       StepKind
	index      workload.Index
	id         workload.IndexID
	replaced   *workload.Index
	replacedID workload.IndexID
	gain       float64 // cost reduction F(I)+R(I) - F(Ĩ) - R(Ĩ)
	deltaMem   int64
	ratio      float64
}

// evalNew computes the gain of adding idx as a brand-new index. It is a pure
// function of the per-step state (cost, served, selection sizes), which no
// evaluation mutates; selection-membership filtering happens when the
// candidate universe is built. For a new index the gain before the
// reconfiguration charge already is the optimistic surrogate of lazy.go
// (there is no replaced index whose loss could offset it).
func (s *selector) evalNew(idx workload.Index, id workload.IndexID, kind StepKind) gainEntry {
	costs := s.costsFor(idx, id)
	qs := s.queriesWith[idx.Leading()]
	var gain float64
	for i, qid := range qs {
		if c := costs[i]; c < s.cost[qid] {
			gain += float64(s.w.Queries[qid].Freq) * (s.cost[qid] - c)
		}
	}
	gain -= s.maintFor(idx, id)
	opt := gain
	dm := s.indexSize(idx, id)
	recon := s.opts.Reconfig.CreatePerByte * float64(s.createdBytes(idx, id))
	gain -= recon
	if gain <= 0 || dm <= 0 {
		return gainEntry{optGain: opt, recon: recon, dm: dm}
	}
	return gainEntry{
		c:       candidate{kind: kind, index: idx, id: id, gain: gain, deltaMem: dm, ratio: gain / float64(dm)},
		ok:      true,
		optGain: opt,
		recon:   recon,
		dm:      dm,
	}
}

// evalExtend computes the gain of morphing selected index k into k with
// extra attributes appended. Extending can degrade queries that used k but
// cannot cover the new attributes (wider keys probe slower), so the gain
// accounts for replacements, not just improvements. Like evalNew it leaves
// the per-step state untouched.
func (s *selector) evalExtend(k workload.Index, kID workload.IndexID, ext workload.Index, extID workload.IndexID, kind StepKind) gainEntry {
	costs := s.extCostsFor(k, kID, ext, extID)
	qs := s.queriesWith[k.Leading()]
	// opt is the optimistic surrogate of lazy.go: per query, the improvement
	// the extension would bring if removing the base index cost nothing
	// (sum of freq*(cost-ext)^+). Since the per-query gain is
	// old - min(alt, ext) with alt >= old, opt >= gain term by term.
	var gain, opt float64
	for i, qid := range qs {
		old := s.cost[qid]
		niu := s.base[qid]
		if c := s.cheapest[qid].without(kID); c < niu {
			niu = c
		}
		c := costs[i]
		if c < niu {
			niu = c
		}
		freq := float64(s.w.Queries[qid].Freq)
		gain += freq * (old - niu)
		if c < old {
			opt += freq * (old - c)
		}
	}
	maintDelta := s.maintFor(ext, extID) - s.maintFor(k, kID)
	gain -= maintDelta
	opt -= maintDelta
	dm := s.indexSize(ext, extID) - s.size[kID]
	// Created bytes are integers: the difference is exact, so the charge
	// equals R(after) - R(before) priced on whole selections.
	recon := s.opts.Reconfig.CreatePerByte * float64(s.createdBytes(ext, extID)-s.createdBytes(k, kID))
	gain -= recon
	if gain <= 0 || dm <= 0 {
		return gainEntry{optGain: opt, recon: recon, dm: dm}
	}
	kc := k
	return gainEntry{
		c: candidate{kind: kind, index: ext, id: extID, replaced: &kc, replacedID: kID,
			gain: gain, deltaMem: dm, ratio: gain / float64(dm)},
		ok:      true,
		optGain: opt,
		recon:   recon,
		dm:      dm,
	}
}

// better reports whether a should be preferred over b (higher ratio; ties
// break deterministically by kind then canonical key order — identical to
// the reference selector's string compare, see workload.CompareIndexKeys).
func better(a, b candidate) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return workload.CompareIndexKeys(a.index, b.index) < 0
}

// evalTask is one candidate step awaiting evaluation. For extension kinds,
// base is the selected pre-extension index.
type evalTask struct {
	kind    StepKind
	index   workload.Index
	id      workload.IndexID
	base    workload.Index
	baseID  workload.IndexID
	hasBase bool
}

func (s *selector) evalCandidate(t evalTask) gainEntry {
	if t.hasBase {
		return s.evalExtend(t.base, t.baseID, t.index, t.id, t.kind)
	}
	return s.evalNew(t.index, t.id, t.kind)
}

// cheapPair is one query's two cheapest serving indexes, ordered by (cost,
// ID) so the pair is a function of the served set alone; an empty slot has
// cost +Inf.
type cheapPair struct {
	id1, id2 workload.IndexID
	c1, c2   float64
}

var noCheapPair = cheapPair{c1: math.Inf(1), c2: math.Inf(1)}

// add files serving index id at cost c.
func (p *cheapPair) add(id workload.IndexID, c float64) {
	switch {
	case c < p.c1 || (c == p.c1 && id < p.id1):
		p.id2, p.c2 = p.id1, p.c1
		p.id1, p.c1 = id, c
	case c < p.c2 || (c == p.c2 && id < p.id2):
		p.id2, p.c2 = id, c
	}
}

// without returns the cheapest cost among the serving indexes other than
// id, +Inf when there is none. A min over floats is exact, so it equals a
// walk over served bit for bit.
func (p *cheapPair) without(id workload.IndexID) float64 {
	if id == p.id1 {
		return p.c2
	}
	return p.c1
}

// selEntry pairs a selected index with its ID for iteration in canonical
// key order.
type selEntry struct {
	id workload.IndexID
	k  workload.Index
}

// sortedSel returns a snapshot of the selection in canonical key order — the
// iteration order every order-sensitive loop (enumerate, dropUnused) uses,
// matching the reference selector's Selection.Sorted. It concatenates the
// per-lead lists in lead order: O(attributes + selection), no sort.
func (s *selector) sortedSel() []selEntry {
	out := make([]selEntry, 0, s.sel.Len())
	for _, a := range s.leadOrder {
		out = append(out, s.selByLead[a]...)
	}
	return out
}

// stopCheckStride is how many tasks evalAll evaluates between full
// Stopper.Check polls (clock + context). Powers of two keep the modulo a
// mask.
const stopCheckStride = 32

// evalAll evaluates every task in order, storing tasks[i]'s outcome into
// results[i].
//
// Two failure paths cut the evaluation short. If the run's Stopper fires,
// evalAll returns early, leaving the remaining results unset — the caller
// discards the whole step, so partially filled results are never reduced
// over. If a candidate evaluation panics (a crashing cost source), the panic
// is recovered and returned as a *fault.WorkerPanicError.
func (s *selector) evalAll(tasks []evalTask, results []gainEntry) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.AsPanicError("core.evalCandidate", r)
		}
	}()
	for i, t := range tasks {
		if i%stopCheckStride == 0 && s.stop.Check() != fault.StopNone {
			return nil
		}
		results[i] = s.evalCandidate(t)
	}
	return nil
}

// mutateStep wraps the serial state mutation(s) of one applied or dropped
// step — which always share a single leading attribute (extending appends to
// the end, so the replaced and new index have the same lead) — and derives
// the lazy loop's invalidation from the NET per-query cost movement across
// the whole mutation. Wrapping the remove+add pair of an extension as one
// unit matters: a query whose cost dips while the base is out and returns
// when the extension lands has no net change, and its co-occurring new-index
// gains are still exact.
func (s *selector) mutateStep(lead int, f func()) {
	if s.lazy == nil && !s.opts.Explain {
		f()
		return
	}
	qs := s.queriesWith[lead]
	snap := s.snapCost[:0]
	for _, qid := range qs {
		snap = append(snap, s.cost[qid])
	}
	s.snapCost = snap
	f()
	if s.opts.Explain {
		s.captureDeltas(lead, snap)
	}
	if s.lazy != nil {
		s.lazy.noteMutation(s, lead, snap)
	}
}

// captureDeltas turns mutateStep's cost snapshot into the step's per-query
// provenance: every affected query's frequency-weighted movement, plus the
// net read gain. Pure bookkeeping over values the mutation already computed
// — it issues no what-if calls and runs only when Options.Explain is set.
func (s *selector) captureDeltas(lead int, snap []float64) {
	s.byQueryScratch = s.byQueryScratch[:0]
	s.lastReadGain, s.lastChanged = 0, 0
	for i, qid := range s.queriesWith[lead] {
		old, now := snap[i], s.cost[qid]
		if now == old {
			continue
		}
		q := s.w.Queries[qid]
		s.lastChanged++
		s.lastReadGain += float64(q.Freq) * (old - now)
		s.byQueryScratch = append(s.byQueryScratch, explain.QueryDelta{
			Query: int(qid), Freq: q.Freq,
			Before: old, After: now,
			Delta: float64(q.Freq) * (now - old),
		})
	}
}

// captureProv records the just-applied step's provenance; st is the step
// apply (or dropUnused) appended last. second/haveSecond carry the decision
// phase's runner-up — available whenever one was evaluated, independent of
// TrackSecondBest.
func (s *selector) captureProv(st *Step, second candidate, haveSecond bool, wsumBefore, reconBefore float64) {
	p := explain.StepProvenance{
		Step:             len(s.steps) - 1,
		Kind:             st.Kind.String(),
		Index:            st.Index.Key(),
		Gain:             st.CostBefore - st.CostAfter,
		ReadGain:         s.lastReadGain,
		MaintenanceDelta: s.wsum - wsumBefore,
		ReconfigDelta:    s.recon - reconBefore,
		MemDeltaBytes:    st.MemAfter - st.MemBefore,
		Ratio:            st.Ratio,
		QueriesChanged:   s.lastChanged,
		Candidates:       st.Candidates,
		Evaluated:        st.Evaluated,
		CacheServed:      st.CacheServed,
		Pruned:           st.Pruned,
	}
	if st.Replaced != nil {
		p.Replaced = st.Replaced.Key()
	}
	if haveSecond {
		p.RunnerUp = &explain.RunnerUp{
			Kind:  second.kind.String(),
			Index: second.index.Key(),
			Ratio: second.ratio,
		}
		p.Margin = st.Ratio - second.ratio
	}
	// Largest movement first; the cap keeps journal lines bounded while
	// ReadGain/QueriesChanged preserve the uncapped totals.
	sort.Slice(s.byQueryScratch, func(i, j int) bool {
		di, dj := math.Abs(s.byQueryScratch[i].Delta), math.Abs(s.byQueryScratch[j].Delta)
		if di != dj {
			return di > dj
		}
		return s.byQueryScratch[i].Query < s.byQueryScratch[j].Query
	})
	top := s.byQueryScratch
	if len(top) > explain.MaxByQuery {
		top = top[:explain.MaxByQuery]
		p.ByQueryTruncated = true
	}
	if len(top) > 0 {
		p.ByQuery = append([]explain.QueryDelta(nil), top...)
	}
	if s.lastLedger != nil || s.lastLedgerSkip > 0 {
		p.PruneLedger = s.lastLedger
		p.LedgerBuckets = s.lastLedgerBkts
		p.LedgerSkipped = s.lastLedgerSkip
		p.LedgerTruncated = s.lastLedgerTrunc
		s.lastLedger, s.lastLedgerBkts, s.lastLedgerSkip, s.lastLedgerTrunc = nil, 0, 0, false
	}
	s.prov = append(s.prov, p)
}

// lastProv returns the most recent provenance record, nil when explain is
// off (finishStep journals it alongside the step's scalar attributes).
func (s *selector) lastProv() *explain.StepProvenance {
	if len(s.prov) == 0 {
		return nil
	}
	return &s.prov[len(s.prov)-1]
}

// pairUniverse lazily builds the limited pair universe for Remark 1.4:
// the highest-weight attribute pairs co-occurring in queries, in both orders.
func (s *selector) pairUniverse() [][2]int {
	if s.pairs != nil {
		return s.pairs
	}
	limit := s.opts.PairLimit
	if limit <= 0 {
		limit = 200
	}
	type pw struct {
		p [2]int
		w int64
	}
	weights := make(map[[2]int]int64)
	for _, q := range s.w.Queries {
		for i := 0; i < len(q.Attrs); i++ {
			for j := i + 1; j < len(q.Attrs); j++ {
				weights[[2]int{q.Attrs[i], q.Attrs[j]}] += q.Freq
			}
		}
	}
	all := make([]pw, 0, len(weights))
	for p, wgt := range weights {
		all = append(all, pw{p, wgt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].p[0] < all[j].p[0] || (all[i].p[0] == all[j].p[0] && all[i].p[1] < all[j].p[1])
	})
	if len(all) > limit {
		all = all[:limit]
	}
	s.pairs = make([][2]int, 0, 2*len(all))
	for _, e := range all {
		s.pairs = append(s.pairs, e.p, [2]int{e.p[1], e.p[0]})
	}
	return s.pairs
}

// apply mutates the state with the chosen candidate and records the step.
func (s *selector) apply(c candidate, second candidate, haveSecond bool) {
	before, memBefore := s.total(), s.mem
	wsumBefore, reconBefore := s.wsum, s.recon

	s.mutateStep(c.index.Leading(), func() {
		created := s.createdBytes(c.index, c.id)
		if c.replaced != nil {
			created -= s.createdBytes(*c.replaced, c.replacedID)
			s.removeIndex(*c.replaced, c.replacedID)
		}
		s.addIndex(c.index, c.id)
		s.addCreated(created)
	})

	step := Step{
		Kind:        c.kind,
		Index:       c.index,
		Replaced:    c.replaced,
		CostBefore:  before,
		CostAfter:   s.total(),
		MemBefore:   memBefore,
		MemAfter:    s.mem,
		Ratio:       c.ratio,
		Candidates:  s.lastCandidates,
		Evaluated:   s.lastEvaluated,
		CacheServed: s.lastCached,
		Pruned:      s.lastPruned,
	}
	if s.opts.TrackSecondBest && haveSecond {
		step.RunnerUp = &Alternative{Kind: second.kind, Index: second.index, Ratio: second.ratio}
	}
	s.steps = append(s.steps, step)
	if s.opts.Explain {
		s.captureProv(&s.steps[len(s.steps)-1], second, haveSecond, wsumBefore, reconBefore)
	}
}

// addIndex inserts idx into the selection and refreshes affected queries.
// Callers mutate through mutateStep, which handles the lazy loop's
// invalidation.
func (s *selector) addIndex(idx workload.Index, id workload.IndexID) {
	s.sel.Add(id)
	k, lead := s.in.Index(id), idx.Leading()
	i, _ := slices.BinarySearchFunc(s.selByLead[lead], k, func(e selEntry, k workload.Index) int {
		return workload.CompareIndexKeys(e.k, k)
	})
	s.selByLead[lead] = slices.Insert(s.selByLead[lead], i, selEntry{id: id, k: k})
	sz := s.indexSize(idx, id)
	s.size[id] = sz
	s.mem += sz
	s.wsum += s.maintFor(idx, id)
	costs := s.costsFor(idx, id)
	for i, qid := range s.queriesWith[lead] {
		s.served[qid][id] = costs[i]
		s.cheapest[qid].add(id, costs[i])
		if costs[i] < s.cost[qid] {
			s.fsum -= float64(s.w.Queries[qid].Freq) * (s.cost[qid] - costs[i])
			s.cost[qid] = costs[i]
		}
	}
}

// removeIndex drops idx from the selection and re-derives affected queries'
// costs from their remaining served entries. Callers mutate through
// mutateStep, which handles the lazy loop's invalidation.
func (s *selector) removeIndex(idx workload.Index, id workload.IndexID) {
	s.sel.Remove(id)
	lead := idx.Leading()
	if i := slices.IndexFunc(s.selByLead[lead], func(e selEntry) bool { return e.id == id }); i >= 0 {
		s.selByLead[lead] = slices.Delete(s.selByLead[lead], i, i+1)
	}
	s.mem -= s.size[id]
	s.wsum -= s.maintFor(idx, id)
	delete(s.size, id)
	for _, qid := range s.queriesWith[lead] {
		if _, ok := s.served[qid][id]; !ok {
			continue
		}
		delete(s.served[qid], id)
		cp := &s.cheapest[qid]
		if id == cp.id1 || id == cp.id2 {
			*cp = noCheapPair
			for sid, c := range s.served[qid] {
				cp.add(sid, c)
			}
		}
		niu := s.base[qid]
		if cp.c1 < niu {
			niu = cp.c1
		}
		if niu != s.cost[qid] {
			s.fsum += float64(s.w.Queries[qid].Freq) * (niu - s.cost[qid])
			s.cost[qid] = niu
		}
	}
}

// dropUnused evicts selected indexes whose removal does not worsen the total
// cost (Remark 1.2): read-unused indexes always qualify, and under write
// workloads so do indexes whose residual read benefit no longer covers their
// maintenance burden. Drop steps are recorded in the trace.
func (s *selector) dropUnused() {
	for changed := true; changed; {
		changed = false
		for _, e := range s.sortedSel() {
			// readDelta: how much the read cost would grow without e.k.
			var readDelta float64
			for _, qid := range s.queriesWith[e.k.Leading()] {
				c, ok := s.served[qid][e.id]
				if !ok || c > s.cost[qid] {
					continue
				}
				alt := s.base[qid]
				if oc := s.cheapest[qid].without(e.id); oc < alt {
					alt = oc
				}
				if alt > s.cost[qid] {
					readDelta += float64(s.w.Queries[qid].Freq) * (alt - s.cost[qid])
				}
			}
			if readDelta > s.maintFor(e.k, e.id)+1e-9 {
				continue // still worth keeping
			}
			before, memBefore := s.total(), s.mem
			wsumBefore, reconBefore := s.wsum, s.recon
			s.mutateStep(e.k.Leading(), func() {
				s.removeIndex(e.k, e.id)
				s.addCreated(-s.createdBytes(e.k, e.id))
			})
			s.steps = append(s.steps, Step{
				Kind:       StepDrop,
				Index:      e.k,
				CostBefore: before,
				CostAfter:  s.total(),
				MemBefore:  memBefore,
				MemAfter:   s.mem,
			})
			if s.opts.Explain {
				s.captureProv(&s.steps[len(s.steps)-1], candidate{}, false, wsumBefore, reconBefore)
			}
			changed = true
		}
	}
}

// initTopNSingle ranks single-attribute indexes by their initial ratio and
// restricts step (3a) to the best n (Remark 1.1).
func (s *selector) initTopNSingle() {
	n := s.opts.TopNSingle
	if n <= 0 {
		return
	}
	type ranked struct {
		attr  int
		ratio float64
	}
	var all []ranked
	for _, a := range s.w.Attrs() {
		if len(s.queriesWith[a.ID]) == 0 {
			continue
		}
		idx, id := s.singles[a.ID], s.singleIDs[a.ID]
		costs := s.costsFor(idx, id)
		var gain float64
		for i, qid := range s.queriesWith[a.ID] {
			if c := costs[i]; c < s.base[qid] {
				gain += float64(s.w.Queries[qid].Freq) * (s.base[qid] - c)
			}
		}
		if sz := s.indexSize(idx, id); sz > 0 && gain > 0 {
			all = append(all, ranked{a.ID, gain / float64(sz)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ratio != all[j].ratio {
			return all[i].ratio > all[j].ratio
		}
		return all[i].attr < all[j].attr
	})
	if len(all) > n {
		all = all[:n]
	}
	s.singleAllowed = make(map[int]bool, len(all))
	for _, r := range all {
		s.singleAllowed[r.attr] = true
	}
}

// run executes the construction loop in the single-index cost decomposition,
// deciding every step with s.decide (the lazy CELF loop, collectLazy).
func (s *selector) run() (*Result, error) {
	s.initTopNSingle()
	initial := s.total()
	for {
		if s.opts.MaxSteps > 0 && len(s.steps) >= s.opts.MaxSteps {
			s.stopReason = fault.StopMaxSteps
			break
		}
		if r := s.stop.Check(); r != fault.StopNone {
			s.stopReason = r
			break
		}
		sp := s.opts.Span.Child("extend.step")
		stepStart := time.Now()
		best, second, haveSecond, ok, err := s.decide()
		if err != nil {
			sp.Discard()
			return nil, err
		}
		if !ok {
			sp.Discard()
			break // decide set stopReason
		}
		s.apply(best, second, haveSecond)
		finishStep(sp, stepStart, &s.steps[len(s.steps)-1], s.lastProv())
		if s.opts.DropUnused {
			s.dropUnused()
		}
		s.opts.Progress.Update(func(p *telemetry.ProgressState) {
			p.Step, p.InitialCost, p.BestCost, p.MemoryBytes = len(s.steps), initial, s.total(), s.mem
			p.Evaluated, p.CacheServed, p.Pruned = int64(s.totalEvaluated), int64(s.totalCached), int64(s.totalPruned)
		})
	}
	res := &Result{
		Steps:       s.steps,
		Selection:   s.sel.Selection(),
		InitialCost: initial,
		Cost:        s.total(),
		Memory:      s.mem,
		Evaluated:   s.totalEvaluated,
		CacheServed: s.totalCached,
		Pruned:      s.totalPruned,
		Provenance:  s.prov,
		StopReason:  s.stopReason,
		Partial:     s.stopReason.Interrupted(),
	}
	logRun(res)
	return res, nil
}

// finishStep records a just-applied step's telemetry: its child span and
// the package metrics. One call per construction step — never per candidate.
// prov, when non-nil, is journaled as a structured attribute so the run
// journal carries the full decision provenance (journal schema v2).
func finishStep(sp *telemetry.Span, start time.Time, st *Step, prov *explain.StepProvenance) {
	mSteps.Inc()
	mStepDur.Observe(time.Since(start).Seconds())
	mEvaluated.Add(int64(st.Evaluated))
	mCacheServed.Add(int64(st.CacheServed))
	if sp == nil {
		return
	}
	sp.SetStr("kind", st.Kind.String())
	sp.SetStr("index", st.Index.Key())
	sp.SetFloat("gain", st.CostBefore-st.CostAfter)
	sp.SetFloat("ratio", st.Ratio)
	sp.SetFloat("cost_after", st.CostAfter)
	sp.SetInt("mem_after_bytes", st.MemAfter)
	sp.SetInt("candidates", int64(st.Candidates))
	sp.SetInt("evaluated", int64(st.Evaluated))
	sp.SetInt("cache_served", int64(st.CacheServed))
	sp.SetInt("pruned", int64(st.Pruned))
	if prov != nil {
		sp.SetAny("provenance", *prov)
	}
	sp.End()
}

// logRun emits the run-level structured log line. The Enabled guard keeps
// the disabled default free of argument boxing.
func logRun(res *Result) {
	mRuns.Inc()
	if lg := telemetry.L(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("extend run complete",
			"steps", len(res.Steps),
			"cost", res.Cost,
			"initial_cost", res.InitialCost,
			"memory_bytes", res.Memory,
			"candidates_evaluated", res.Evaluated,
			"candidates_cache_served", res.CacheServed,
		)
	}
}

// runMultiIndex executes the construction loop evaluating each candidate
// with whole-selection what-if calls (Remark 2). Because every step changes
// the context earlier calls were made under, affected queries' cached costs
// are refreshed rather than reused. Intended for small workloads.
func (s *selector) runMultiIndex() (*Result, error) {
	queryCost := func(sel workload.Selection, q workload.Query) float64 {
		return s.opt.QueryCost(q, sel)
	}
	total := func(sel workload.Selection) float64 {
		var f float64
		for _, q := range s.w.Queries {
			f += float64(q.Freq) * queryCost(sel, q)
		}
		if rc := s.opts.Reconfig; rc.CreatePerByte > 0 {
			var created int64
			for _, k := range sel {
				if !rc.Deployed.Has(k) {
					created += s.opt.IndexSize(k)
				}
			}
			f += rc.CreatePerByte * float64(created)
		}
		return f
	}
	selSize := func(sel workload.Selection) int64 {
		var p int64
		for _, k := range sel {
			p += s.opt.IndexSize(k)
		}
		return p
	}

	cur := workload.NewSelection()
	curCost := total(cur)
	initial := curCost
	var curMem int64
	var steps []Step

	for {
		if s.opts.MaxSteps > 0 && len(steps) >= s.opts.MaxSteps {
			s.stopReason = fault.StopMaxSteps
			break
		}
		if r := s.stop.Check(); r != fault.StopNone {
			s.stopReason = r
			break
		}
		sp := s.opts.Span.Child("extend.step")
		stepStart := time.Now()
		type cand struct {
			kind     StepKind
			index    workload.Index
			replaced *workload.Index
			sel      workload.Selection
		}
		var cands []cand
		for _, a := range s.w.Attrs() {
			if len(s.queriesWith[a.ID]) == 0 {
				continue
			}
			idx := workload.Index{Table: a.Table, Attrs: []int{a.ID}}
			if cur.Has(idx) {
				continue
			}
			next := cur.Clone()
			next.Add(idx)
			cands = append(cands, cand{StepNewIndex, idx, nil, next})
		}
		for _, k := range cur.Sorted() {
			for _, a := range s.w.Tables[k.Table].Attrs {
				if k.Contains(a) {
					continue
				}
				ext := k.Append(a)
				if cur.Has(ext) {
					continue
				}
				next := cur.Clone()
				next.Remove(k)
				next.Add(ext)
				kc := k
				cands = append(cands, cand{StepExtend, ext, &kc, next})
			}
		}

		bestRatio := math.Inf(-1)
		var best *cand
		var bestCost float64
		var bestMem int64
		evaluated := 0
		budgetExcluded := false
		for i := range cands {
			// Whole-selection evaluations are the expensive unit here; poll
			// between them and discard the in-flight step on stop.
			if r := s.stop.Check(); r != fault.StopNone {
				s.stopReason = r
				best = nil
				break
			}
			c := &cands[i]
			mem := selSize(c.sel)
			if mem > s.opts.Budget {
				if mem > curMem {
					// An estimate: the candidate was never cost-evaluated, so
					// "viable but over budget" is judged on memory alone.
					budgetExcluded = true
				}
				continue
			}
			if mem <= curMem {
				continue
			}
			evaluated++
			cost := total(c.sel)
			gain := curCost - cost
			if gain <= 0 {
				continue
			}
			ratio := gain / float64(mem-curMem)
			if ratio > bestRatio || (ratio == bestRatio && best != nil && c.index.Key() < best.index.Key()) {
				bestRatio, best, bestCost, bestMem = ratio, c, cost, mem
			}
		}
		if best == nil {
			sp.Discard()
			if s.stopReason == fault.StopNone {
				if budgetExcluded {
					s.stopReason = fault.StopBudget
				} else {
					s.stopReason = fault.StopConverged
				}
			}
			break
		}
		steps = append(steps, Step{
			Kind:       best.kind,
			Index:      best.index,
			Replaced:   best.replaced,
			CostBefore: curCost,
			CostAfter:  bestCost,
			MemBefore:  curMem,
			MemAfter:   bestMem,
			Ratio:      bestRatio,
			Candidates: len(cands),
			Evaluated:  evaluated,
		})
		cur, curCost, curMem = best.sel, bestCost, bestMem
		s.steps = steps
		s.totalEvaluated += evaluated
		if s.opts.Explain {
			// Remark 2 evaluates whole selections: a per-query decomposition
			// would need extra what-if calls, so the record carries the
			// selection-level movement only.
			st := &s.steps[len(s.steps)-1]
			p := explain.StepProvenance{
				Step:          len(s.steps) - 1,
				Kind:          st.Kind.String(),
				Index:         st.Index.Key(),
				Gain:          st.CostBefore - st.CostAfter,
				ReadGain:      st.CostBefore - st.CostAfter,
				MemDeltaBytes: st.MemAfter - st.MemBefore,
				Ratio:         st.Ratio,
				Candidates:    st.Candidates,
				Evaluated:     st.Evaluated,
			}
			if st.Replaced != nil {
				p.Replaced = st.Replaced.Key()
			}
			s.prov = append(s.prov, p)
		}
		finishStep(sp, stepStart, &s.steps[len(s.steps)-1], s.lastProv())
		s.opts.Progress.Update(func(p *telemetry.ProgressState) {
			p.Step, p.InitialCost, p.BestCost, p.MemoryBytes = len(s.steps), initial, curCost, curMem
			p.Evaluated, p.CacheServed, p.Pruned = int64(s.totalEvaluated), 0, 0
		})
	}
	res := &Result{
		Steps:       steps,
		Selection:   cur,
		InitialCost: initial,
		Cost:        curCost,
		Memory:      curMem,
		Evaluated:   s.totalEvaluated,
		Provenance:  s.prov,
		StopReason:  s.stopReason,
		Partial:     s.stopReason.Interrupted(),
	}
	logRun(res)
	return res, nil
}
