package engine

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Index-build telemetry (default registry). Builds are the largest single
// share of measured-cost advisor time, so they are worth journaling
// individually; execution paths stay uninstrumented (they run millions of
// times).
var (
	mBuilds = telemetry.Default().Counter("indexsel_engine_index_builds_total",
		"Secondary indexes physically built by the measured source.")
	mBuildDur = telemetry.Default().Histogram("indexsel_engine_index_build_duration_seconds",
		"Wall time per secondary-index build.", nil)
	mDedupWaits = telemetry.Default().Counter("indexsel_engine_build_dedup_waits_total",
		"Index requests that waited on another goroutine's in-flight build instead of duplicating it.")
)

// MeasuredSource adapts the engine to the whatif.Source interface: query
// costs are obtained by actually executing the instantiated queries under
// the requested index, exactly like the paper's end-to-end methodology of
// running every query under every candidate instead of trusting a cost model
// (Section IV-B).
//
// By default the cost is the deterministic bytes-touched metric. With
// UseWallTime the cost is the minimum wall-clock time over Repeats runs
// (the paper repeats each measurement >= 100 times); wall time is realistic
// but machine-dependent, so tests and recorded experiments use bytes.
//
// MeasuredSource is safe for concurrent use: the column data is immutable
// after New, executors keep per-run state only, and index builds are
// deduplicated under an internal lock. Note that with UseWallTime a fleet run
// with several workers (FleetOptions.Workers > 1) measures queries under CPU
// contention from sibling tenants; the bytes metric is unaffected.
type MeasuredSource struct {
	db *DB
	// Repeats is how often each (query, index) execution is repeated when
	// UseWallTime is set (minimum taken). Default 3.
	Repeats int
	// UseWallTime switches the cost metric from bytes touched to wall time
	// in nanoseconds.
	UseWallTime bool

	queries []PointQuery
	seed    int64

	// bc holds the built-index cache, shared between a source and every
	// rebinding made with ForWorkload so a physical index is built once per
	// database no matter which template space requested it.
	bc *buildCache
}

// buildCache is the sharable half of a measured source: interned index
// identities, built secondary indexes, and in-flight build deduplication.
type buildCache struct {
	// in canonicalizes index identities so the cache is keyed by dense IDs —
	// one Intern per request instead of a Key() string build.
	in *workload.Interner

	mu       sync.Mutex
	indexes  map[workload.IndexID]*SecondaryIndex
	building map[workload.IndexID]chan struct{} // in-flight builds, closed when done
}

// NewMeasuredSource instantiates every workload template into an executable
// point query (seeded deterministically) and returns the measured source.
func NewMeasuredSource(db *DB, seed int64) *MeasuredSource {
	ms := &MeasuredSource{
		db:      db,
		Repeats: 3,
		seed:    seed,
		bc: &buildCache{
			in:       workload.NewInterner(),
			indexes:  make(map[workload.IndexID]*SecondaryIndex),
			building: make(map[workload.IndexID]chan struct{}),
		},
	}
	for _, q := range db.w.Queries {
		ms.queries = append(ms.queries, db.Instantiate(q, seed))
	}
	return ms
}

// ForWorkload rebinds the source to a different template space over the SAME
// database: w must share the database's schema (tables, attributes) but may
// carry different query templates — the near-match fleet path uses this to
// build a cluster-superset source whose point queries are instantiated under
// superset template IDs. The built-index cache (and its in-flight
// deduplication) is shared with the receiver, so physical indexes are built
// once per database across all rebindings; Repeats/UseWallTime settings are
// inherited.
func (ms *MeasuredSource) ForWorkload(w *workload.Workload) *MeasuredSource {
	out := &MeasuredSource{
		db:          ms.db,
		Repeats:     ms.Repeats,
		UseWallTime: ms.UseWallTime,
		seed:        ms.seed,
		bc:          ms.bc,
	}
	for _, q := range w.Queries {
		out.queries = append(out.queries, ms.db.Instantiate(q, ms.seed))
	}
	return out
}

// index returns the (cached) built secondary index for k. Index construction
// is the largest single share of measured-cost advisor time (about 30% of
// the CPU of a near-match fleet since builds became a counting sort, 80%
// before), so concurrent requests for the same key are deduplicated: the
// first caller builds, later callers wait on the in-flight build instead of
// sorting a duplicate permutation.
func (ms *MeasuredSource) index(k workload.Index) *SecondaryIndex {
	bc := ms.bc
	id := bc.in.Intern(k)
	for {
		bc.mu.Lock()
		if ix, ok := bc.indexes[id]; ok {
			bc.mu.Unlock()
			return ix
		}
		if inflight, ok := bc.building[id]; ok {
			bc.mu.Unlock()
			mDedupWaits.Inc()
			<-inflight
			continue
		}
		done := make(chan struct{})
		bc.building[id] = done
		bc.mu.Unlock()

		// If the build panics (a corrupt index spec, a bug in the sort), the
		// in-flight entry must not leak: waiters parked on done would hang
		// forever and every later request for this id would join them. Clean
		// up, release the waiters (they will retry and re-panic or succeed),
		// and let the panic continue to the strategy-level recovery.
		ok := false
		defer func() {
			if !ok {
				bc.mu.Lock()
				delete(bc.building, id)
				bc.mu.Unlock()
				close(done)
			}
		}()

		start := time.Now()
		built := ms.db.BuildIndex(k)
		ok = true
		elapsed := time.Since(start)
		mBuilds.Inc()
		mBuildDur.Observe(elapsed.Seconds())
		if lg := telemetry.L(); lg.Enabled(context.Background(), slog.LevelDebug) {
			lg.Debug("engine index built",
				"index", k.Key(), "bytes", built.SizeBytes(), "elapsed", elapsed)
		}
		bc.mu.Lock()
		bc.indexes[id] = built
		delete(bc.building, id)
		bc.mu.Unlock()
		close(done)
		return built
	}
}

// measure executes the query under the given executor per the source's
// metric settings.
func (ms *MeasuredSource) measure(e *Executor, pq PointQuery) float64 {
	if !ms.UseWallTime {
		m := e.Run(pq)
		return float64(m.BytesTouched)
	}
	repeats := ms.Repeats
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < repeats; i++ {
		if m := e.Run(pq); m.Elapsed < best {
			best = m.Elapsed
		}
	}
	if best < 1 {
		best = 1
	}
	return float64(best)
}

// point returns the point query instantiated for template q. A probe for a
// template the source was not instantiated for — another ID, table or
// attribute list at q.ID — would silently measure some other query, so it
// panics instead, like BuildIndex on a bad index spec; the strategy-level
// recovery turns that into a *WorkerPanicError.
func (ms *MeasuredSource) point(q workload.Query) PointQuery {
	if q.ID >= 0 && q.ID < len(ms.queries) {
		pq := ms.queries[q.ID]
		same := pq.Table == q.Table && len(pq.Preds) == len(q.Attrs)
		for i := 0; same && i < len(q.Attrs); i++ {
			same = pq.Preds[i].Attr == q.Attrs[i]
		}
		if same {
			return pq
		}
	}
	panic(fmt.Sprintf("engine: measured source was not instantiated for template %d (table %d, attrs %v); "+
		"rebind it to the workload with ForWorkload", q.ID, q.Table, q.Attrs))
}

// BaseCost implements whatif.Source: execution with no indexes.
func (ms *MeasuredSource) BaseCost(q workload.Query) float64 {
	return ms.measure(NewExecutor(ms.db), ms.point(q))
}

// CostWithIndex implements whatif.Source: execution with only index k
// available.
func (ms *MeasuredSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	if !workload.Applicable(q, k) {
		return ms.BaseCost(q)
	}
	pq := ms.point(q)
	return ms.measure(NewExecutor(ms.db, ms.index(k)), pq)
}

// MeasuredCosts declares the costs measured (see whatif.Source): an
// execution under k reads k's whole key, not only the prefix the query can
// use, so the what-if optimizer evaluates every (query, index) pair here.
func (ms *MeasuredSource) MeasuredCosts() bool { return true }

// QueryCost implements whatif.Source in the single-index setting of
// Example 1 (i): the best of the base execution and each selected index.
func (ms *MeasuredSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	best := ms.BaseCost(q)
	for _, k := range sel {
		if !workload.Applicable(q, k) {
			continue
		}
		if c := ms.CostWithIndex(q, k); c < best {
			best = c
		}
	}
	return best
}

// MaintenanceCost implements whatif.Source. The engine is read-only, so
// maintenance is modeled from its physical structures rather than executed:
// a binary-search descent over the sorted permutation (log2 n steps reading
// a 4-byte position plus the compared key bytes), writing the key bytes and
// one 4-byte position entry; updates pay delete + re-insert.
func (ms *MeasuredSource) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	if !q.Maintains(k) {
		return 0
	}
	n := float64(ms.db.w.Tables[k.Table].Rows)
	var keyBytes float64
	for _, a := range k.Attrs {
		keyBytes += float64(ms.db.w.Attr(a).ValueSize)
	}
	steps := math.Log2(n)
	if steps < 1 {
		steps = 1
	}
	cost := steps*(4+keyBytes) + keyBytes + 4
	if q.Kind == workload.Update {
		cost *= 2
	}
	return cost
}

// IndexSize implements whatif.Source with the engine's physical index size.
func (ms *MeasuredSource) IndexSize(k workload.Index) int64 {
	return ms.index(k).SizeBytes()
}

// SingleAttrBudget mirrors costmodel.SingleAttrBudget for the engine's
// physical sizes: the total memory of all single-attribute indexes, the
// budget base of eq. (10).
func (ms *MeasuredSource) SingleAttrBudget() int64 {
	var total int64
	for _, a := range ms.db.w.Attrs() {
		rows := ms.db.w.Tables[a.Table].Rows
		total += 4*rows + int64(a.ValueSize)*rows
	}
	return total
}

// Budget returns A(w) = share * SingleAttrBudget.
func (ms *MeasuredSource) Budget(share float64) int64 {
	return int64(share * float64(ms.SingleAttrBudget()))
}
