// Package whatif provides the what-if optimizer facade used by all selection
// strategies: a caching, call-counting wrapper around a cost source
// (Section II-C of the paper). The underlying source is either the
// reproducible Appendix-B cost model (package costmodel) or measured
// execution costs from the column-store engine (package engine) — selection
// algorithms are agnostic to which (Section IV-B).
//
// Indexes are interned to dense uint32 IDs (workload.Interner) and every
// cache is a numeric table — open-addressed uint64-keyed shards for (query,
// index) costs, plain slices for base costs and sizes — so a cached probe
// does no string work at all. The original string-keyed map cache lives on
// as the differential oracle in package whatiftest, which only tests import;
// it implements identical caching semantics and call accounting.
package whatif

import (
	"context"
	"log/slog"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Source is the cost oracle a what-if optimizer wraps. Implementations must
// be deterministic for a given (query, index/selection) input.
type Source interface {
	// BaseCost returns f_j(0), the cost of query q with no index.
	BaseCost(q workload.Query) float64
	// CostWithIndex returns f_j(k), the cost of q using only index k.
	CostWithIndex(q workload.Query, k workload.Index) float64
	// QueryCost returns f_j(I*) for a whole selection.
	QueryCost(q workload.Query, sel workload.Selection) float64
	// MaintenanceCost returns the per-execution index-maintenance cost that
	// write query q adds for index k; zero for reads and untouched indexes.
	MaintenanceCost(q workload.Query, k workload.Index) float64
	// IndexSize returns p_k in bytes.
	IndexSize(k workload.Index) int64
}

// Stats aggregates what-if accounting. Calls counts distinct underlying cost
// evaluations — the paper's "number of what-if optimizer calls"; cache hits
// are free re-reads of earlier calls. The remaining fields snapshot cache
// shape for observability: they are filled by Stats() and zeroed neither by
// ResetStats (they describe retained caches, not counters) nor by use.
type Stats struct {
	Calls     int64
	CacheHits int64
	// DistinctIndexes is the number of distinct indexes whose size has been
	// served — the advisor's touched index universe.
	DistinctIndexes int
	// InternedIndexes is the population of the optimizer's index interner:
	// every distinct index identity that crossed the facade.
	InternedIndexes int
	// IndexCacheEntries is the total (query, index) cost-cache population,
	// i.e. the sum over IndexShardEntries.
	IndexCacheEntries int
	// IndexShardEntries is the per-shard occupancy of the sharded
	// (query, index) cost cache; skew here means worker goroutines contend.
	IndexShardEntries [NumShards]int
}

// NumShards is the shard count of the pair-keyed caches, exported for the
// Stats occupancy array.
const NumShards = optShards

// optShards is the shard count of the pair-keyed caches; a power of two well
// above any realistic GOMAXPROCS keeps contention negligible.
const optShards = 32

// Compile-time assertion that optShards is a power of two, which shardOf's
// mask and the flat shards' probe masks rely on.
var _ [0]struct{} = [optShards & (optShards - 1)]struct{}{}

// shardOf spreads query IDs over the shards (Fibonacci hashing so that
// consecutive IDs — the common access pattern — do not clump).
func shardOf(query int) uint32 {
	return uint32((uint64(query)*11400714819323198485)>>32) & (optShards - 1)
}

// Optimizer is a concurrency-safe caching what-if facade. The per-(query,
// index) caches are sharded by query ID so that the parallel candidate
// evaluator's worker goroutines do not serialize on one lock; call counters
// are atomics. The underlying Source is invoked outside any lock and must
// itself be safe for concurrent use (the Appendix-B cost model is stateless;
// the engine's measured source synchronizes internally).
//
// Concurrent misses on the same key may both evaluate the source; both
// results are identical (sources are deterministic), so the cache stays
// consistent — only the Calls counter can exceed the distinct-evaluation
// count in that (rare) case.
//
// Every value a Source returns is sanitized before caching (see sanitize.go):
// NaN/±Inf/negative costs and negative sizes are clamped and counted in
// indexsel_cost_anomalies_total, so a broken estimator cannot poison the gain
// cache or the frontier. The whatiftest oracle applies the identical
// sanitization, keeping the differential-oracle contract intact.
type Optimizer struct {
	src  Source
	in   *workload.Interner
	flat *flatTables

	// ctr is shared between an optimizer and all its Views, so fleet-wide
	// call accounting stays in one place no matter which tenant view probed.
	ctr *optCounters

	// canon, when non-nil, marks this optimizer as a tenant View over a
	// shared cluster cache: canon[j] is the cluster-superset template that
	// tenant-local query ID j corresponds to. Every probe canonicalizes its
	// query first, so both the cache key and the source call use the
	// superset identity (see View).
	canon []workload.Query
}

// optCounters is the shared call accounting of an optimizer and its views.
type optCounters struct {
	calls     atomic.Int64
	cacheHits atomic.Int64
}

// New wraps src in a caching optimizer backed by the flat interned tables.
func New(src Source) *Optimizer {
	return &Optimizer{src: src, in: workload.NewInterner(), flat: &flatTables{}, ctr: &optCounters{}}
}

// View returns an optimizer that shares o's caches, interner, call counters
// and source, but serves a tenant whose query templates are a SUBSET of the
// shared (cluster-superset) template space: canon[j] must be the superset
// template — carrying the superset query ID — that the tenant's query ID j
// structurally equals (same table, kind and attribute set; frequency and
// names are free). Every probe through the view substitutes the canonical
// query before touching the cache or the source, so all member tenants of a
// cluster read and write the same (superset template, index) entries with
// identical values: per-execution what-if costs never read frequencies, which
// is what makes subset-level reuse exact (cf. CoPhy's per-query/per-index
// cost decomposition).
//
// Views must be built from the base optimizer, not from another view, and
// MUST NOT be used with context-dependent sources (multi-index mode), whose
// Invalidate patterns are tenant-specific.
func (o *Optimizer) View(canon []workload.Query) *Optimizer {
	if o.canon != nil {
		panic("whatif: View of a View; build views from the base optimizer")
	}
	v := *o
	v.canon = canon
	return &v
}

// canonical maps q to its shared-cluster superset template when o is a View;
// the identity otherwise.
func (o *Optimizer) canonical(q *workload.Query) *workload.Query {
	if o.canon != nil {
		return &o.canon[q.ID]
	}
	return q
}

// Source returns the wrapped cost source.
func (o *Optimizer) Source() Source { return o.src }

// Interner returns the optimizer's index interner. Callers that hold an
// index for many probes (the core selector, the greedy heuristics) intern it
// once and use the *Interned methods, skipping the per-probe lookup; those
// take the query by pointer, so a probe copies no Query.
func (o *Optimizer) Interner() *workload.Interner { return o.in }

// BaseCost returns f_j(0), cached per query.
func (o *Optimizer) BaseCost(q workload.Query) float64 {
	return o.baseCostCanonical(o.canonical(&q))
}

// CostWithIndex returns f_j(k), cached per (query, index). Non-applicable
// indexes short-circuit to the base cost without consuming a what-if call,
// mirroring the paper's observation that only coverable queries need
// re-evaluation.
func (o *Optimizer) CostWithIndex(q workload.Query, k workload.Index) float64 {
	cq := o.canonical(&q)
	if !workload.Applicable(*cq, k) {
		return o.baseCostCanonical(cq)
	}
	return o.costWithInterned(cq, k, o.in.Intern(k))
}

// CostWithInterned is CostWithIndex for a pre-interned index: id must be
// o.Interner()'s ID for k.
func (o *Optimizer) CostWithInterned(q *workload.Query, k workload.Index, id workload.IndexID) float64 {
	q = o.canonical(q)
	if !workload.Applicable(*q, k) {
		return o.baseCostCanonical(q)
	}
	return o.costWithInterned(q, k, id)
}

// baseCostCanonical is BaseCost for a query that is already canonical;
// splitting it out keeps the applicability short-circuit from canonicalizing
// twice.
func (o *Optimizer) baseCostCanonical(q *workload.Query) float64 {
	if c, ok := o.flat.baseGet(q.ID); ok {
		o.ctr.cacheHits.Add(1)
		return c
	}
	o.ctr.calls.Add(1)
	c := SanitizeCost(o.src.BaseCost(*q))
	o.flat.basePut(q.ID, c)
	return c
}

func (o *Optimizer) costWithInterned(q *workload.Query, k workload.Index, id workload.IndexID) float64 {
	key := pairKeyOf(q.ID, id)
	shard := &o.flat.indexCache[shardOf(q.ID)]
	if c, ok := shard.get(key); ok {
		o.ctr.cacheHits.Add(1)
		return c
	}
	o.ctr.calls.Add(1)
	c := SanitizeCost(o.src.CostWithIndex(*q, k))
	o.flat.notePair(key)
	shard.put(q.ID, key, c)
	return c
}

// QueryCost returns f_j(I*). Whole-selection evaluations are not cached
// (selections rarely repeat); each evaluation counts as one call.
func (o *Optimizer) QueryCost(q workload.Query, sel workload.Selection) float64 {
	o.ctr.calls.Add(1)
	return SanitizeCost(o.src.QueryCost(*o.canonical(&q), sel))
}

// MaintenanceCost returns the write-maintenance cost of (q, k), cached.
// Maintenance estimates are catalog/structure formulas, not optimizer
// plan evaluations, and are not counted as what-if calls.
func (o *Optimizer) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	cq := o.canonical(&q)
	if !cq.Maintains(k) {
		return 0
	}
	return o.maintInterned(cq, k, o.in.Intern(k))
}

// MaintenanceCostInterned is MaintenanceCost for a pre-interned index.
func (o *Optimizer) MaintenanceCostInterned(q *workload.Query, k workload.Index, id workload.IndexID) float64 {
	q = o.canonical(q)
	if !q.Maintains(k) {
		return 0
	}
	return o.maintInterned(q, k, id)
}

func (o *Optimizer) maintInterned(q *workload.Query, k workload.Index, id workload.IndexID) float64 {
	key := pairKeyOf(q.ID, id)
	shard := &o.flat.maintCache[shardOf(q.ID)]
	if c, ok := shard.get(key); ok {
		return c
	}
	c := SanitizeCost(o.src.MaintenanceCost(*q, k))
	o.flat.notePair(key)
	shard.put(q.ID, key, c)
	return c
}

// IndexSize returns p_k, cached per index. Size lookups are catalog reads,
// not what-if calls, and are not counted.
func (o *Optimizer) IndexSize(k workload.Index) int64 {
	return o.IndexSizeInterned(k, o.in.Intern(k))
}

// IndexSizeInterned is IndexSize for a pre-interned index.
func (o *Optimizer) IndexSizeInterned(k workload.Index, id workload.IndexID) int64 {
	if s, ok := o.flat.sizeGet(id); ok {
		return s
	}
	s := SanitizeSize(o.src.IndexSize(k))
	o.flat.sizePut(id, s)
	return s
}

// Invalidate drops all cached costs for query q. Used in multi-index mode
// (Remark 2) when the current selection changes the context earlier calls
// were made under. It walks only q's recorded entries (O(entries for q)).
func (o *Optimizer) Invalidate(q workload.Query) {
	id := o.canonical(&q).ID
	o.flat.baseDrop(id)
	shard := shardOf(id)
	dropped := o.flat.indexCache[shard].invalidate(id) +
		o.flat.maintCache[shard].invalidate(id)
	if lg := telemetry.L(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("whatif cache invalidated", "query", id, "entries_dropped", dropped)
	}
}

// Stats returns a snapshot of the call counters and cache occupancy.
func (o *Optimizer) Stats() Stats {
	s := Stats{
		Calls:           o.ctr.calls.Load(),
		CacheHits:       o.ctr.cacheHits.Load(),
		InternedIndexes: o.in.Len(),
	}
	o.flat.mu.RLock()
	s.DistinctIndexes = o.flat.sizeCount
	o.flat.mu.RUnlock()
	for i := range o.flat.indexCache {
		n := o.flat.indexCache[i].len()
		s.IndexShardEntries[i] = n
		s.IndexCacheEntries += n
	}
	return s
}

// ResetStats zeroes the call counters, keeping the caches.
func (o *Optimizer) ResetStats() {
	o.ctr.calls.Store(0)
	o.ctr.cacheHits.Store(0)
}
