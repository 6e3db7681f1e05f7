// Package whatif provides the what-if optimizer facade used by all selection
// strategies: a caching, call-counting wrapper around a cost source
// (Section II-C of the paper). The underlying source is either the
// reproducible Appendix-B cost model (package costmodel) or measured
// execution costs from the column-store engine (package engine) — selection
// algorithms are agnostic to which (Section IV-B).
//
// The optimizer is the one owner of prefix invariance (Section III-A): for a
// source whose CostWithIndex(q, k) reads only q and the coverable prefix
// U(q,k), every index sharing that prefix costs the same, so a probe of a
// longer index is served from the entry of its plan skeleton, the index over
// U(q,k) — INUM's reuse of one evaluation per plan (Papadomanolakis et al.,
// the paper's ref. [16]). Sources with measured costs declare it and are
// evaluated under every index they are asked about.
//
// Indexes are interned to dense uint32 IDs (workload.Interner) and every
// cache is a numeric table — open-addressed uint64-keyed shards for (query,
// index) costs, plain slices for base costs and sizes — so a cached probe
// does no string work at all. The original string-keyed map cache lives on
// as the differential oracle in package whatiftest, which only tests import;
// it implements identical caching semantics and call accounting.
package whatif

import (
	"sync/atomic"

	"repro/internal/workload"
)

// Source is the cost oracle a what-if optimizer wraps. Implementations must
// be deterministic for a given (query, index/selection) input.
//
// Unless it declares otherwise, a Source must be prefix-invariant: its
// CostWithIndex(q, k) may read only q and U(q,k) = workload.CoverablePrefix(q,
// k), as the Appendix-B model does, so that every index with the same prefix
// for q costs the same bits. The optimizer then serves such indexes from one
// skeleton entry, and core derives an extension's unchanged costs from the
// pre-extension index. A source whose costs can depend on key attributes
// beyond U(q,k), such as measured executions, implements
//
//	MeasuredCosts() bool
//
// returning true (engine.MeasuredSource does), and every (query, index) pair
// is then evaluated by the source itself. A wrapper that does not forward
// MeasuredCosts is treated as prefix-invariant.
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

// PrefixInvariant reports whether src's CostWithIndex depends only on the
// query and the coverable prefix: true unless src declares measured costs.
func PrefixInvariant(src Source) bool {
	m, ok := src.(interface{ MeasuredCosts() bool })
	return !ok || !m.MeasuredCosts()
}

// Stats aggregates what-if accounting. Calls is the paper's "number of
// what-if optimizer calls" (Section III-A, eq. (9)): distinct (query, index)
// probes, base-cost evaluations and whole-selection costs; cache hits are
// free re-reads of earlier calls. SourceCalls counts the evaluations the
// source actually ran: a probe served from its plan skeleton is a call but no
// source evaluation, so SourceCalls <= Calls. The remaining fields snapshot
// cache shape for observability: Stats() fills them from the retained caches.
type Stats struct {
	Calls       int64
	CacheHits   int64
	SourceCalls int64
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
// index) caches are sharded by query ID so that concurrent callers do not
// serialize on one lock: the selection loops are serial, but fleet workers
// whose tenants share one cluster's optimizer probe it at once. Call
// counters are atomics. The underlying Source is invoked outside any lock
// and must itself be safe for concurrent use (the Appendix-B cost model is
// stateless; the engine's measured source synchronizes internally).
//
// For a prefix-invariant source (see Source), a miss on (q, k) whose
// coverable prefix U(q,k) is shorter than k is served from the entry of the
// skeleton index over U(q,k) — filled by one source call if absent — and
// stored under (q, k) as well; every other miss is one source call. Calls
// counts distinct probes either way, SourceCalls the source evaluations.
//
// Concurrent misses on the same key may both evaluate the source; both
// results are identical (sources are deterministic), so the cache stays
// consistent — only the Calls and SourceCalls counters can exceed the
// distinct-evaluation count in that (rare) case.
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
	// invariant is PrefixInvariant(src), checked once: misses go through
	// their plan skeleton's entry.
	invariant bool

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
	calls       atomic.Int64
	cacheHits   atomic.Int64
	sourceCalls atomic.Int64
}

// New wraps src in a caching optimizer backed by the flat interned tables.
func New(src Source) *Optimizer {
	return &Optimizer{src: src, in: workload.NewInterner(), flat: &flatTables{},
		invariant: PrefixInvariant(src), ctr: &optCounters{}}
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
// Views must be built from the base optimizer, not from another view.
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

// PrefixInvariant reports whether the wrapped source's costs depend only on
// (query, U(q,k)); see Source. Callers deriving costs from that fact (core's
// extension costs) ask here rather than deciding for themselves.
func (o *Optimizer) PrefixInvariant() bool { return o.invariant }

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
	o.ctr.sourceCalls.Add(1)
	c := SanitizeCost(o.src.BaseCost(*q))
	o.flat.basePut(q.ID, c)
	return c
}

// costWithInterned serves f_q(k) for an applicable, canonical query. The
// first probe of a key is one call whether fill finds its value in a plan
// skeleton or asks the source.
func (o *Optimizer) costWithInterned(q *workload.Query, k workload.Index, id workload.IndexID) float64 {
	key := pairKeyOf(q.ID, id)
	shard := &o.flat.indexCache[shardOf(q.ID)]
	c, ok, skeleton := shard.get(key)
	if ok && !skeleton {
		o.ctr.cacheHits.Add(1)
		return c
	}
	o.ctr.calls.Add(1)
	if !ok {
		c = o.fill(q, k, shard)
	}
	o.flat.notePair(key)
	shard.put(key, c)
	return c
}

// fill computes f_q(k) for a key with no entry. For a prefix-invariant
// source and an index longer than U(q,k), that is the cost of the skeleton
// index over U(q,k): read from the skeleton's entry, or computed by one
// source call and stored there under the skeleton mark. Otherwise it is one
// source call for k itself. shard is q's shard, which holds both entries.
func (o *Optimizer) fill(q *workload.Query, k workload.Index, shard *flatShard) float64 {
	if o.invariant {
		if u := workload.CoverablePrefix(*q, k); len(u) < len(k.Attrs) {
			skel := workload.Index{Table: k.Table, Attrs: u}
			key := pairKeyOf(q.ID, o.in.Intern(skel))
			if c, ok, _ := shard.get(key); ok {
				return c
			}
			c := o.sourceCost(q, skel)
			o.flat.notePair(key)
			shard.put(key|skeletonBit, c)
			return c
		}
	}
	return o.sourceCost(q, k)
}

// sourceCost is one counted, sanitized source evaluation of f_q(k).
func (o *Optimizer) sourceCost(q *workload.Query, k workload.Index) float64 {
	o.ctr.sourceCalls.Add(1)
	return SanitizeCost(o.src.CostWithIndex(*q, k))
}

// QueryCost returns f_j(I*). Whole-selection evaluations are not cached
// (selections rarely repeat); each evaluation counts as one call.
func (o *Optimizer) QueryCost(q workload.Query, sel workload.Selection) float64 {
	o.ctr.calls.Add(1)
	o.ctr.sourceCalls.Add(1)
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
	if c, ok, _ := shard.get(key); ok {
		return c
	}
	c := SanitizeCost(o.src.MaintenanceCost(*q, k))
	o.flat.notePair(key)
	shard.put(key, c)
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

// Stats returns a snapshot of the call counters and cache occupancy.
func (o *Optimizer) Stats() Stats {
	s := Stats{
		Calls:           o.ctr.calls.Load(),
		CacheHits:       o.ctr.cacheHits.Load(),
		SourceCalls:     o.ctr.sourceCalls.Load(),
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
