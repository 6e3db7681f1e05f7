// Package whatiftest holds what-if test doubles. Reference is the
// string-keyed what-if cache that the flat, interned tables of package whatif
// replaced. It is the differential oracle for those tables: the same caching
// semantics, call accounting and sanitization over plain Go maps keyed by
// index key strings, so tests can run a whole selection over both and compare
// traces and Calls/CacheHits bit for bit. NoisySource perturbs a cost source
// for robustness tests, and Measured pins the optimizer's exact path on a
// prefix-invariant source. Only test code imports this package; a CI guard
// keeps it out of every shipped binary.
package whatiftest

import (
	"sync"
	"sync/atomic"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// mapEntryBytes approximates one Go map entry's amortized footprint (key,
// value, bucket share) for TableBytes.
const mapEntryBytes = 48

// Reference is the string-keyed caching what-if facade. It mirrors
// whatif.Optimizer's probe surface (minus interning, views and spilling) and
// is safe for concurrent use. It probes the source directly for every
// (query, index) key, with no plan-skeleton fill, so its Calls are the
// distinct probes the optimizer's Calls must equal and its values are the
// direct source calls the optimizer's must equal bit for bit.
type Reference struct {
	src       whatif.Source
	calls     atomic.Int64
	cacheHits atomic.Int64

	mu        sync.RWMutex    // guards baseCache and sizeCache
	baseCache map[int]float64 // query ID -> f_j(0)
	sizeCache map[string]int64

	indexCache [whatif.NumShards]pairShard // (query ID, index key) -> f_j(k)
	maintCache [whatif.NumShards]pairShard // (query ID, index key) -> maintenance
}

type pairKey struct {
	query int
	index string
}

type pairShard struct {
	mu sync.RWMutex
	m  map[pairKey]float64
}

func (s *pairShard) get(key pairKey) (float64, bool) {
	s.mu.RLock()
	c, ok := s.m[key]
	s.mu.RUnlock()
	return c, ok
}

func (s *pairShard) put(key pairKey, c float64) {
	s.mu.Lock()
	s.m[key] = c
	s.mu.Unlock()
}

// bytes estimates the shard's retained footprint; with reset set it also
// releases the shard's entries.
func (s *pairShard) bytes(reset bool) int64 {
	s.mu.Lock()
	var b int64
	for k := range s.m {
		b += int64(len(k.index)) + mapEntryBytes
	}
	if reset {
		s.m = make(map[pairKey]float64)
	}
	s.mu.Unlock()
	return b
}

// shardOf is whatif's query-ID shard spread (Fibonacci hashing), so the
// per-shard occupancy in Stats is comparable between the two caches.
func shardOf(query int) uint32 {
	return uint32((uint64(query)*11400714819323198485)>>32) & (whatif.NumShards - 1)
}

// New wraps src in a string-keyed caching reference.
func New(src whatif.Source) *Reference {
	r := &Reference{
		src:       src,
		baseCache: make(map[int]float64),
		sizeCache: make(map[string]int64),
	}
	for i := range r.indexCache {
		r.indexCache[i].m = make(map[pairKey]float64)
		r.maintCache[i].m = make(map[pairKey]float64)
	}
	return r
}

// PrefixInvariant reports what whatif.Optimizer.PrefixInvariant reports for
// the same source.
func (r *Reference) PrefixInvariant() bool { return whatif.PrefixInvariant(r.src) }

// BaseCost returns f_j(0), cached per query.
func (r *Reference) BaseCost(q workload.Query) float64 {
	r.mu.RLock()
	c, ok := r.baseCache[q.ID]
	r.mu.RUnlock()
	if ok {
		r.cacheHits.Add(1)
		return c
	}
	r.calls.Add(1)
	c = whatif.SanitizeCost(r.src.BaseCost(q))
	r.mu.Lock()
	r.baseCache[q.ID] = c
	r.mu.Unlock()
	return c
}

// CostWithIndex returns f_j(k), cached per (query, index key); a
// non-applicable index costs the (cached) base cost and no call.
func (r *Reference) CostWithIndex(q workload.Query, k workload.Index) float64 {
	if !workload.Applicable(q, k) {
		return r.BaseCost(q)
	}
	key := pairKey{q.ID, k.Key()}
	shard := &r.indexCache[shardOf(q.ID)]
	if c, ok := shard.get(key); ok {
		r.cacheHits.Add(1)
		return c
	}
	r.calls.Add(1)
	c := whatif.SanitizeCost(r.src.CostWithIndex(q, k))
	shard.put(key, c)
	return c
}

// QueryCost returns f_j(I*), uncached; each evaluation counts as one call.
func (r *Reference) QueryCost(q workload.Query, sel workload.Selection) float64 {
	r.calls.Add(1)
	return whatif.SanitizeCost(r.src.QueryCost(q, sel))
}

// MaintenanceCost returns the write-maintenance cost of (q, k), cached and
// not counted as a call.
func (r *Reference) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	if !q.Maintains(k) {
		return 0
	}
	key := pairKey{q.ID, k.Key()}
	shard := &r.maintCache[shardOf(q.ID)]
	if c, ok := shard.get(key); ok {
		return c
	}
	c := whatif.SanitizeCost(r.src.MaintenanceCost(q, k))
	shard.put(key, c)
	return c
}

// IndexSize returns p_k, cached per index key and not counted as a call.
func (r *Reference) IndexSize(k workload.Index) int64 {
	key := k.Key()
	r.mu.RLock()
	s, ok := r.sizeCache[key]
	r.mu.RUnlock()
	if ok {
		return s
	}
	s = whatif.SanitizeSize(r.src.IndexSize(k))
	r.mu.Lock()
	r.sizeCache[key] = s
	r.mu.Unlock()
	return s
}

// Stats returns the call counters and cache occupancy. InternedIndexes is
// always zero: the reference never interns.
func (r *Reference) Stats() whatif.Stats {
	s := whatif.Stats{Calls: r.calls.Load(), CacheHits: r.cacheHits.Load()}
	r.mu.RLock()
	s.DistinctIndexes = len(r.sizeCache)
	r.mu.RUnlock()
	for i := range r.indexCache {
		sh := &r.indexCache[i]
		sh.mu.RLock()
		n := len(sh.m)
		sh.mu.RUnlock()
		s.IndexShardEntries[i] = n
		s.IndexCacheEntries += n
	}
	return s
}

// TableBytes estimates the bytes retained by the reference's maps.
func (r *Reference) TableBytes() int64 { return r.tableBytes(false) }

// EvictTables releases every map and returns the estimated bytes freed; the
// call counters survive, as in whatif.Optimizer.EvictTables.
func (r *Reference) EvictTables() int64 { return r.tableBytes(true) }

func (r *Reference) tableBytes(reset bool) int64 {
	r.mu.Lock()
	b := int64(len(r.baseCache)) * mapEntryBytes
	for k := range r.sizeCache {
		b += int64(len(k)) + mapEntryBytes
	}
	if reset {
		r.baseCache = make(map[int]float64)
		r.sizeCache = make(map[string]int64)
	}
	r.mu.Unlock()
	for i := range r.indexCache {
		b += r.indexCache[i].bytes(reset)
		b += r.maintCache[i].bytes(reset)
	}
	return b
}
