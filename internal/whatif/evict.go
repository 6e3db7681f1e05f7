package whatif

// Table retention accounting and eviction, the whatif half of fleet mode's
// global memory budget (internal/fleet.TableBudget). A fleet keeps one
// optimizer per tenant cluster; idle clusters' tables can be released and
// rebuilt on demand because every cached value is a deterministic function of
// the source — eviction trades repeated what-if calls for bounded resident
// bytes, never correctness. The interner and the call counters survive
// eviction: interned IDs must stay stable for callers holding them across an
// evict/rebuild cycle, and counters are cumulative accounting, not cache
// state.
//
// Byte figures are deterministic estimates of retained table memory (slot
// arrays and per-ID slices), not measured RSS: the budget layer
// needs a consistent, platform-independent measure to compare against a
// configured ceiling, and the same estimator is used on both sides of that
// comparison.

// flatSlotBytes is one open-addressed slot: uint64 key + float64 value.
const flatSlotBytes = 16

// TableBytes estimates the heap bytes retained by the optimizer's cost
// tables (base costs, (query, index) cost and maintenance shards, and the size
// table). The estimate is deterministic for a given
// probe history and is the measure the fleet's TableBudget enforces.
func (o *Optimizer) TableBytes() int64 {
	t := o.flat
	t.mu.RLock()
	b := int64(len(t.base))*8 + int64(len(t.baseSet)) + int64(len(t.sizes))*8
	t.mu.RUnlock()
	for i := range t.indexCache {
		b += t.indexCache[i].bytes()
		b += t.maintCache[i].bytes()
	}
	return b
}

// EvictTables releases every cost table in place and returns the estimated
// bytes freed (the TableBytes value at the moment of eviction). Subsequent
// probes miss and re-evaluate the source, repopulating the tables with
// identical values (sources are deterministic); the interner and call
// counters are retained. Safe for concurrent use with probes: each table is
// cleared under its own lock, so a concurrent reader sees either the old
// entries or a miss, never a torn table.
func (o *Optimizer) EvictTables() int64 {
	t := o.flat
	t.mu.Lock()
	b := int64(len(t.base))*8 + int64(len(t.baseSet)) + int64(len(t.sizes))*8
	t.base, t.baseSet, t.sizes = nil, nil, nil
	t.sizeCount = 0
	t.mu.Unlock()
	for i := range t.indexCache {
		b += t.indexCache[i].clear()
		b += t.maintCache[i].clear()
	}
	return b
}

// bytes estimates the shard's retained footprint: its slot arrays.
func (s *flatShard) bytes() int64 {
	s.mu.RLock()
	b := int64(len(s.keys)) * flatSlotBytes
	s.mu.RUnlock()
	return b
}

// clear releases the shard's tables in place and returns the bytes freed.
func (s *flatShard) clear() int64 {
	s.mu.Lock()
	b := int64(len(s.keys)) * flatSlotBytes
	s.keys, s.vals, s.live = nil, nil, 0
	s.mu.Unlock()
	return b
}
