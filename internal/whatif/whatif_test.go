package whatif

import (
	"sync"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 2, 10, 20, 10_000
	return workload.MustGenerate(cfg)
}

func TestCachingAndCallCounting(t *testing.T) {
	w := testWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	o := New(m)
	q := w.Queries[0]
	k := workload.MustIndex(w, q.Attrs[0])

	c1 := o.CostWithIndex(q, k)
	if s := o.Stats(); s.Calls != 1 || s.CacheHits != 0 {
		t.Fatalf("after first call: %+v, want 1 call, 0 hits", s)
	}
	c2 := o.CostWithIndex(q, k)
	if c1 != c2 {
		t.Errorf("cached cost %v differs from original %v", c2, c1)
	}
	if s := o.Stats(); s.Calls != 1 || s.CacheHits != 1 {
		t.Errorf("after second call: %+v, want 1 call, 1 hit", s)
	}

	b1 := o.BaseCost(q)
	o.BaseCost(q)
	if s := o.Stats(); s.Calls != 2 || s.CacheHits != 2 {
		t.Errorf("after base calls: %+v, want 2 calls, 2 hits", s)
	}
	if b1 != m.BaseCost(q) {
		t.Errorf("BaseCost = %v, want %v", b1, m.BaseCost(q))
	}
}

func TestNonApplicableIsFree(t *testing.T) {
	w := testWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	o := New(m)
	q := w.Queries[0]
	// An index whose leading attribute is not in q: resolving it must cost
	// only the (cached) base call, not a what-if call per index.
	var lead int
	for _, a := range w.Tables[q.Table].Attrs {
		if !q.Accesses(a) {
			lead = a
			break
		}
	}
	o.BaseCost(q)
	before := o.Stats().Calls
	got := o.CostWithIndex(q, workload.MustIndex(w, lead))
	if got != o.BaseCost(q) {
		t.Errorf("non-applicable cost = %v, want base", got)
	}
	if after := o.Stats().Calls; after != before {
		t.Errorf("non-applicable index consumed %d what-if calls", after-before)
	}
}

func TestQueryCostCountsCalls(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	q := w.Queries[0]
	sel := workload.NewSelection(workload.MustIndex(w, q.Attrs[0]))
	o.QueryCost(q, sel)
	o.QueryCost(q, sel)
	if s := o.Stats(); s.Calls != 2 {
		t.Errorf("whole-selection calls = %d, want 2 (not cached)", s.Calls)
	}
}

func TestInvalidate(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	q0, q1 := w.Queries[0], w.Queries[1]
	k0 := workload.MustIndex(w, q0.Attrs[0])
	k1 := workload.MustIndex(w, q1.Attrs[0])
	o.BaseCost(q0)
	o.BaseCost(q1)
	o.CostWithIndex(q0, k0)
	o.CostWithIndex(q1, k1)
	calls := o.Stats().Calls

	o.Invalidate(q0)
	o.BaseCost(q0)
	o.CostWithIndex(q0, k0)
	if got := o.Stats().Calls; got != calls+2 {
		t.Errorf("after invalidate, calls = %d, want %d (both q0 entries refreshed)", got, calls+2)
	}
	o.BaseCost(q1)
	o.CostWithIndex(q1, k1)
	if got := o.Stats().Calls; got != calls+2 {
		t.Errorf("invalidate(q0) also dropped q1 entries: calls = %d", got)
	}
}

func TestResetStatsKeepsCache(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	q := w.Queries[0]
	o.BaseCost(q)
	resetStats(o)
	if s := o.Stats(); s.Calls != 0 || s.CacheHits != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
	o.BaseCost(q)
	if s := o.Stats(); s.Calls != 0 || s.CacheHits != 1 {
		t.Errorf("cache not preserved across ResetStats: %+v", s)
	}
}

// TestResetStatsPreservesPairCaches pins the full ResetStats contract for
// the sharded (query, index) caches: counters go to zero, but cached index
// costs, maintenance costs, and sizes keep being served without new
// underlying calls — and the occupancy snapshot still reflects them.
func TestResetStatsPreservesPairCaches(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	var indexed []workload.Index
	for _, q := range w.Queries[:8] {
		k := workload.MustIndex(w, q.Attrs[0])
		o.CostWithIndex(q, k)
		o.MaintenanceCost(q, k)
		o.IndexSize(k)
		indexed = append(indexed, k)
	}
	before := o.Stats()
	if before.Calls == 0 || before.IndexCacheEntries == 0 {
		t.Fatalf("setup produced no cached calls: %+v", before)
	}

	resetStats(o)
	after := o.Stats()
	if after.Calls != 0 || after.CacheHits != 0 {
		t.Fatalf("ResetStats left counters %+v", after)
	}
	if after.IndexCacheEntries != before.IndexCacheEntries ||
		after.DistinctIndexes != before.DistinctIndexes ||
		after.IndexShardEntries != before.IndexShardEntries {
		t.Errorf("ResetStats disturbed cache occupancy: before %+v after %+v", before, after)
	}

	// Re-reads are served entirely from the preserved caches.
	for i, q := range w.Queries[:8] {
		o.CostWithIndex(q, indexed[i])
	}
	if s := o.Stats(); s.Calls != 0 {
		t.Errorf("caches not preserved: %d fresh calls after reset", s.Calls)
	}
}

// TestStatsOccupancy checks the observability snapshot: distinct sized
// indexes and the sharded cost-cache population (total and per shard).
func TestStatsOccupancy(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	distinct := make(map[string]bool)
	entries := 0
	for _, q := range w.Queries {
		k := workload.MustIndex(w, q.Attrs[0])
		o.CostWithIndex(q, k) // one pair-cache entry per (q, lead index)
		o.IndexSize(k)
		distinct[k.Key()] = true
		entries++
	}
	s := o.Stats()
	if s.DistinctIndexes != len(distinct) {
		t.Errorf("DistinctIndexes = %d, want %d", s.DistinctIndexes, len(distinct))
	}
	if s.IndexCacheEntries != entries {
		t.Errorf("IndexCacheEntries = %d, want %d", s.IndexCacheEntries, entries)
	}
	sum := 0
	for _, n := range s.IndexShardEntries {
		sum += n
	}
	if sum != s.IndexCacheEntries {
		t.Errorf("shard occupancy sums to %d, want %d", sum, s.IndexCacheEntries)
	}
}

func TestIndexSizeCachedNotCounted(t *testing.T) {
	w := testWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	o := New(m)
	k := workload.MustIndex(w, 0, 1)
	s1 := o.IndexSize(k)
	s2 := o.IndexSize(k)
	if s1 != m.IndexSize(k) || s1 != s2 {
		t.Errorf("IndexSize = %d/%d, want %d", s1, s2, m.IndexSize(k))
	}
	if s := o.Stats(); s.Calls != 0 {
		t.Errorf("size lookups counted as what-if calls: %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range w.Queries {
				o.BaseCost(q)
				for _, a := range q.Attrs {
					o.CostWithIndex(q, workload.MustIndex(w, a))
				}
			}
		}()
	}
	wg.Wait()
	// Every distinct (query, applicable single index) pair plus base costs,
	// counted at most once each despite 8 goroutines... races on first
	// evaluation may double-count, but the cache must converge: re-reading
	// is all hits.
	before := o.Stats()
	for _, q := range w.Queries {
		o.BaseCost(q)
	}
	after := o.Stats()
	if after.Calls != before.Calls {
		t.Errorf("post-warm reads performed %d extra calls", after.Calls-before.Calls)
	}
}

// TestConcurrentValuesMatchSerial fills one optimizer from 8 goroutines and
// one serially, then compares every cached value — the sharded caches must
// not mix up keys or lose writes, across all four cached cost kinds.
func TestConcurrentValuesMatchSerial(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 3, 12, 30, 10_000
	cfg.WriteShare = 0.2
	w := workload.MustGenerate(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	serial, parallel := New(m), New(m)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Different goroutines start at different offsets so shards see
			// genuinely interleaved first-fills.
			for i := range w.Queries {
				q := w.Queries[(i+g*5)%len(w.Queries)]
				parallel.BaseCost(q)
				for _, a := range q.Attrs {
					k := workload.MustIndex(w, a)
					parallel.CostWithIndex(q, k)
					parallel.MaintenanceCost(q, k)
					parallel.IndexSize(k)
				}
			}
		}(g)
	}
	wg.Wait()

	for _, q := range w.Queries {
		if got, want := parallel.BaseCost(q), serial.BaseCost(q); got != want {
			t.Fatalf("BaseCost(%d) = %v, serial %v", q.ID, got, want)
		}
		for _, a := range q.Attrs {
			k := workload.MustIndex(w, a)
			if got, want := parallel.CostWithIndex(q, k), serial.CostWithIndex(q, k); got != want {
				t.Fatalf("CostWithIndex(%d, %v) = %v, serial %v", q.ID, k, got, want)
			}
			if got, want := parallel.MaintenanceCost(q, k), serial.MaintenanceCost(q, k); got != want {
				t.Fatalf("MaintenanceCost(%d, %v) = %v, serial %v", q.ID, k, got, want)
			}
			if got, want := parallel.IndexSize(k), serial.IndexSize(k); got != want {
				t.Fatalf("IndexSize(%v) = %v, serial %v", k, got, want)
			}
		}
	}
}

// resetStats zeroes the optimizer's call counters, keeping the caches.
func resetStats(o *Optimizer) {
	o.ctr.calls.Store(0)
	o.ctr.cacheHits.Store(0)
}
