package whatif_test

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// The flat-table Optimizer (whatif.New) and the string-keyed test oracle
// (whatiftest.New) implement one contract; every semantic test here runs
// against both, so a regression in either — or a divergence between them —
// fails by name.

// backend is the probe surface both caches share.
type backend interface {
	BaseCost(q workload.Query) float64
	CostWithIndex(q workload.Query, k workload.Index) float64
	QueryCost(q workload.Query, sel workload.Selection) float64
	MaintenanceCost(q workload.Query, k workload.Index) float64
	IndexSize(k workload.Index) int64
	Invalidate(q workload.Query)
	Stats() whatif.Stats
	TableBytes() int64
	EvictTables() int64
}

func newFlat(src whatif.Source) backend      { return whatif.New(src) }
func newReference(src whatif.Source) backend { return whatiftest.New(src) }

func forEachBackend(t *testing.T, run func(t *testing.T, mk func(whatif.Source) backend)) {
	t.Run("flat", func(t *testing.T) { run(t, newFlat) })
	t.Run("reference", func(t *testing.T) { run(t, newReference) })
}

func TestBackendsCachingSemantics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		m := costmodel.New(w, costmodel.SingleIndex)
		o := mk(m)
		q := w.Queries[0]
		k := workload.MustIndex(w, q.Attrs[0])

		c1 := o.CostWithIndex(q, k)
		c2 := o.CostWithIndex(q, k)
		if c1 != c2 || c1 != m.CostWithIndex(q, k) {
			t.Errorf("cost %v/%v, model %v", c1, c2, m.CostWithIndex(q, k))
		}
		if s := o.Stats(); s.Calls != 1 || s.CacheHits != 1 {
			t.Errorf("pair cache accounting %+v, want 1 call 1 hit", s)
		}
		o.BaseCost(q)
		o.BaseCost(q)
		if s := o.Stats(); s.Calls != 2 || s.CacheHits != 2 {
			t.Errorf("base accounting %+v, want 2 calls 2 hits", s)
		}
		o.MaintenanceCost(q, k)
		o.IndexSize(k)
		if s := o.Stats(); s.Calls != 2 {
			t.Errorf("maintenance/size counted as calls: %+v", s)
		}
	})
}

func TestBackendsNonApplicableIsFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		o := mk(costmodel.New(w, costmodel.SingleIndex))
		q := w.Queries[0]
		var lead int
		for _, a := range w.Tables[q.Table].Attrs {
			if !q.Accesses(a) {
				lead = a
				break
			}
		}
		o.BaseCost(q)
		before := o.Stats().Calls
		if got := o.CostWithIndex(q, workload.MustIndex(w, lead)); got != o.BaseCost(q) {
			t.Errorf("non-applicable cost %v, want base", got)
		}
		if after := o.Stats().Calls; after != before {
			t.Errorf("non-applicable consumed %d calls", after-before)
		}
	})
}

func TestBackendsInvalidate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		o := mk(costmodel.New(w, costmodel.SingleIndex))
		q0, q1 := w.Queries[0], w.Queries[1]
		k0 := workload.MustIndex(w, q0.Attrs[0])
		k1 := workload.MustIndex(w, q1.Attrs[0])
		o.BaseCost(q0)
		o.BaseCost(q1)
		o.CostWithIndex(q0, k0)
		o.CostWithIndex(q1, k1)
		entries := o.Stats().IndexCacheEntries
		calls := o.Stats().Calls

		o.Invalidate(q0)
		if got := o.Stats().IndexCacheEntries; got != entries-1 {
			t.Errorf("occupancy after invalidate = %d, want %d", got, entries-1)
		}
		o.BaseCost(q0)
		o.CostWithIndex(q0, k0)
		if got := o.Stats().Calls; got != calls+2 {
			t.Errorf("q0 refresh calls = %d, want %d", got, calls+2)
		}
		o.BaseCost(q1)
		o.CostWithIndex(q1, k1)
		if got := o.Stats().Calls; got != calls+2 {
			t.Errorf("invalidate leaked into q1: calls = %d", got)
		}
	})
}

func TestBackendsOccupancyAgrees(t *testing.T) {
	w := whatif.SmallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	flat, ref := whatif.New(m), whatiftest.New(m)
	for _, o := range []backend{flat, ref} {
		for _, q := range w.Queries {
			k := workload.MustIndex(w, q.Attrs[0])
			o.CostWithIndex(q, k)
			o.MaintenanceCost(q, k)
			o.IndexSize(k)
		}
	}
	fs, rs := flat.Stats(), ref.Stats()
	if fs.Calls != rs.Calls || fs.CacheHits != rs.CacheHits {
		t.Errorf("call accounting diverges: flat %+v vs reference %+v", fs, rs)
	}
	if fs.IndexCacheEntries != rs.IndexCacheEntries {
		t.Errorf("occupancy diverges: flat %d vs reference %d", fs.IndexCacheEntries, rs.IndexCacheEntries)
	}
	if fs.IndexShardEntries != rs.IndexShardEntries {
		t.Errorf("shard layout diverges:\nflat %v\nref  %v", fs.IndexShardEntries, rs.IndexShardEntries)
	}
	if fs.DistinctIndexes != rs.DistinctIndexes {
		t.Errorf("distinct sized indexes: flat %d vs reference %d", fs.DistinctIndexes, rs.DistinctIndexes)
	}
	if fs.InternedIndexes == 0 {
		t.Error("flat backend reports zero interned indexes after sizing")
	}
}

// populate probes a spread of base, index, maintenance and size entries and
// returns the values for later comparison.
func populate(o backend, w *workload.Workload) map[string]float64 {
	vals := make(map[string]float64)
	for _, q := range w.Queries {
		id := strconv.Itoa(q.ID)
		vals["base:"+id] = o.BaseCost(q)
		for _, a := range q.Attrs {
			k := workload.MustIndex(w, a)
			vals["cost:"+id+":"+k.Key()] = o.CostWithIndex(q, k)
			vals["maint:"+id+":"+k.Key()] = o.MaintenanceCost(q, k)
			vals["size:"+k.Key()] = float64(o.IndexSize(k))
		}
	}
	return vals
}

func TestEvictTablesRebuildIdentical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		o := mk(costmodel.New(w, costmodel.SingleIndex))

		if o.TableBytes() != 0 {
			t.Fatalf("fresh optimizer retains %d table bytes", o.TableBytes())
		}
		before := populate(o, w)
		occupied := o.TableBytes()
		if occupied <= 0 {
			t.Fatal("populated optimizer reports no table bytes")
		}
		callsBefore := o.Stats().Calls

		freed := o.EvictTables()
		if freed != occupied {
			t.Fatalf("EvictTables freed %d bytes, TableBytes reported %d", freed, occupied)
		}
		if after := o.TableBytes(); after != 0 {
			t.Fatalf("after eviction %d table bytes remain", after)
		}
		if got := o.Stats().Calls; got != callsBefore {
			t.Fatalf("eviction changed call counter: %d -> %d", callsBefore, got)
		}

		// Rebuild on demand: every probe must return the identical value.
		after := populate(o, w)
		if len(after) != len(before) {
			t.Fatalf("rebuild produced %d entries, want %d", len(after), len(before))
		}
		for k, v := range before {
			if after[k] != v {
				t.Fatalf("entry %s changed across eviction: %v -> %v", k, v, after[k])
			}
		}
		// The rebuild hit the source again (cold misses), so calls grew.
		if got := o.Stats().Calls; got <= callsBefore {
			t.Fatalf("rebuild consumed no source calls (%d -> %d)", callsBefore, got)
		}
		if o.TableBytes() != occupied {
			t.Fatalf("rebuilt footprint %d differs from original %d", o.TableBytes(), occupied)
		}
	})
}

func TestTableBytesMonotoneUnderProbes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		o := mk(costmodel.New(w, costmodel.SingleIndex))
		var prev int64
		for i, q := range w.Queries {
			o.BaseCost(q)
			k := workload.MustIndex(w, q.Attrs[0])
			o.CostWithIndex(q, k)
			if b := o.TableBytes(); b < prev {
				t.Fatalf("TableBytes shrank under inserts at query %d: %d -> %d", i, prev, b)
			} else {
				prev = b
			}
		}
	})
}

func TestSanitizeCostBoundary(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want float64
	}{
		{"nan", math.NaN(), whatif.CostCap},
		{"plus-inf", math.Inf(1), whatif.CostCap},
		{"minus-inf", math.Inf(-1), 0},
		{"negative", -12.5, 0},
		{"over-cap", whatif.CostCap * 10, whatif.CostCap},
		{"zero", 0, 0},
		{"normal", 42.5, 42.5},
	}
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		model := costmodel.New(w, costmodel.SingleIndex)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				o := mk(whatif.BadSource{Source: model, Cost: tc.in, Size: 64})
				q := w.Queries[0]
				k := workload.MustIndex(w, q.Attrs[0])
				if got := o.BaseCost(q); got != tc.want {
					t.Errorf("BaseCost = %v, want %v", got, tc.want)
				}
				if got := o.CostWithIndex(q, k); got != tc.want {
					t.Errorf("CostWithIndex = %v, want %v", got, tc.want)
				}
				if got := o.QueryCost(q, workload.Selection{k.Key(): k}); got != tc.want {
					t.Errorf("QueryCost = %v, want %v", got, tc.want)
				}
				// Cached reads serve the sanitized value, not the raw one.
				if got := o.CostWithIndex(q, k); got != tc.want {
					t.Errorf("cached CostWithIndex = %v, want %v", got, tc.want)
				}
			})
		}
	})
}

func TestSanitizeSizeBoundary(t *testing.T) {
	forEachBackend(t, func(t *testing.T, mk func(whatif.Source) backend) {
		w := whatif.SmallWorkload(t)
		model := costmodel.New(w, costmodel.SingleIndex)
		o := mk(whatif.BadSource{Source: model, Cost: 1, Size: -100})
		k := workload.MustIndex(w, w.Queries[0].Attrs[0])
		if got := o.IndexSize(k); got != 0 {
			t.Errorf("negative IndexSize = %d, want clamp to 0", got)
		}
	})
}
