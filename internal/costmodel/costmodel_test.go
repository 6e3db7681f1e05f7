package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

// tiny builds a single-table workload with hand-checkable numbers:
// table rows n=1024, attrs: a0 (d=16, size 4), a1 (d=256, size 8),
// a2 (d=1024, size 4).
func tiny(t *testing.T) *workload.Workload {
	t.Helper()
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 1024, Attrs: []int{0, 1, 2}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "T.a0", Distinct: 16, ValueSize: 4},
		{ID: 1, Table: 0, Name: "T.a1", Distinct: 256, ValueSize: 8},
		{ID: 2, Table: 0, Name: "T.a2", Distinct: 1024, ValueSize: 4},
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{0, 1}, Freq: 10},
		{ID: 1, Table: 0, Attrs: []int{2}, Freq: 1},
		{ID: 2, Table: 0, Attrs: []int{0, 1, 2}, Freq: 3},
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestIndexSize(t *testing.T) {
	w := tiny(t)
	m := New(w, SingleIndex)
	// n=1024: ceil(log2 1024)=10 bits -> ceil(10*1024/8) = 1280 bytes,
	// plus key columns.
	cases := []struct {
		attrs []int
		want  int64
	}{
		{[]int{0}, 1280 + 4*1024},
		{[]int{1}, 1280 + 8*1024},
		{[]int{0, 1}, 1280 + 12*1024},
		{[]int{0, 1, 2}, 1280 + 16*1024},
	}
	for _, tc := range cases {
		k := workload.MustIndex(w, tc.attrs...)
		if got := m.IndexSize(k); got != tc.want {
			t.Errorf("IndexSize(%v) = %d, want %d", tc.attrs, got, tc.want)
		}
	}
}

func TestBaseCostHandComputed(t *testing.T) {
	w := tiny(t)
	m := New(w, SingleIndex)
	// Query 1 accesses only a2 (s=1/1024): cost = n*size + 4*n*s
	// = 1024*4 + 4*1024/1024 = 4096 + 4 = 4100.
	if got, want := m.BaseCost(w.Queries[1]), 4100.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("BaseCost(q1) = %v, want %v", got, want)
	}
	// Query 0 accesses a0 (s=1/16) and a1 (s=1/256); scan order is by
	// ascending selectivity: a1 first.
	// a1: 1024*8 + 4*1024/256 = 8192 + 16 = 8208; r -> 4.
	// a0: 4*4 + 4*4/16 = 16 + 1 = 17.
	if got, want := m.BaseCost(w.Queries[0]), 8208.0+17.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("BaseCost(q0) = %v, want %v", got, want)
	}
}

func TestCostWithIndexHandComputed(t *testing.T) {
	w := tiny(t)
	m := New(w, SingleIndex)
	q := w.Queries[0] // {a0, a1}
	k := workload.MustIndex(w, 1, 0)
	// Probe: log2(1024)=10 + [8*log2(256) + 4*log2(16)] + 4*1024*(1/256)*(1/16)
	// = 10 + (64 + 16) + 4*0.25 = 10 + 80 + 1 = 91; full coverage, no scan.
	if got, want := m.CostWithIndex(q, k), 91.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("CostWithIndex = %v, want %v", got, want)
	}
	// Partially covering index (a1,a2): prefix = {a1} only; the unused a2
	// key attribute is free (prefix-only comparison cost, see package doc).
	k2 := workload.MustIndex(w, 1, 2)
	// Probe: 10 + 8*log2(256) + 4*1024/256 = 10 + 64 + 16 = 90; rows=4.
	// Scan a0 over 4 rows: 4*4 + 4*4/16 = 17.
	if got, want := m.CostWithIndex(q, k2), 107.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("CostWithIndex partial = %v, want %v", got, want)
	}
	// Non-applicable index falls back to base cost.
	k3 := workload.MustIndex(w, 2)
	if got, want := m.CostWithIndex(q, k3), m.BaseCost(q); got != want {
		t.Errorf("non-applicable CostWithIndex = %v, want base %v", got, want)
	}
}

func TestSingleIndexQueryCost(t *testing.T) {
	w := tiny(t)
	m := New(w, SingleIndex)
	q := w.Queries[0]
	kGood := workload.MustIndex(w, 1, 0)
	kOther := workload.MustIndex(w, 2)
	sel := workload.NewSelection(kGood, kOther)
	if got, want := m.QueryCost(q, sel), m.CostWithIndex(q, kGood); got != want {
		t.Errorf("QueryCost = %v, want best single index %v", got, want)
	}
	if got, want := m.QueryCost(q, workload.NewSelection()), m.BaseCost(q); got != want {
		t.Errorf("QueryCost(empty) = %v, want base %v", got, want)
	}
}

func TestMultiIndexCombinesIndexes(t *testing.T) {
	w := tiny(t)
	single := New(w, SingleIndex)
	multi := New(w, MultiIndex)
	q := w.Queries[2]              // {a0, a1, a2}
	k1 := workload.MustIndex(w, 2) // covers a2, very selective
	k2 := workload.MustIndex(w, 1) // covers a1
	sel := workload.NewSelection(k1, k2)
	ms := multi.QueryCost(q, sel)
	ss := single.QueryCost(q, sel)
	if ms > ss {
		t.Errorf("multi-index cost %v exceeds single-index cost %v", ms, ss)
	}
	if ms >= multi.BaseCost(q) {
		t.Errorf("multi-index cost %v not below base %v", ms, multi.BaseCost(q))
	}
}

func TestMonotonicityAddingIndexes(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 2, 10, 20, 10_000
	w := workload.MustGenerate(cfg)
	m := New(w, SingleIndex)
	sel := workload.NewSelection()
	prev := m.TotalCost(sel)
	for _, a := range []int{0, 3, 11, 15} {
		sel.Add(workload.MustIndex(w, a))
		cur := m.TotalCost(sel)
		if cur > prev+1e-6 {
			t.Fatalf("adding index on attr %d increased total cost %v -> %v", a, prev, cur)
		}
		prev = cur
	}
}

func TestBudget(t *testing.T) {
	w := tiny(t)
	m := New(w, SingleIndex)
	base := m.SingleAttrBudget()
	want := int64(3*1280 + (4+8+4)*1024)
	if base != want {
		t.Errorf("SingleAttrBudget = %d, want %d", base, want)
	}
	if got := m.Budget(0.5); got != base/2 {
		t.Errorf("Budget(0.5) = %d, want %d", got, base/2)
	}
	if got := m.Budget(0); got != 0 {
		t.Errorf("Budget(0) = %d, want 0", got)
	}
}

func TestTotalCostAndSize(t *testing.T) {
	w := tiny(t)
	m := New(w, SingleIndex)
	k := workload.MustIndex(w, 0)
	sel := workload.NewSelection(k)
	var want float64
	for _, q := range w.Queries {
		want += float64(q.Freq) * m.QueryCost(q, sel)
	}
	if got := m.TotalCost(sel); math.Abs(got-want) > 1e-9 {
		t.Errorf("TotalCost = %v, want %v", got, want)
	}
	if got := totalSize(m, sel); got != m.IndexSize(k) {
		t.Errorf("total size = %d, want %d", got, m.IndexSize(k))
	}
}

// TestSupersetNeverWorse: property — for any query and any pair of
// selections S1 ⊆ S2, SingleIndex cost with S2 is <= cost with S1.
func TestSupersetNeverWorse(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 2, 12, 30, 50_000
	w := workload.MustGenerate(cfg)
	m := New(w, SingleIndex)
	f := func(qRaw uint8, picks [6]uint16, split uint8) bool {
		q := w.Queries[int(qRaw)%w.NumQueries()]
		s1, s2 := workload.NewSelection(), workload.NewSelection()
		cut := int(split) % (len(picks) + 1)
		for i, p := range picks {
			a := int(p) % w.NumAttrs()
			k := workload.MustIndex(w, a)
			s2.Add(k)
			if i < cut {
				s1.Add(k)
			}
		}
		return m.QueryCost(q, s2) <= m.QueryCost(q, s1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCostsPositiveProperty: property — all costs and sizes are positive and
// finite for arbitrary multi-attribute indexes.
func TestCostsPositiveProperty(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 2, 12, 30, 50_000
	w := workload.MustGenerate(cfg)
	for _, mode := range []Mode{SingleIndex, MultiIndex} {
		m := New(w, mode)
		f := func(qRaw uint8, table uint8, picks [4]uint8) bool {
			q := w.Queries[int(qRaw)%w.NumQueries()]
			tb := w.Tables[int(table)%len(w.Tables)]
			var attrs []int
			seen := map[int]bool{}
			for _, p := range picks {
				a := tb.Attrs[int(p)%len(tb.Attrs)]
				if !seen[a] {
					seen[a] = true
					attrs = append(attrs, a)
				}
			}
			k := workload.MustIndex(w, attrs...)
			c := m.QueryCost(q, workload.NewSelection(k))
			sz := m.IndexSize(k)
			return c > 0 && !math.IsInf(c, 0) && !math.IsNaN(c) && sz > 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

// TestMultiIndexNeverAboveBase: property — multi-index evaluation can always
// fall back to scanning, so it never exceeds the base cost.
func TestMultiIndexNeverAboveBase(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 2, 12, 30, 50_000
	w := workload.MustGenerate(cfg)
	m := New(w, MultiIndex)
	f := func(qRaw uint8, picks [5]uint16) bool {
		q := w.Queries[int(qRaw)%w.NumQueries()]
		sel := workload.NewSelection()
		for _, p := range picks {
			sel.Add(workload.MustIndex(w, int(p)%w.NumAttrs()))
		}
		return m.QueryCost(q, sel) <= m.BaseCost(q)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// totalSize returns P(I*) = sum_k p_k under m.
func totalSize(m *Model, sel workload.Selection) int64 {
	var total int64
	for _, k := range sel {
		total += m.IndexSize(k)
	}
	return total
}
