package compress

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// singleTemplate builds a workload with exactly one query template.
func singleTemplate(t *testing.T) (*workload.Workload, *whatif.Optimizer) {
	t.Helper()
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 1000, Attrs: []int{0, 1}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "a", Distinct: 100, ValueSize: 4},
		{ID: 1, Table: 0, Name: "b", Distinct: 10, ValueSize: 4},
	}
	queries := []workload.Query{{ID: 0, Table: 0, Attrs: []int{0, 1}, Freq: 5}}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return w, whatif.New(costmodel.New(w, costmodel.SingleIndex))
}

// equalCosts builds a workload whose templates all have identical
// frequency-weighted base costs (same table, same attribute set, same
// frequency), so ranking must fall back to the ID tie-break.
func equalCosts(t *testing.T, n int) (*workload.Workload, *whatif.Optimizer) {
	t.Helper()
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 1000, Attrs: []int{0, 1}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "a", Distinct: 100, ValueSize: 4},
		{ID: 1, Table: 0, Name: "b", Distinct: 10, ValueSize: 4},
	}
	queries := make([]workload.Query, n)
	for i := range queries {
		queries[i] = workload.Query{ID: i, Table: 0, Attrs: []int{0, 1}, Freq: 7}
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return w, whatif.New(costmodel.New(w, costmodel.SingleIndex))
}

func TestByCoverageEpsZeroKeepsEverything(t *testing.T) {
	w, m, opt := gen(t)
	_ = m
	cw, stats, err := ByCoverage(w, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cw.NumQueries() != w.NumQueries() {
		t.Fatalf("eps=0 kept %d of %d templates", cw.NumQueries(), w.NumQueries())
	}
	if stats.Coverage < 1-1e-12 {
		t.Fatalf("eps=0 coverage %v, want 1", stats.Coverage)
	}
}

func TestByCoverageEpsOutOfRange(t *testing.T) {
	w, _, opt := gen(t)
	for _, eps := range []float64{1, 1.5, -0.01} {
		if _, _, err := ByCoverage(w, opt, eps); err == nil {
			t.Errorf("eps=%v accepted, want error", eps)
		}
	}
}

func TestSingleTemplateWorkload(t *testing.T) {
	w, opt := singleTemplate(t)
	cw, stats, err := ByCoverage(w, opt, 0.5)
	if err != nil || cw.NumQueries() != 1 || stats.Coverage != 1 || stats.KeptTemplates != 1 {
		t.Fatalf("ByCoverage(0.5): stats=%+v err=%v", stats, err)
	}
}

func TestTieBreakDeterminism(t *testing.T) {
	// All templates cost the same, each 1/6 of the total, so eps=0.5 keeps
	// exactly 3; ByCoverage must keep the lowest query IDs and do so
	// identically across runs and fresh optimizers.
	w, opt := equalCosts(t, 6)
	first, stats, err := ByCoverage(w, opt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w2, opt2 := equalCosts(t, 6)
	second, _, err := ByCoverage(w2, opt2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if first.NumQueries() != 3 || second.NumQueries() != 3 {
		t.Fatalf("kept %d / %d templates, want 3", first.NumQueries(), second.NumQueries())
	}
	if stats.Coverage < 0.5-1e-12 {
		t.Fatalf("coverage %v below bound", stats.Coverage)
	}
	for i := range first.Queries {
		if first.Queries[i].ID != second.Queries[i].ID {
			t.Fatalf("tie-break not deterministic at position %d", i)
		}
	}
	// rank breaks ties by ascending original ID, and build re-densifies in
	// that order, so kept templates are exactly the first three originals.
	// With identical templates the re-densified IDs must be 0,1,2.
	for i, q := range first.Queries {
		if q.ID != i {
			t.Fatalf("query at position %d has ID %d", i, q.ID)
		}
	}
}
