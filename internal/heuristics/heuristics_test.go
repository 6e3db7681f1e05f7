package heuristics

import (
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func gen(t *testing.T, tables, attrs, queries int, rows int64, seed int64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = tables, attrs, queries
	cfg.RowsBase, cfg.Seed = rows, seed
	return workload.MustGenerate(cfg)
}

func setup(w *workload.Workload) (*costmodel.Model, *whatif.Optimizer) {
	m := costmodel.New(w, costmodel.SingleIndex)
	return m, whatif.New(m)
}

func allCandidates(t *testing.T, w *workload.Workload, maxWidth int) []workload.Index {
	t.Helper()
	set, err := candidates.Enumerate(w, maxWidth)
	if err != nil {
		t.Fatal(err)
	}
	return set.Representatives(w)
}

func TestAllRulesFeasibleAndConsistent(t *testing.T) {
	w := gen(t, 2, 12, 30, 50_000, 3)
	m, opt := setup(w)
	cands := allCandidates(t, w, 2)
	budget := m.Budget(0.3)
	for _, rule := range []Rule{H1, H2, H3, H4, H5} {
		res, err := Select(w, opt, cands, rule, Options{Budget: budget})
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if res.Memory > budget {
			t.Errorf("%v: memory %d exceeds budget %d", rule, res.Memory, budget)
		}
		if got := m.TotalSize(res.Selection); got != res.Memory {
			t.Errorf("%v: memory %d != model %d", rule, res.Memory, got)
		}
		if got := m.TotalCost(res.Selection); math.Abs(got-res.Cost) > 1e-6*got {
			t.Errorf("%v: cost %v != model %v", rule, res.Cost, got)
		}
		if res.Cost > m.TotalCost(workload.NewSelection()) {
			t.Errorf("%v: selection worse than no indexes", rule)
		}
	}
}

func TestH1PrefersFrequent(t *testing.T) {
	// Two single-attribute candidates; one attribute is queried far more.
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 10_000, Attrs: []int{0, 1}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "hot", Distinct: 100, ValueSize: 4},
		{ID: 1, Table: 0, Name: "cold", Distinct: 100, ValueSize: 4},
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{0}, Freq: 1000},
		{ID: 1, Table: 0, Attrs: []int{1}, Freq: 1},
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	m, opt := setup(w)
	cands := []workload.Index{workload.MustIndex(w, 0), workload.MustIndex(w, 1)}
	// Budget for exactly one index.
	budget := m.IndexSize(cands[0])
	res, err := Select(w, opt, cands, H1, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selection.Has(cands[0]) || res.Selection.Has(cands[1]) {
		t.Errorf("H1 picked %v, want only the hot attribute", res.Selection.Sorted())
	}
}

func TestH2PrefersSelective(t *testing.T) {
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 10_000, Attrs: []int{0, 1}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "coarse", Distinct: 2, ValueSize: 4},
		{ID: 1, Table: 0, Name: "fine", Distinct: 5000, ValueSize: 4},
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{0}, Freq: 10},
		{ID: 1, Table: 0, Attrs: []int{1}, Freq: 10},
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	m, opt := setup(w)
	cands := []workload.Index{workload.MustIndex(w, 0), workload.MustIndex(w, 1)}
	budget := m.IndexSize(cands[1])
	res, err := Select(w, opt, cands, H2, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selection.Has(cands[1]) {
		t.Errorf("H2 did not pick the selective attribute: %v", res.Selection.Sorted())
	}
}

func TestH4PicksBestBenefit(t *testing.T) {
	w := gen(t, 1, 10, 20, 50_000, 5)
	m, opt := setup(w)
	cands := allCandidates(t, w, 1)
	// Budget for one index: H4 must take the max-benefit candidate that fits.
	var best workload.Index
	bestBen := -1.0
	for _, k := range cands {
		if b := benefitReference(w, opt, k); b > bestBen {
			bestBen, best = b, k
		}
	}
	res, err := Select(w, opt, cands, H4, Options{Budget: m.IndexSize(best)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Selection.Has(best) {
		t.Errorf("H4 missed the best-benefit candidate %v; got %v", best, res.Selection.Sorted())
	}
}

func TestH5RatioBeatsH4UnderTightBudget(t *testing.T) {
	// A huge moderately-useful index vs several small useful ones: H4 takes
	// the big one; H5's cost/size ratio packs small ones. Construct directly.
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 100_000, Attrs: []int{0, 1, 2, 3}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "big", Distinct: 300, ValueSize: 16},
		{ID: 1, Table: 0, Name: "s1", Distinct: 300, ValueSize: 1},
		{ID: 2, Table: 0, Name: "s2", Distinct: 300, ValueSize: 1},
		{ID: 3, Table: 0, Name: "s3", Distinct: 300, ValueSize: 1},
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{0}, Freq: 40},
		{ID: 1, Table: 0, Attrs: []int{1}, Freq: 400},
		{ID: 2, Table: 0, Attrs: []int{2}, Freq: 400},
		{ID: 3, Table: 0, Attrs: []int{3}, Freq: 400},
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	m, opt := setup(w)
	var cands []workload.Index
	for i := 0; i < 4; i++ {
		cands = append(cands, workload.MustIndex(w, i))
	}
	budget := m.IndexSize(cands[0]) // fits the big one, or all three small ones
	h4, err := Select(w, opt, cands, H4, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	h5, err := Select(w, opt, cands, H5, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !h4.Selection.Has(cands[0]) {
		t.Errorf("H4 should pick the big high-benefit index; got %v", h4.Selection.Sorted())
	}
	if h5.Selection.Has(cands[0]) {
		t.Errorf("H5 should prefer the small indexes; got %v", h5.Selection.Sorted())
	}
	if h5.Cost > h4.Cost {
		t.Errorf("expected H5 (%v) to beat H4 (%v) under this budget", h5.Cost, h4.Cost)
	}
}

func TestSkylineFilterKeepsPerQueryBest(t *testing.T) {
	w := gen(t, 2, 10, 25, 50_000, 7)
	_, opt := setup(w)
	cands := allCandidates(t, w, 2)
	ids := make([]workload.IndexID, len(cands))
	for i, k := range cands {
		ids[i] = opt.Interner().Intern(k)
	}
	kept, _ := newProber(w, opt).skyline(cands, ids, nil)
	if len(kept) == 0 || len(kept) >= len(cands) {
		t.Fatalf("skyline kept %d of %d candidates", len(kept), len(cands))
	}
	// The per-query cheapest candidate always survives.
	for _, q := range w.Queries {
		var best workload.Index
		bestCost := opt.BaseCost(q)
		found := false
		for _, k := range cands {
			if !workload.Applicable(q, k) {
				continue
			}
			if c := opt.CostWithIndex(q, k); c < bestCost {
				bestCost, best, found = c, k, true
			}
		}
		if !found {
			continue
		}
		has := false
		for _, k := range kept {
			if k.Key() == best.Key() {
				has = true
				break
			}
		}
		if !has {
			t.Errorf("skyline dropped query %d's best candidate %v", q.ID, best)
		}
	}
}

func TestSkylineOptionReducesConsidered(t *testing.T) {
	w := gen(t, 2, 10, 25, 50_000, 9)
	m, opt := setup(w)
	cands := allCandidates(t, w, 2)
	plain, err := Select(w, opt, cands, H4, Options{Budget: m.Budget(0.3)})
	if err != nil {
		t.Fatal(err)
	}
	sky, err := Select(w, opt, cands, H4, Options{Budget: m.Budget(0.3), Skyline: true})
	if err != nil {
		t.Fatal(err)
	}
	if sky.Considered >= plain.Considered {
		t.Errorf("skyline considered %d, plain %d", sky.Considered, plain.Considered)
	}
}

func TestValidation(t *testing.T) {
	w := gen(t, 1, 5, 5, 1000, 1)
	_, opt := setup(w)
	if _, err := Select(w, opt, nil, H1, Options{}); err == nil {
		t.Error("accepted zero budget")
	}
	if _, err := Select(w, opt, nil, Rule(0), Options{Budget: 1}); err == nil {
		t.Error("accepted unknown rule")
	}
	if _, err := Select(w, opt, nil, Rule(9), Options{Budget: 1}); err == nil {
		t.Error("accepted unknown rule 9")
	}
}

func TestRuleString(t *testing.T) {
	want := map[Rule]string{H1: "H1", H2: "H2", H3: "H3", H4: "H4", H5: "H5"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Rule(%d).String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if Rule(42).String() == "" {
		t.Error("unknown rule string empty")
	}
}
