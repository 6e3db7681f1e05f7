package cophy

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

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

// bruteForce finds the optimal selection by enumerating all candidate subsets.
func bruteForce(w *workload.Workload, m *costmodel.Model, cands []workload.Index, budget int64) float64 {
	best := m.TotalCost(workload.NewSelection())
	n := len(cands)
	for mask := 1; mask < 1<<n; mask++ {
		sel := workload.NewSelection()
		var mem int64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel.Add(cands[i])
				mem += m.IndexSize(cands[i])
			}
		}
		if mem > budget {
			continue
		}
		if c := m.TotalCost(sel); c < best {
			best = c
		}
	}
	return best
}

func singleAttrCandidates(w *workload.Workload, n int) []workload.Index {
	g := w.Occurrences()
	type aw struct {
		a int
		g int64
	}
	var all []aw
	for _, a := range w.Attrs() {
		if g[a.ID] > 0 {
			all = append(all, aw{a.ID, g[a.ID]})
		}
	}
	// Highest occurrence first, deterministic.
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].g > all[i].g || (all[j].g == all[i].g && all[j].a < all[i].a) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if len(all) > n {
		all = all[:n]
	}
	out := make([]workload.Index, len(all))
	for i, e := range all {
		out[i] = workload.MustIndex(w, e.a)
	}
	return out
}

// checkBruteForce runs the solve at gap 0 and 0.05, with and without
// dominance reduction, against the brute-force optimum want: every run is
// feasible, reports the model's cost, finishes, and proves a gap that holds
// against want; the exact runs hit want.
func checkBruteForce(t *testing.T, w *workload.Workload, m *costmodel.Model, opt *whatif.Optimizer, cands []workload.Index, budget int64) {
	t.Helper()
	want := bruteForce(w, m, cands, budget)
	for _, gap := range []float64{0, 0.05} {
		for _, dom := range []bool{false, true} {
			name := fmt.Sprintf("gap=%g/dominance=%t", gap, dom)
			res, err := Solve(w, opt, cands, Options{Budget: budget, Gap: gap, DominanceReduction: dom})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.DNF {
				t.Errorf("%s: DNF without a time limit", name)
			}
			if res.Stats.Gap > gap+gapTol {
				t.Errorf("%s: proven gap %v above the requested %v", name, res.Stats.Gap, gap)
			}
			if res.Cost < want-1e-6*want {
				t.Errorf("%s: cost %v below the brute-force optimum %v", name, res.Cost, want)
			}
			if bound := res.Cost * (1 - res.Stats.Gap); bound > want+1e-6*want {
				t.Errorf("%s: certified bound %v above the brute-force optimum %v", name, bound, want)
			}
			if gap == 0 && math.Abs(res.Cost-want) > 1e-6*want {
				t.Errorf("%s: cost %v, brute force %v", name, res.Cost, want)
			}
			if res.Memory > budget {
				t.Errorf("%s: memory %d exceeds budget %d", name, res.Memory, budget)
			}
			if got := m.TotalCost(res.Selection); math.Abs(got-res.Cost) > 1e-6*got {
				t.Errorf("%s: reported cost %v != model %v", name, res.Cost, got)
			}
		}
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	w := gen(t, 1, 8, 12, 20_000, 3)
	m, opt := setup(w)
	checkBruteForce(t, w, m, opt, singleAttrCandidates(w, 8), m.Budget(0.4))
}

func TestMultiAttributeCandidates(t *testing.T) {
	w := gen(t, 1, 6, 8, 50_000, 5)
	m, opt := setup(w)
	combos, err := candidates.Combos(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	cands := candidates.Permutations(combos)
	if len(cands) > 16 {
		cands = cands[:16]
	}
	checkBruteForce(t, w, m, opt, cands, m.Budget(0.5))
}

// TestLargerInstanceMatchesBruteForce takes the 2-attribute representatives
// of a 14-query table: a 16-candidate prefix is checked by brute force, and
// the exact solve over all of them must be at least as good.
func TestLargerInstanceMatchesBruteForce(t *testing.T) {
	w := gen(t, 1, 8, 14, 50_000, 7)
	m, opt := setup(w)
	combos, err := candidates.Combos(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := w.Occurrences()
	var cands []workload.Index
	for _, c := range combos {
		cands = append(cands, representative(c, g, w))
	}
	budget := m.Budget(0.3)
	checkBruteForce(t, w, m, opt, cands[:16], budget)
	prefix := bruteForce(w, m, cands[:16], budget)
	all, err := Solve(w, opt, cands, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.DNF || all.Stats.Gap > gapTol {
		t.Fatalf("exact solve over %d candidates: DNF=%v gap=%v", len(cands), all.Stats.DNF, all.Stats.Gap)
	}
	if all.Cost > prefix+1e-9*prefix {
		t.Errorf("exact solve over all candidates %v worse than the prefix optimum %v", all.Cost, prefix)
	}
}

func TestStatsPaperCounting(t *testing.T) {
	// Hand-checkable: 1 table, queries {0,1}, {1,2}; candidates {0}, {1}, {2,1}.
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 1000, Attrs: []int{0, 1, 2}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "a", Distinct: 10, ValueSize: 4},
		{ID: 1, Table: 0, Name: "b", Distinct: 20, ValueSize: 4},
		{ID: 2, Table: 0, Name: "c", Distinct: 30, ValueSize: 4},
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{0, 1}, Freq: 5},
		{ID: 1, Table: 0, Attrs: []int{1, 2}, Freq: 3},
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	_, opt := setup(w)
	cands := []workload.Index{
		workload.MustIndex(w, 0),    // applicable to q0 only
		workload.MustIndex(w, 1),    // applicable to q0, q1
		workload.MustIndex(w, 2, 1), // leading attr 2: applicable to q1 only
	}
	res, err := Solve(w, opt, cands, Options{Budget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	// sum_j |I_j| = |{k0,k1}| + |{k1,k2}| = 4.
	// Vars = |I| + sum_j |I_j| + Q (z_j0) = 3 + 4 + 2 = 9.
	// Constraints = Q + sum_j |I_j| + 1 = 2 + 4 + 1 = 7.
	if res.Stats.Vars != 9 {
		t.Errorf("Vars = %d, want 9", res.Stats.Vars)
	}
	if res.Stats.Constraints != 7 {
		t.Errorf("Constraints = %d, want 7", res.Stats.Constraints)
	}
	// What-if calls: one per (query, applicable candidate) pair plus the
	// 2 base costs = 4 + 2 = 6.
	if res.Stats.WhatIfCalls != 6 {
		t.Errorf("WhatIfCalls = %d, want 6", res.Stats.WhatIfCalls)
	}
}

func TestTimeLimitDNF(t *testing.T) {
	w := gen(t, 2, 15, 60, 100_000, 9)
	m, opt := setup(w)
	combos, err := candidates.Combos(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	cands := candidates.Permutations(combos)
	res, err := Solve(w, opt, cands, Options{
		Budget:    m.Budget(0.3),
		TimeLimit: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.DNF {
		t.Error("expected DNF under nanosecond time limit")
	}
	// Even a DNF returns a feasible incumbent.
	if res.Memory > m.Budget(0.3) {
		t.Errorf("DNF incumbent exceeds budget")
	}
}

func TestGapSpeedsUpAndBoundsQuality(t *testing.T) {
	w := gen(t, 1, 8, 16, 100_000, 11)
	m, opt := setup(w)
	combos, err := candidates.Combos(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := w.Occurrences()
	var cands []workload.Index
	for _, c := range combos {
		cands = append(cands, representative(c, g, w))
	}
	budget := m.Budget(0.3)
	exact, err := Solve(w, opt, cands, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(w, opt, cands, Options{Budget: budget, Gap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Stats.Nodes > exact.Stats.Nodes {
		t.Errorf("gap run explored more nodes (%d) than exact (%d)", loose.Stats.Nodes, exact.Stats.Nodes)
	}
	if loose.Cost > exact.Cost*1.05+1e-9 {
		t.Errorf("gap run cost %v violates 5%% bound vs exact %v", loose.Cost, exact.Cost)
	}
}

func TestLargerCandidateSetNeverWorse(t *testing.T) {
	// CoPhy with a superset of candidates can only improve (Figure 3's
	// premise) when solved exactly.
	w := gen(t, 1, 10, 20, 50_000, 13)
	m, opt := setup(w)
	small := singleAttrCandidates(w, 4)
	large := singleAttrCandidates(w, 10)
	budget := m.Budget(0.4)
	rs, err := Solve(w, opt, small, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Solve(w, opt, large, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Cost > rs.Cost+1e-9 {
		t.Errorf("larger candidate set worsened cost: %v > %v", rl.Cost, rs.Cost)
	}
}

func TestValidationErrors(t *testing.T) {
	w := gen(t, 1, 5, 5, 1000, 1)
	_, opt := setup(w)
	if _, err := Solve(w, opt, nil, Options{}); err == nil {
		t.Error("accepted zero budget")
	}
}

func TestEmptyCandidates(t *testing.T) {
	w := gen(t, 1, 5, 5, 1000, 1)
	m, opt := setup(w)
	res, err := Solve(w, opt, nil, Options{Budget: m.Budget(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selection) != 0 {
		t.Error("selected indexes from empty candidate set")
	}
	if want := m.TotalCost(workload.NewSelection()); math.Abs(res.Cost-want) > 1e-9*want {
		t.Errorf("cost %v, want base %v", res.Cost, want)
	}
}

func TestDominanceReductionPreservesOptimum(t *testing.T) {
	w := gen(t, 1, 8, 14, 50_000, 17)
	m, opt := setup(w)
	combos, err := candidates.Combos(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	cands := candidates.Permutations(combos)
	budget := m.Budget(0.3)
	plain, err := Solve(w, opt, cands, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := Solve(w, opt, cands, Options{Budget: budget, DominanceReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Cost-reduced.Cost) > 1e-6*plain.Cost {
		t.Errorf("dominance reduction changed optimum: %v vs %v", plain.Cost, reduced.Cost)
	}
}

func TestWriteWorkloadMatchesBruteForce(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 1, 8, 14
	cfg.RowsBase, cfg.Seed = 50_000, 23
	cfg.WriteShare = 0.3
	w := workload.MustGenerate(cfg)
	m, opt := setup(w)
	// TotalCost, and so the brute force, includes maintenance.
	checkBruteForce(t, w, m, opt, singleAttrCandidates(w, 8), m.Budget(0.5))
}

// TestProvenGapOnWritesConfig solves the sql-writes benchmark's generator
// configuration (20 % writes, 30 attributes per table) over 500, 1 000 and
// 2 000 H1-M candidates at gap 0.05. A solve that does not report DNF must
// have proven the gap in total cost, and Stats.Gap is the gap proven, not
// the one requested: it is never looser than the cheap bounds' proof and,
// where those certify greedy, equal to it.
func TestProvenGapOnWritesConfig(t *testing.T) {
	const gap = 0.05
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultGenConfig()
		cfg.Seed, cfg.AttrsPerTable, cfg.WriteShare = seed, 30, 0.2
		w := workload.MustGenerate(cfg)
		m, opt := setup(w)
		budget := m.Budget(0.5)
		set, err := candidates.Enumerate(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{500, 1000, 2000} {
			cands, err := set.Select(candidates.H1M, n)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Solve(w, opt, cands, Options{Budget: budget, Gap: gap, TimeLimit: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			ins := buildInstance(w, opt, cands, nil)
			_, gCost := ins.greedy(budget)
			cheapBound := ins.cheapBound(budget)
			cheap := relGap(gCost, cheapBound)
			t.Logf("seed %d, %d candidates: cost %.6g gap %.4g dnf %v nodes %d (greedy's cheap gap %.4g)",
				seed, n, res.Cost, st.Gap, st.DNF, st.Nodes, cheap)
			if !st.DNF && st.Gap > gap+gapTol {
				t.Errorf("seed %d, %d candidates: finished with gap %v above %v", seed, n, st.Gap, gap)
			}
			if bound := res.Cost * (1 - st.Gap); res.Cost > gCost || bound < cheapBound*(1-gapTol) {
				t.Errorf("seed %d, %d candidates: cost %v bound %v looser than greedy %v with the cheap bound %v",
					seed, n, res.Cost, bound, gCost, cheapBound)
			}
			if seed <= 2 && n <= 1000 {
				if st.DNF || st.Nodes != 0 || st.Gap != cheap || res.Cost != gCost {
					t.Errorf("seed %d, %d candidates: want greedy certified by the cheap bounds (gap %v), got cost %v gap %v dnf %v nodes %d",
						seed, n, cheap, res.Cost, st.Gap, st.DNF, st.Nodes)
				}
			}
		}
	}
}

// representative orders a combination's attributes as candidate
// enumeration does: descending occurrence frequency g, then ascending
// selectivity, then attribute ID.
func representative(c candidates.Combo, g []int64, w *workload.Workload) workload.Index {
	attrs := append([]int(nil), c.Attrs...)
	sort.Slice(attrs, func(i, j int) bool {
		a, b := attrs[i], attrs[j]
		if g[a] != g[b] {
			return g[a] > g[b]
		}
		if sa, sb := w.Attr(a).Selectivity(), w.Attr(b).Selectivity(); sa != sb {
			return sa < sb
		}
		return a < b
	})
	return workload.Index{Table: c.Table, Attrs: attrs}
}
