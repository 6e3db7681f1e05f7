package core

import (
	"math"
	"testing"

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

func TestSelectBasicInvariants(t *testing.T) {
	w := gen(t, 2, 15, 40, 100_000, 3)
	m, opt := setup(w)
	budget := m.Budget(0.3)
	res, err := Select(w, opt, Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no construction steps taken")
	}
	if res.Memory > budget {
		t.Errorf("final memory %d exceeds budget %d", res.Memory, budget)
	}
	if res.Cost >= res.InitialCost {
		t.Errorf("final cost %v not below initial %v", res.Cost, res.InitialCost)
	}
	// Each step reduces cost and respects memory accounting.
	prevCost, prevMem := res.InitialCost, int64(0)
	for i, s := range res.Steps {
		if s.CostBefore != prevCost || s.MemBefore != prevMem {
			t.Errorf("step %d: before (%v, %d), want (%v, %d)", i, s.CostBefore, s.MemBefore, prevCost, prevMem)
		}
		if s.CostAfter > s.CostBefore {
			t.Errorf("step %d (%v) increased cost %v -> %v", i, s.Kind, s.CostBefore, s.CostAfter)
		}
		if s.MemAfter <= s.MemBefore {
			t.Errorf("step %d (%v) did not grow memory %d -> %d", i, s.Kind, s.MemBefore, s.MemAfter)
		}
		if s.Ratio <= 0 {
			t.Errorf("step %d ratio %v, want positive", i, s.Ratio)
		}
		prevCost, prevMem = s.CostAfter, s.MemAfter
	}
}

// TestIncrementalBookkeepingMatchesModel is the central correctness check:
// the incremental cost/memory tracking must agree with a from-scratch
// evaluation of the final selection by the cost model.
func TestIncrementalBookkeepingMatchesModel(t *testing.T) {
	w := gen(t, 3, 12, 30, 50_000, 11)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Cost, m.TotalCost(res.Selection); math.Abs(got-want) > 1e-6*want {
		t.Errorf("tracked cost %v != recomputed cost %v", got, want)
	}
	if got, want := res.Memory, totalSize(m, res.Selection); got != want {
		t.Errorf("tracked memory %d != recomputed %d", got, want)
	}
}

func TestFirstStepIsBestRatioSingle(t *testing.T) {
	w := gen(t, 1, 10, 20, 100_000, 5)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Steps[0]
	if first.Kind != StepNewIndex || len(first.Index.Attrs) != 1 {
		t.Fatalf("first step = %+v, want new single-attribute index", first)
	}
	// Recompute all single-attribute ratios by brute force and compare.
	bestRatio := -1.0
	for _, a := range w.Attrs() {
		k := workload.MustIndex(w, a.ID)
		var gain float64
		for _, q := range w.Queries {
			if c := m.CostWithIndex(q, k); c < m.BaseCost(q) {
				gain += float64(q.Freq) * (m.BaseCost(q) - c)
			}
		}
		if r := gain / float64(m.IndexSize(k)); r > bestRatio {
			bestRatio = r
		}
	}
	if math.Abs(first.Ratio-bestRatio) > 1e-9*bestRatio {
		t.Errorf("first step ratio %v, want best single ratio %v", first.Ratio, bestRatio)
	}
}

func TestMorphingHappens(t *testing.T) {
	// Two-attribute queries on one table make extensions the natural second
	// step; with enough budget the trace must contain extend steps and a
	// multi-attribute index in the final selection.
	w := gen(t, 1, 20, 50, 500_000, 7)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	var extends, multi int
	for _, s := range res.Steps {
		if s.Kind == StepExtend {
			extends++
			if s.Replaced == nil {
				t.Error("extend step without Replaced")
			} else if len(s.Index.Attrs) != len(s.Replaced.Attrs)+1 {
				t.Errorf("extend %v -> %v is not a one-attribute append", s.Replaced, s.Index)
			}
		}
	}
	for _, k := range res.Selection {
		if len(k.Attrs) > 1 {
			multi++
		}
	}
	if extends == 0 {
		t.Error("no extend (morphing) steps in trace")
	}
	if multi == 0 {
		t.Error("no multi-attribute index in final selection")
	}
}

func TestSelectionAtReplaysTrace(t *testing.T) {
	w := gen(t, 2, 12, 30, 100_000, 13)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Steps {
		sel, cost, mem := res.SelectionAt(s.MemAfter)
		if mem != s.MemAfter || math.Abs(cost-s.CostAfter) > 1e-9*s.CostAfter {
			t.Errorf("replay at step %d: (cost %v, mem %d), want (%v, %d)", i, cost, mem, s.CostAfter, s.MemAfter)
		}
		if got, want := cost, m.TotalCost(sel); math.Abs(got-want) > 1e-6*want {
			t.Errorf("replay at step %d: cost %v != model %v", i, got, want)
		}
	}
	// Replay with the full budget reproduces the final state.
	sel, cost, mem := res.SelectionAt(res.Memory)
	if len(sel) != len(res.Selection) || cost != res.Cost || mem != res.Memory {
		t.Errorf("full replay = (%d indexes, %v, %d), want (%d, %v, %d)",
			len(sel), cost, mem, len(res.Selection), res.Cost, res.Memory)
	}
	// Replay below the first step yields the empty selection.
	sel, cost, mem = res.SelectionAt(res.Steps[0].MemAfter - 1)
	if len(sel) != 0 || cost != res.InitialCost || mem != 0 {
		t.Errorf("sub-first replay = (%d, %v, %d), want empty", len(sel), cost, mem)
	}
}

func TestBudgetZeroRejected(t *testing.T) {
	w := gen(t, 1, 5, 5, 1000, 1)
	_, opt := setup(w)
	if _, err := Select(w, opt, Options{}); err == nil {
		t.Error("Select accepted zero budget")
	}
}

func TestTinyBudgetSelectsNothingOrFits(t *testing.T) {
	w := gen(t, 1, 10, 20, 100_000, 9)
	_, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: 1}) // nothing fits in 1 byte
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 || len(res.Selection) != 0 {
		t.Errorf("1-byte budget produced %d steps", len(res.Steps))
	}
	if res.Cost != res.InitialCost {
		t.Errorf("cost changed with empty selection")
	}
}

func TestMaxStepsBounds(t *testing.T) {
	w := gen(t, 2, 15, 30, 100_000, 17)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(1.0), MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) > 3 {
		t.Errorf("MaxSteps=3 produced %d steps", len(res.Steps))
	}
}

func TestWhatIfCallsBounded(t *testing.T) {
	// Section III-A: roughly q-bar*Q calls happen in the first step and the
	// total stays near 2*Q*q-bar — far below candidates*Q.
	w := gen(t, 5, 30, 60, 200_000, 21)
	m, _ := setup(w)
	opt := whatif.New(m)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps")
	}
	qbar := w.AvgQueryWidth()
	calls := float64(opt.Stats().Calls)
	// The 2*Q*q-bar figure is asymptotic (large Q relative to step count);
	// on this small instance extension probes add a constant factor. 8x
	// headroom still separates H6 sharply from candidate-set approaches,
	// whose call count Q*q-bar*|I|/N grows with |I| (checked in the
	// experiments harness against CoPhy).
	limit := 8 * float64(w.NumQueries()) * qbar
	if calls > limit {
		t.Errorf("what-if calls %v exceed %v (~8*Q*q-bar)", calls, limit)
	}
	// The base costs alone are Q calls; singles are ~Q*q-bar.
	if calls < float64(w.NumQueries()) {
		t.Errorf("suspiciously few what-if calls: %v", calls)
	}
}

func TestTopNSingleRestricts(t *testing.T) {
	w := gen(t, 2, 20, 40, 100_000, 23)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(1.0), TopNSingle: 3})
	if err != nil {
		t.Fatal(err)
	}
	leads := map[int]bool{}
	for _, s := range res.Steps {
		if s.Kind == StepNewIndex {
			leads[s.Index.Leading()] = true
		}
	}
	if len(leads) > 3 {
		t.Errorf("TopNSingle=3 created singles on %d distinct attributes", len(leads))
	}
	// Unrestricted run should reach at least as good a cost.
	opt2 := whatif.New(m)
	full, err := Select(w, opt2, Options{Budget: m.Budget(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost > res.Cost*1.0000001 {
		t.Errorf("unrestricted cost %v worse than TopN-restricted %v", full.Cost, res.Cost)
	}
}

func TestDropUnusedLeavesOnlyUsefulIndexes(t *testing.T) {
	w := gen(t, 2, 15, 40, 100_000, 29)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.6), DropUnused: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving index must be load-bearing: removing it increases cost.
	for _, k := range res.Selection.Sorted() {
		reduced := res.Selection.Clone()
		reduced.Remove(k)
		if m.TotalCost(reduced) <= res.Cost+1e-9 {
			t.Errorf("index %v is unused but survived DropUnused", k)
		}
	}
	// Bookkeeping still consistent after drops.
	if got, want := res.Cost, m.TotalCost(res.Selection); math.Abs(got-want) > 1e-6*want {
		t.Errorf("cost %v != model %v after drops", got, want)
	}
	if got, want := res.Memory, totalSize(m, res.Selection); got != want {
		t.Errorf("memory %d != model %d after drops", got, want)
	}
}

func TestTrackSecondBest(t *testing.T) {
	w := gen(t, 2, 12, 30, 100_000, 31)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.5), TrackSecondBest: true})
	if err != nil {
		t.Fatal(err)
	}
	withRunner := 0
	for _, s := range res.Steps {
		if s.RunnerUp != nil {
			withRunner++
			if s.RunnerUp.Ratio > s.Ratio {
				t.Errorf("runner-up ratio %v beats chosen %v", s.RunnerUp.Ratio, s.Ratio)
			}
		}
	}
	if withRunner == 0 {
		t.Error("no step recorded a runner-up")
	}
}

func TestReconfigDiscouragesChurn(t *testing.T) {
	w := gen(t, 2, 12, 30, 100_000, 37)
	m, opt := setup(w)
	free, err := Select(w, opt, Options{Budget: m.Budget(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	// A reconfiguration charge proportional to created bytes makes index
	// creation strictly less attractive: at most as many indexes selected.
	charged, err := Select(w, whatif.New(m), Options{
		Budget:   m.Budget(0.5),
		Reconfig: Reconfig{CreatePerByte: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(charged.Selection) > len(free.Selection) {
		t.Errorf("reconfig charge grew selection: %d > %d", len(charged.Selection), len(free.Selection))
	}
	// The charge is a constant per candidate step, so a priced run keeps the
	// lazy loop: it must prune or serve from cache, not sweep.
	priced, err := Select(w, whatif.New(m), Options{
		Budget:   m.Budget(0.5),
		Reconfig: Reconfig{CreatePerByte: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(priced.Steps) == 0 || priced.Pruned+priced.CacheServed == 0 {
		t.Errorf("priced run: %d steps, %d pruned, %d cache-served; want the lazy loop",
			len(priced.Steps), priced.Pruned, priced.CacheServed)
	}
	// With an absurd charge nothing should be worth building.
	none, err := Select(w, whatif.New(m), Options{
		Budget:   m.Budget(0.5),
		Reconfig: Reconfig{CreatePerByte: 1e18},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Selection) != 0 {
		t.Errorf("absurd reconfig charge still selected %d indexes", len(none.Selection))
	}
}

// TestReconfigCost pins what the priced term charges: R is CreatePerByte per
// byte of every selected index outside the deployed set, so a priced run's
// final cost is the model's F(I) plus that charge, its initial cost is F(∅),
// and a zero price is free whatever is deployed.
func TestReconfigCost(t *testing.T) {
	w := gen(t, 2, 12, 30, 100_000, 37)
	m, _ := setup(w)
	budget := m.Budget(0.5)
	free, err := Select(w, whatif.New(m), Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	deployed := everyOther(free.Selection)
	if len(deployed) == 0 {
		t.Fatal("unpriced run selected nothing to deploy")
	}
	const price = 2
	res, err := Select(w, whatif.New(m), Options{
		Budget:   budget,
		Reconfig: Reconfig{Deployed: deployed, CreatePerByte: price},
	})
	if err != nil {
		t.Fatal(err)
	}
	var created int64
	for _, k := range res.Selection {
		if !deployed.Has(k) {
			created += m.IndexSize(k)
		}
	}
	if got, want := res.Cost-m.TotalCost(res.Selection), price*float64(created); math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("priced cost exceeds F(I) by %v, want R = %v", got, want)
	}
	if res.InitialCost != free.InitialCost {
		t.Errorf("priced initial cost %v, want F(empty) %v", res.InitialCost, free.InitialCost)
	}
	zero, err := Select(w, whatif.New(m), Options{Budget: budget, Reconfig: Reconfig{Deployed: deployed}})
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, "zero price", free, zero)

	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Select(w, whatif.New(m), Options{Budget: budget, Reconfig: Reconfig{CreatePerByte: p}}); err == nil {
			t.Errorf("CreatePerByte %v accepted", p)
		}
	}
}

// everyOther deploys every other index of sel in key order: runs priced
// against it see both positive and negative per-candidate charges (creating
// an undeployed index, replacing one by a deployed extension).
func everyOther(sel workload.Selection) workload.Selection {
	out := workload.NewSelection()
	for i, k := range sel.Sorted() {
		if i%2 == 0 {
			out.Add(k)
		}
	}
	return out
}

func TestPairSteps(t *testing.T) {
	w := gen(t, 1, 15, 40, 200_000, 41)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.6), PairSteps: true, PairLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Memory > m.Budget(0.6) {
		t.Errorf("pair run exceeded budget")
	}
	if got, want := res.Cost, m.TotalCost(res.Selection); math.Abs(got-want) > 1e-6*want {
		t.Errorf("pair run bookkeeping: %v != %v", got, want)
	}
	// Pair steps may or may not win; the run must at least match the
	// single-step run's quality when both see the same budget.
	opt2 := whatif.New(m)
	plain, err := Select(w, opt2, Options{Budget: m.Budget(0.6)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > plain.Cost*1.05 {
		t.Errorf("pair-enabled cost %v much worse than plain %v", res.Cost, plain.Cost)
	}
}

func TestMultiIndexMode(t *testing.T) {
	w := gen(t, 1, 8, 12, 50_000, 43)
	m := costmodel.New(w, costmodel.MultiIndex)
	opt := whatif.New(m)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.5), MultiIndex: true, MaxSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Memory > m.Budget(0.5) {
		t.Errorf("multi-index run exceeded budget")
	}
	if res.Cost > res.InitialCost {
		t.Errorf("multi-index run increased cost")
	}
	if got, want := res.Cost, m.TotalCost(res.Selection); math.Abs(got-want) > 1e-6*want {
		t.Errorf("multi-index cost %v != model %v", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	w := gen(t, 3, 12, 30, 100_000, 47)
	m, _ := setup(w)
	run := func() *Result {
		opt := whatif.New(m)
		res, err := Select(w, opt, Options{Budget: m.Budget(0.4)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("nondeterministic step counts: %d vs %d", len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i].Index.Key() != b.Steps[i].Index.Key() || a.Steps[i].Kind != b.Steps[i].Kind {
			t.Errorf("step %d differs: %v vs %v", i, a.Steps[i].Index, b.Steps[i].Index)
		}
	}
}

// TestFrontierShape: the frontier is monotone — memory non-decreasing,
// cost non-increasing (drops keep cost, reduce memory).
func TestFrontierShape(t *testing.T) {
	w := gen(t, 2, 15, 40, 100_000, 53)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.8), DropUnused: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Frontier()
	if len(pts) != len(res.Steps)+1 {
		t.Fatalf("frontier has %d points, want %d", len(pts), len(res.Steps)+1)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cost > pts[i-1].Cost+1e-9 {
			t.Errorf("frontier cost increased at %d: %v -> %v", i, pts[i-1].Cost, pts[i].Cost)
		}
	}
}

// TestDiminishingReturns: Property 4 of Section V — step ratios typically
// decrease. We assert a weak version: the last step's ratio does not exceed
// the first step's.
func TestDiminishingReturns(t *testing.T) {
	w := gen(t, 2, 15, 60, 200_000, 59)
	m, opt := setup(w)
	res, err := Select(w, opt, Options{Budget: m.Budget(0.8)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 3 {
		t.Skip("too few steps")
	}
	first, last := res.Steps[0].Ratio, res.Steps[len(res.Steps)-1].Ratio
	if last > first {
		t.Errorf("last ratio %v exceeds first %v", last, first)
	}
}

// totalSize returns P(I*) = sum_k p_k under m.
func totalSize(m *costmodel.Model, sel workload.Selection) int64 {
	var total int64
	for _, k := range sel {
		total += m.IndexSize(k)
	}
	return total
}
