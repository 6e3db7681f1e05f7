package indexsel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// TestNoisyCostRobustness injects multiplicative what-if noise (the paper's
// Section IV-B motivation: optimizer estimates are "too often inaccurate")
// and checks that Extend still returns a feasible selection whose TRUE cost
// is close to the noise-free run's.
func TestNoisyCostRobustness(t *testing.T) {
	w := smallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.3)

	clean, err := core.Select(w, whatif.New(m), core.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.15, 0.3} {
		noisy := whatiftest.NoisySource{Src: m, Eps: eps, Seed: 99}
		res, err := core.Select(w, whatif.New(noisy), core.Options{Budget: budget})
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		if got := totalSize(m, res.Selection); got > budget {
			t.Errorf("eps %v: true memory %d exceeds budget %d", eps, got, budget)
		}
		trueCost := m.TotalCost(res.Selection)
		if trueCost > clean.Cost*(1+2*eps)+1e-9 {
			t.Errorf("eps %v: true cost %v degraded beyond 1+2eps vs clean %v",
				eps, trueCost, clean.Cost)
		}
	}
}

// TestNoisyCostInternedFastPath: the interned per-ID cost path must serve the
// SAME (sanitized, perturbed) values as the generic entry point — the noise
// and the sanitization both key off the (query, index) identity, never the
// call route, so the incremental evaluator and a from-scratch evaluation see
// one consistent noisy world.
func TestNoisyCostInternedFastPath(t *testing.T) {
	w := smallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	cands, err := AllCandidates(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := whatif.New(whatiftest.NoisySource{Src: m, Eps: 0.2, Seed: 17})
	in := opt.Interner()
	checked := 0
	for _, k := range cands {
		id := in.Intern(k)
		for _, q := range w.Queries {
			a := opt.CostWithInterned(&q, k, id)
			b := opt.CostWithIndex(q, k)
			if a != b {
				t.Fatalf("interned cost %v != generic cost %v for (q%d, %s)", a, b, q.ID, k.Key())
			}
			checked++
		}
		if opt.IndexSizeInterned(k, id) != opt.IndexSize(k) {
			t.Fatalf("interned size differs for %s", k.Key())
		}
	}
	if checked == 0 {
		t.Fatal("no (query, candidate) pair checked")
	}
}

// TestNoisyCostRobustnessMeasured runs Extend over a NOISY MeasuredSource —
// engine-executed costs perturbed like inaccurate estimates — and checks the
// run still yields a budget-feasible selection with a sane cost. Measured
// sources force whole-selection (exact) evaluation, so this exercises the
// QueryCost noise path the analytic test above never hits.
func TestNoisyCostRobustnessMeasured(t *testing.T) {
	w := smallWorkload(t)
	db, err := NewDB(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 5)
	budget := ms.Budget(0.3)
	noisy := whatiftest.NoisySource{Src: ms, Eps: 0.15, Seed: 31}
	opt := whatif.New(noisy)
	res, err := core.Select(w, opt, core.Options{Budget: budget, ExactEvaluation: true})
	if err != nil {
		t.Fatal(err)
	}
	var mem int64
	for _, k := range res.Selection {
		mem += ms.IndexSize(k) // true catalog sizes; noise never touches sizes
	}
	if mem > budget {
		t.Errorf("true memory %d exceeds budget %d", mem, budget)
	}
	if math.IsNaN(res.Cost) || math.IsInf(res.Cost, 0) || res.Cost < 0 {
		t.Errorf("cost %v not sane", res.Cost)
	}
	if res.Cost > res.InitialCost {
		t.Errorf("selection cost %v worse than no indexes (%v)", res.Cost, res.InitialCost)
	}
}

// TestSelectionAtBudgetProperty: for any replay budget, the returned
// selection's memory never exceeds it and its cost matches a from-scratch
// evaluation.
func TestSelectionAtBudgetProperty(t *testing.T) {
	w := smallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	res, err := core.Select(w, whatif.New(m), core.Options{Budget: m.Budget(0.6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps")
	}
	maxMem := res.Memory
	f := func(raw uint32) bool {
		budget := int64(raw) % (2 * maxMem)
		sel, cost, mem := res.SelectionAt(budget)
		if mem > budget {
			return false
		}
		got := m.TotalCost(sel)
		return got <= cost*1.000001 && got >= cost*0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFrontierDominatesHeuristics: at every prefix budget of the Extend
// trace, Extend's cost is at least as good as the frequency heuristic H1's
// at the same budget — the qualitative Figure 2/4 relationship.
func TestFrontierDominatesHeuristics(t *testing.T) {
	w := smallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	res, err := core.Select(w, whatif.New(m), core.Options{Budget: m.Budget(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Steps {
		if i%3 != 0 {
			continue // sample a third of the budgets to keep the test fast
		}
		adv := NewAdvisor(w, WithBudgetBytes(s.MemAfter))
		h1, err := adv.Select(StrategyH1)
		if err != nil {
			t.Fatal(err)
		}
		_, cost, _ := res.SelectionAt(s.MemAfter)
		if cost > h1.Cost*1.0001 {
			t.Errorf("budget %d: Extend cost %v worse than H1 %v", s.MemAfter, cost, h1.Cost)
		}
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
