package cophy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/candidates"
	"repro/internal/workload"
)

// TestAscentBoundBelowOptimum checks the Lagrangian ascent's core contract:
// its bound never exceeds the true optimum, at any lambda the grid visits.
func TestAscentBoundBelowOptimum(t *testing.T) {
	w := gen(t, 1, 8, 12, 20_000, 3)
	m, opt := setup(w)
	cands := singleAttrCandidates(w, 8)
	budget := m.Budget(0.4)
	want := bruteForce(w, m, cands, budget)

	ins := buildInstance(w, opt, cands, nil)
	_, gCost := ins.greedy(budget)
	var baseSum float64
	for j := range ins.base {
		baseSum += ins.freq[j] * ins.base[j]
	}
	asc := newAscent(ins, budget)
	bound, lam := asc.search(gCost, baseSum, nil)
	if bound > want+1e-6*want {
		t.Fatalf("ascent bound %v exceeds optimum %v", bound, want)
	}
	// The closed-form evaluation at the ascent's own duals must agree with
	// the bound the ascent reported.
	if lb := ins.lagrangeBound(asc.v, lam, budget); math.Abs(lb-bound) > 1e-6*math.Abs(bound)+1e-9 {
		t.Fatalf("lagrangeBound(v, lam) = %v, ascent reported %v", lb, bound)
	}
	// Validity is lambda-independent: spot-check off-grid prices too.
	for _, f := range []float64{0, 0.123, 3.7} {
		lb := asc.ascend(lam * f)
		if lb > want+1e-6*want {
			t.Fatalf("bound %v at lambda %v exceeds optimum %v", lb, lam*f, want)
		}
	}
}

// restrictAbove lowers the size above which the MIP runs over the ascent's
// restriction, for the rest of the test.
func restrictAbove(t *testing.T, vars int) {
	old := maxDirectLPSize
	maxDirectLPSize = vars
	t.Cleanup(func() { maxDirectLPSize = old })
}

// TestSiftedPathSolvesAndCertifies runs the MIP over the ascent's
// restriction on an instance small enough to brute force: the selection must be feasible, no worse than
// greedy, and the reported gap must be a valid certificate (cost reduced by
// the gap never exceeds the true optimum).
func TestSiftedPathSolvesAndCertifies(t *testing.T) {
	w := gen(t, 1, 8, 12, 20_000, 3)
	m, opt := setup(w)
	cands := singleAttrCandidates(w, 8)
	budget := m.Budget(0.4)
	want := bruteForce(w, m, cands, budget)

	restrictAbove(t, 1)
	res, err := Solve(w, opt, cands, Options{Budget: budget, Gap: 0.05, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Provenance.Sifted {
		t.Fatal("the MIP did not run over the ascent's restriction")
	}
	if res.Stats.DNF {
		t.Fatalf("sifted path reported DNF without a time limit (gap %v)", res.Stats.Gap)
	}
	if res.Memory > budget {
		t.Fatalf("memory %d exceeds budget %d", res.Memory, budget)
	}
	if got := m.TotalCost(res.Selection); math.Abs(got-res.Cost) > 1e-6*got {
		t.Fatalf("reported cost %v != model cost %v", res.Cost, got)
	}
	if res.Cost < want-1e-6*want {
		t.Fatalf("cost %v below brute-force optimum %v: invalid selection accounting", res.Cost, want)
	}
	// The certificate bound cost*(1-gap) is a lower bound on the full
	// problem, hence on the optimum.
	if !math.IsInf(res.Stats.Gap, 1) {
		bound := res.Cost - res.Stats.Gap*math.Abs(res.Cost)
		if bound > want+1e-6*want {
			t.Fatalf("certified bound %v exceeds optimum %v (gap %v)", bound, want, res.Stats.Gap)
		}
	}
}

// TestSiftedPathOnMultiAttributeInstance runs the sifting path on slightly
// larger multi-attribute instances against the exact solve of the whole
// model: the sifted selection may be worse (it searches a restriction) but
// must stay feasible and never beat the exact optimum, its certificate must
// hold against that optimum, and it reports DNF exactly when the
// full-model certificate misses the gap. On seed 1 the restriction drops
// the optimum, so the restricted MIP's own bound would not be a valid
// certificate.
func TestSiftedPathOnMultiAttributeInstance(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		gap  float64
	}{{7, 0.05}, {1, 0}} {
		t.Run(fmt.Sprintf("seed=%d/gap=%g", tc.seed, tc.gap), func(t *testing.T) {
			w := gen(t, 1, 8, 14, 50_000, tc.seed)
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
			direct, err := Solve(w, opt, cands, Options{Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			restrictAbove(t, 1)
			sifted, err := Solve(w, opt, cands, Options{Budget: budget, Gap: tc.gap, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if !sifted.Provenance.Sifted {
				t.Fatal("the MIP did not run over the ascent's restriction")
			}
			if missed := sifted.Stats.Gap > tc.gap+gapTol; sifted.Stats.DNF != missed {
				t.Fatalf("DNF=%v with proven gap %v against %v", sifted.Stats.DNF, sifted.Stats.Gap, tc.gap)
			}
			if sifted.Memory > budget {
				t.Fatalf("memory %d exceeds budget %d", sifted.Memory, budget)
			}
			if sifted.Cost < direct.Cost-1e-6*direct.Cost {
				t.Fatalf("sifted cost %v below the direct optimum %v", sifted.Cost, direct.Cost)
			}
			if bound := sifted.Cost - sifted.Stats.Gap*sifted.Cost; bound > direct.Cost+1e-6*direct.Cost {
				t.Fatalf("certified bound %v exceeds direct optimum %v", bound, direct.Cost)
			}
		})
	}
}
