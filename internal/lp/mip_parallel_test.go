package lp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// randomMIP builds a 0/1 program with knapsack and covering rows — enough
// structure to force real branching (flooring violates the GE rows, so the
// floor heuristic cannot close every node at the root).
func randomMIP(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	n := 12 + rng.Intn(8)
	for j := 0; j < n; j++ {
		cost := math.Round((rng.Float64()*10-6)*10) / 10
		m.AddVar(cost, fmt.Sprintf("b%d", j), 1, true)
	}
	for i := 0; i < 2; i++ {
		coeffs := map[int]float64{}
		tot := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				w := math.Round((1+rng.Float64()*9)*10) / 10
				coeffs[j] = w
				tot += w
			}
		}
		if len(coeffs) > 0 {
			m.AddConstraint(coeffs, LE, math.Round(tot*4)/10)
		}
	}
	for i := 0; i < 3; i++ {
		coeffs := map[int]float64{}
		for k := 0; k < 3; k++ {
			coeffs[rng.Intn(n)] = 1
		}
		m.AddConstraint(coeffs, GE, 1)
	}
	return m
}

type mipRun struct {
	res   *MIPResult
	trace []telemetry.Record
}

func runMIP(t *testing.T, m *Model, parallelism int) mipRun {
	t.Helper()
	tr := telemetry.NewTracer(4096, io.Discard)
	root := tr.Start("test")
	res, err := SolveMIP(m, MIPOptions{Parallelism: parallelism, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tr.Err(); err != nil {
		t.Fatalf("journal write: %v", err)
	}
	return mipRun{res: res, trace: tr.Snapshot()}
}

// TestMIPDeterminismAcrossParallelism is the node pool's bit-identical
// guarantee: incumbent, bound, node counts, every solver statistic, and the
// journal trace must be identical at parallelism 1, 4, and GOMAXPROCS
// across seeds.
func TestMIPDeterminismAcrossParallelism(t *testing.T) {
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}
	for seed := int64(1); seed <= 8; seed++ {
		m := randomMIP(seed)
		base := runMIP(t, m, levels[0])
		if base.res.Nodes < 2 {
			continue // too easy to exercise batching; other seeds cover it
		}
		for _, par := range levels[1:] {
			got := runMIP(t, m, par)
			a, b := base.res, got.res
			if a.Objective != b.Objective || a.Bound != b.Bound || a.Gap != b.Gap {
				t.Fatalf("seed %d par %d: (obj, bound, gap) = (%v, %v, %v) vs (%v, %v, %v)",
					seed, par, b.Objective, b.Bound, b.Gap, a.Objective, a.Bound, a.Gap)
			}
			if a.Nodes != b.Nodes || a.NodesPruned != b.NodesPruned ||
				a.SimplexIters != b.SimplexIters || a.Refactorizations != b.Refactorizations ||
				a.WarmStartHits != b.WarmStartHits || a.DNF != b.DNF {
				t.Fatalf("seed %d par %d: stats %+v vs %+v", seed, par,
					[]int{b.Nodes, b.NodesPruned, b.SimplexIters, b.Refactorizations, b.WarmStartHits},
					[]int{a.Nodes, a.NodesPruned, a.SimplexIters, a.Refactorizations, a.WarmStartHits})
			}
			if !reflect.DeepEqual(a.X, b.X) {
				t.Fatalf("seed %d par %d: incumbent vectors differ", seed, par)
			}
			traceEqualLP(t, seed, par, base.trace, got.trace)
		}
	}
}

// traceEqualLP compares journal traces by span name and attributes (IDs and
// durations are timing-dependent by nature and excluded).
func traceEqualLP(t *testing.T, seed int64, par int, a, b []telemetry.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("seed %d par %d: %d trace records vs %d", seed, par, len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("seed %d par %d: record %d name %q vs %q", seed, par, i, b[i].Name, a[i].Name)
		}
		aa, ba := a[i].Attrs, b[i].Attrs
		if aa != nil && ba != nil {
			// The parallelism attribute intentionally records the setting
			// under test; everything else must match exactly.
			aa = cloneWithout(aa, "parallelism")
			ba = cloneWithout(ba, "parallelism")
		}
		if !reflect.DeepEqual(aa, ba) {
			t.Fatalf("seed %d par %d: record %d (%s) attrs %v vs %v",
				seed, par, i, a[i].Name, ba, aa)
		}
	}
}

func cloneWithout(m map[string]any, key string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if k != key {
			out[k] = v
		}
	}
	return out
}

// TestMIPMaxNodesSetsDNF is the reporting fix: exhausting MaxNodes with no
// deadline must still mark the result DNF when the gap is unproven.
func TestMIPMaxNodesSetsDNF(t *testing.T) {
	m := randomMIP(3)
	res, err := SolveMIP(m, MIPOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatalf("MaxNodes exhaustion did not set DNF: %+v", res)
	}
	full, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.DNF {
		t.Fatalf("unlimited solve reported DNF: %+v", full)
	}
}

// TestMIPMatchesDenseBaseline: the warm-started B&B and the retained dense
// cold-start B&B must agree on optimal objectives.
func TestMIPMatchesDenseBaseline(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		m := randomMIP(seed)
		sparse, err := SolveMIP(m, MIPOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		dense, err := denseSolveMIP(m, MIPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sparse.Status != dense.Status {
			t.Fatalf("seed %d: sparse %v vs dense %v", seed, sparse.Status, dense.Status)
		}
		if sparse.Status != Optimal {
			continue
		}
		tol := 1e-6 * (1 + math.Abs(dense.Objective))
		if !approx(sparse.Objective, dense.Objective, tol) {
			t.Fatalf("seed %d: objective sparse %v vs dense %v", seed, sparse.Objective, dense.Objective)
		}
	}
}
