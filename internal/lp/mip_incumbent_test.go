package lp

import (
	"math"
	"strings"
	"testing"
)

// incumbentKnapsack builds max 8a+11b+6c+4d s.t. 5a+7b+4c+3d <= 14, binary —
// i.e. min the negated objective. Optimum picks b, c, d (value 21, weight 14).
func incumbentKnapsack() *Model {
	m := NewModel()
	a := m.AddVar(-8, "a", 1, true)
	b := m.AddVar(-11, "b", 1, true)
	c := m.AddVar(-6, "c", 1, true)
	d := m.AddVar(-4, "d", 1, true)
	m.AddConstraint(map[int]float64{a: 5, b: 7, c: 4, d: 3}, LE, 14)
	return m
}

func TestMIPIncumbentSeedsSearch(t *testing.T) {
	m := incumbentKnapsack()
	// Feasible but suboptimal: {b, d} = value 15.
	res, err := SolveMIP(m, MIPOptions{Incumbent: []float64{0, 1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-(-21)) > 1e-9 {
		t.Fatalf("status=%v obj=%v, want optimal -21", res.Status, res.Objective)
	}

	// With a wide-open gap the seeded incumbent terminates the search at the
	// root (the root's floor heuristic may still sharpen it, but no
	// branching happens).
	res, err = SolveMIP(m, MIPOptions{Incumbent: []float64{0, 1, 0, 1}, Gap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > -15 {
		t.Fatalf("obj=%v, want the seeded incumbent -15 or better", res.Objective)
	}
	if res.Nodes > 1 {
		t.Fatalf("nodes=%d, want gap to fire at the root", res.Nodes)
	}
	if res.DNF {
		t.Fatal("DNF set on a gap-terminated solve")
	}
}

func TestMIPIncumbentRejected(t *testing.T) {
	m := incumbentKnapsack()
	cases := []struct {
		name string
		x    []float64
		want string
	}{
		{"wrong length", []float64{1, 0}, "entries"},
		{"fractional", []float64{0.5, 0, 0, 0}, "fractional"},
		{"bounds", []float64{2, 0, 0, 0}, "bounds"},
		{"infeasible", []float64{1, 1, 1, 1}, "constraint"},
	}
	for _, tc := range cases {
		if _, err := SolveMIP(m, MIPOptions{Incumbent: tc.x}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestMIPCrashAtUpper(t *testing.T) {
	m := incumbentKnapsack()
	plain, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A crash hint only changes the starting vertex: any hint set — including
	// out-of-range indices, which are ignored — must reach the same optimum.
	for _, hint := range [][]int{{0}, {1, 3}, {0, 1, 2, 3}, {-1, 2, 99}} {
		res, err := SolveMIP(m, MIPOptions{CrashAtUpper: hint})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal || math.Abs(res.Objective-plain.Objective) > 1e-9 {
			t.Fatalf("hint %v: status=%v obj=%v, want optimal %v",
				hint, res.Status, res.Objective, plain.Objective)
		}
		if res.WarmStartHits != plain.WarmStartHits {
			t.Fatalf("hint %v: crash start counted as a warm-start hit", hint)
		}
	}
	// Hints on columns without a finite upper bound are ignored, not applied.
	free := NewModel()
	x := free.AddVar(1, "x", math.Inf(1), false)
	free.AddConstraint(map[int]float64{x: 1}, GE, 2)
	res, err := SolveMIP(free, MIPOptions{CrashAtUpper: []int{x}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-2) > 1e-9 {
		t.Fatalf("status=%v obj=%v, want optimal 2", res.Status, res.Objective)
	}
}

func TestMIPRootRelaxationReported(t *testing.T) {
	m := incumbentKnapsack()
	res, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RootDuals == nil || len(res.RootDuals) != m.NumConstraints() {
		t.Fatalf("RootDuals=%v, want one per constraint", res.RootDuals)
	}
	if res.RootX == nil || len(res.RootX) != m.NumVars() {
		t.Fatalf("RootX has %d entries, want %d", len(res.RootX), m.NumVars())
	}
	if res.RootObjective > res.Objective+1e-9 {
		t.Fatalf("root relaxation %v above MIP optimum %v", res.RootObjective, res.Objective)
	}
	// The root LP is the plain relaxation: duals and objective must agree
	// with a standalone SolveLP of the same model.
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-res.RootObjective) > 1e-9 {
		t.Fatalf("root obj %v != SolveLP obj %v", res.RootObjective, sol.Objective)
	}
	for i := range sol.RowDuals {
		if math.Abs(sol.RowDuals[i]-res.RootDuals[i]) > 1e-9 {
			t.Fatalf("dual %d: %v != %v", i, res.RootDuals[i], sol.RowDuals[i])
		}
	}
}

func TestLPRowDualsSatisfyDuality(t *testing.T) {
	// min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: classic LP with
	// known optimum (2, 6), duals (0, -3/2, -1) under the "reduced cost =
	// obj - yA" sign convention for <= rows in a minimization.
	m := NewModel()
	x := m.AddVar(-3, "x", math.Inf(1), false)
	y := m.AddVar(-5, "y", math.Inf(1), false)
	m.AddConstraint(map[int]float64{x: 1}, LE, 4)
	m.AddConstraint(map[int]float64{y: 2}, LE, 12)
	m.AddConstraint(map[int]float64{x: 3, y: 2}, LE, 18)
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-(-36)) > 1e-9 {
		t.Fatalf("status=%v obj=%v, want optimal -36", sol.Status, sol.Objective)
	}
	want := []float64{0, -1.5, -1}
	for i, w := range want {
		if math.Abs(sol.RowDuals[i]-w) > 1e-9 {
			t.Fatalf("dual %d = %v, want %v", i, sol.RowDuals[i], w)
		}
	}
	// Strong duality: y'b equals the primal objective.
	var yb float64
	for i, rhs := range []float64{4, 12, 18} {
		yb += sol.RowDuals[i] * rhs
	}
	if math.Abs(yb-sol.Objective) > 1e-9 {
		t.Fatalf("dual objective %v != primal %v", yb, sol.Objective)
	}
}

// TestMIPObjConstantInGap: an objective constant shifts every objective the
// MIP reports, and the gap it stops on is relative to the whole objective.
func TestMIPObjConstantInGap(t *testing.T) {
	m := incumbentKnapsack()
	m.SetObjConstant(200)
	exact, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Optimum −21 and root relaxation −22 (a, b and half of c), plus 200.
	if exact.Status != Optimal || math.Abs(exact.Objective-179) > 1e-9 || math.Abs(exact.Bound-179) > 1e-9 {
		t.Fatalf("status=%v obj=%v bound=%v, want optimal 179 proven", exact.Status, exact.Objective, exact.Bound)
	}
	if math.Abs(exact.RootObjective-178) > 1e-9 {
		t.Fatalf("root objective %v, want 178", exact.RootObjective)
	}

	// From the {b, d} incumbent (185) the root bound 178 is within 5 % of the
	// total objective, though 7/15 of the part the variables control: the
	// search must stop at the root.
	res, err := SolveMIP(m, MIPOptions{Incumbent: []float64{0, 1, 0, 1}, Gap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 1 || res.DNF || res.Objective > 185 || res.Gap > 0.05 {
		t.Fatalf("nodes=%d dnf=%v obj=%v gap=%v, want a root stop within 5%% of 185 or better",
			res.Nodes, res.DNF, res.Objective, res.Gap)
	}
	if want := (res.Objective - res.Bound) / res.Objective; math.Abs(res.Gap-want) > 1e-12 {
		t.Fatalf("gap %v, want %v from objective %v and bound %v", res.Gap, want, res.Objective, res.Bound)
	}
}
