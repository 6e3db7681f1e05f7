package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSimplexHandSolved: minimize -3x - 5y s.t. x <= 4, 2y <= 12,
// 3x + 2y <= 18 (the classic Wyndor problem); optimum -36 at (2, 6).
func TestSimplexHandSolved(t *testing.T) {
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
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -36, 1e-7) {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if !approx(sol.X[x], 2, 1e-7) || !approx(sol.X[y], 6, 1e-7) {
		t.Errorf("solution = (%v, %v), want (2, 6)", sol.X[x], sol.X[y])
	}
}

// TestSimplexGEAndEQ: minimize 2x + 3y s.t. x + y >= 4, x = 1 -> (1,3), obj 11.
func TestSimplexGEAndEQ(t *testing.T) {
	m := NewModel()
	x := m.AddVar(2, "x", math.Inf(1), false)
	y := m.AddVar(3, "y", math.Inf(1), false)
	m.AddConstraint(map[int]float64{x: 1, y: 1}, GE, 4)
	m.AddConstraint(map[int]float64{x: 1}, EQ, 1)
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 11, 1e-7) {
		t.Fatalf("got %v obj %v, want optimal 11", sol.Status, sol.Objective)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// x - y <= -2 with min x + y: optimum at (0, 2), obj 2.
	m := NewModel()
	x := m.AddVar(1, "x", math.Inf(1), false)
	y := m.AddVar(1, "y", math.Inf(1), false)
	m.AddConstraint(map[int]float64{x: 1, y: -1}, LE, -2)
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 2, 1e-7) {
		t.Fatalf("got %v obj %v, want optimal 2", sol.Status, sol.Objective)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, "x", math.Inf(1), false)
	m.AddConstraint(map[int]float64{x: 1}, GE, 5)
	m.AddConstraint(map[int]float64{x: 1}, LE, 3)
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar(-1, "x", math.Inf(1), false)
	y := m.AddVar(0, "y", math.Inf(1), false)
	m.AddConstraint(map[int]float64{x: 1, y: -1}, LE, 1)
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSimplexUpperBounds(t *testing.T) {
	// min -x - y with x <= 0.7, y <= 0.4 as variable bounds.
	m := NewModel()
	x := m.AddVar(-1, "x", 0.7, false)
	y := m.AddVar(-1, "y", 0.4, false)
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -1.1, 1e-7) {
		t.Fatalf("got %v obj %v, want optimal -1.1", sol.Status, sol.Objective)
	}
	if !approx(sol.X[x], 0.7, 1e-7) || !approx(sol.X[y], 0.4, 1e-7) {
		t.Errorf("solution = (%v, %v)", sol.X[x], sol.X[y])
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Redundant constraints at the optimum (degeneracy) must not cycle.
	m := NewModel()
	x := m.AddVar(-1, "x", math.Inf(1), false)
	y := m.AddVar(-1, "y", math.Inf(1), false)
	m.AddConstraint(map[int]float64{x: 1, y: 1}, LE, 2)
	m.AddConstraint(map[int]float64{x: 1}, LE, 2)
	m.AddConstraint(map[int]float64{y: 1}, LE, 2)
	m.AddConstraint(map[int]float64{x: 2, y: 2}, LE, 4) // duplicate of first
	sol, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -2, 1e-7) {
		t.Fatalf("got %v obj %v, want optimal -2", sol.Status, sol.Objective)
	}
}

func TestEmptyModel(t *testing.T) {
	sol, err := SolveLP(NewModel())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("empty model: %v obj %v", sol.Status, sol.Objective)
	}
}

// TestMIPKnapsack: max value (min negative) 0/1 knapsack, verified against
// brute force.
func TestMIPKnapsack(t *testing.T) {
	values := []float64{10, 13, 7, 8, 9, 4}
	weights := []float64{5, 7, 3, 4, 5, 2}
	capacity := 12.0

	m := NewModel()
	coeffs := map[int]float64{}
	for i, v := range values {
		idx := m.AddVar(-v, "x", 1, true)
		coeffs[idx] = weights[i]
	}
	m.AddConstraint(coeffs, LE, capacity)
	res, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}

	// Brute force.
	best := 0.0
	for mask := 0; mask < 1<<len(values); mask++ {
		var v, w float64
		for i := range values {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	if !approx(res.Objective, -best, 1e-7) {
		t.Errorf("MIP objective = %v, want %v", res.Objective, -best)
	}
	if res.Gap != 0 {
		t.Errorf("gap = %v, want 0", res.Gap)
	}
	on := RoundedVars(m, res.X)
	var w float64
	for _, i := range on {
		w += weights[i]
	}
	if w > capacity+1e-9 {
		t.Errorf("selected weight %v exceeds capacity", w)
	}
}

func TestMIPAlreadyIntegral(t *testing.T) {
	// LP relaxation is integral: no branching needed.
	m := NewModel()
	x := m.AddVar(-1, "x", 1, true)
	y := m.AddVar(-1, "y", 1, true)
	m.AddConstraint(map[int]float64{x: 1, y: 1}, LE, 2)
	res, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Objective, -2, 1e-7) {
		t.Fatalf("got %v obj %v", res.Status, res.Objective)
	}
}

func TestMIPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar(1, "x", 1, true)
	m.AddConstraint(map[int]float64{x: 1}, GE, 2)
	res, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestMIPDeadlineDNF(t *testing.T) {
	// A larger random knapsack with an immediate deadline must report DNF.
	r := rand.New(rand.NewSource(1))
	m := NewModel()
	coeffs := map[int]float64{}
	for i := 0; i < 40; i++ {
		idx := m.AddVar(-(1 + r.Float64()), "x", 1, true)
		coeffs[idx] = 1 + r.Float64()
	}
	m.AddConstraint(coeffs, LE, 10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := SolveMIP(m, MIPOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Error("expected DNF with expired deadline")
	}
}

func TestMIPGapStopsEarly(t *testing.T) {
	// Distinct value/weight ratios keep the LP bound informative; near-equal
	// ratios would make exact proof combinatorial (the known hard case for
	// pure LP-based branch and bound).
	r := rand.New(rand.NewSource(2))
	m := NewModel()
	coeffs := map[int]float64{}
	for i := 0; i < 14; i++ {
		idx := m.AddVar(-math.Round(20*r.Float64()+1), "x", 1, true)
		coeffs[idx] = math.Round(9*r.Float64()) + 1
	}
	m.AddConstraint(coeffs, LE, 23)
	loose, err := SolveMIP(m, MIPOptions{Gap: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SolveMIP(m, MIPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Status != Optimal || tight.Status != Optimal {
		t.Fatalf("statuses: %v, %v", loose.Status, tight.Status)
	}
	if loose.Nodes > tight.Nodes {
		t.Errorf("loose gap explored more nodes (%d) than exact (%d)", loose.Nodes, tight.Nodes)
	}
	// Loose incumbent must be within the claimed gap of the true optimum.
	if loose.Objective > tight.Objective*(1-0.25)+1e-7 {
		t.Errorf("loose objective %v violates 25%% gap vs optimum %v", loose.Objective, tight.Objective)
	}
}

// TestMIPRandomAgainstBruteForce: property — random small 0/1 problems with
// two knapsack constraints match exhaustive enumeration.
func TestMIPRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nv := 4 + r.Intn(6)
		values := make([]float64, nv)
		w1 := make([]float64, nv)
		w2 := make([]float64, nv)
		for i := range values {
			values[i] = math.Round(10*r.Float64()) + 1
			w1[i] = math.Round(5*r.Float64()) + 1
			w2[i] = math.Round(5 * r.Float64())
		}
		c1 := math.Round(float64(nv)) + 2
		c2 := math.Round(float64(nv) * 1.5)

		m := NewModel()
		co1 := map[int]float64{}
		co2 := map[int]float64{}
		for i := 0; i < nv; i++ {
			idx := m.AddVar(-values[i], "x", 1, true)
			co1[idx] = w1[i]
			co2[idx] = w2[i]
		}
		m.AddConstraint(co1, LE, c1)
		m.AddConstraint(co2, LE, c2)
		res, err := SolveMIP(m, MIPOptions{})
		if err != nil {
			t.Fatal(err)
		}

		best := 0.0
		for mask := 0; mask < 1<<nv; mask++ {
			var v, a, b float64
			for i := 0; i < nv; i++ {
				if mask&(1<<i) != 0 {
					v += values[i]
					a += w1[i]
					b += w2[i]
				}
			}
			if a <= c1 && b <= c2 && v > best {
				best = v
			}
		}
		if res.Status != Optimal || !approx(res.Objective, -best, 1e-6) {
			t.Errorf("trial %d: MIP %v obj %v, brute force %v", trial, res.Status, res.Objective, -best)
		}
	}
}

func TestDeadlineInterruptsSingleSolve(t *testing.T) {
	// The root LP of this random sparse model alone takes about 5 000
	// simplex iterations (7.7 s on a 2-vCPU Xeon), so a 150 ms context
	// deadline must be honored INSIDE one simplex solve, not only between
	// branch-and-bound nodes: the stopper hands the context's deadline to
	// the simplex loops.
	r := rand.New(rand.NewSource(5))
	m := NewModel()
	const n = 1000
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddVar(-r.Float64(), "x", 1, true)
	}
	for c := 0; c < n; c++ {
		coeffs := map[int]float64{}
		for i := 0; i < n; i++ {
			if r.Float64() < 0.05 {
				coeffs[vars[i]] = 1 + r.Float64()
			}
		}
		m.AddConstraint(coeffs, LE, 5+10*r.Float64())
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(150*time.Millisecond))
	defer cancel()
	res, err := SolveMIP(m, MIPOptions{Context: ctx, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Errorf("deadline ignored inside the root LP: solve took %v", elapsed)
	}
	if !res.DNF || res.Nodes > 1 {
		t.Errorf("timed-out root solve: DNF=%v after %d nodes, want DNF in the root LP", res.DNF, res.Nodes)
	}
}
