package lp

import (
	"math"
	"time"
)

// This file preserves the seed's dense two-phase primal simplex and its
// cold-start branch-and-bound. They are no longer on any production path —
// SolveLP/SolveMIP use the sparse revised simplex — but remain as the
// differential-testing oracle and the baseline for the node-throughput
// benchmark (results/BENCH_lp.json).

// denseSolveLP solves the LP relaxation with the dense tableau solver.
// Finite upper bounds become explicit constraint rows.
func denseSolveLP(m *Model) (*Solution, error) {
	return denseSolveWithExtra(m, nil, time.Time{})
}

// denseSolveWithExtra solves m plus the given extra constraints (used by
// the dense branch and bound to bound branching variables without copying
// the model).
func denseSolveWithExtra(m *Model, extra []Constraint, deadline time.Time) (*Solution, error) {
	n := m.NumVars()
	if n == 0 {
		return &Solution{Status: Optimal, X: nil, Objective: 0}, nil
	}
	cons := make([]Constraint, 0, len(m.cons)+len(extra)+n)
	cons = append(cons, m.cons...)
	cons = append(cons, extra...)
	for i, u := range m.upper {
		if !math.IsInf(u, 1) {
			cons = append(cons, Constraint{Cols: []int32{int32(i)}, Vals: []float64{1}, Sense: LE, RHS: u})
		}
	}
	t := newTableau(m.obj, cons)
	t.deadline = deadline
	sol := t.solve()
	if sol.Status == Optimal {
		sol.X = sol.X[:n]
	}
	return sol, nil
}

// tableau is a dense simplex tableau in standard form.
type tableau struct {
	rows, cols int // constraint rows, total columns incl. slack/artificial
	nStruct    int // structural variables
	a          [][]float64
	rhs        []float64
	obj        []float64 // phase-2 objective over all columns
	basis      []int
	artStart   int // first artificial column
	iters      int
	z          []float64 // maintained reduced-cost row for the active objective
	zval       float64   // maintained objective value (negated convention not used)
	deadline   time.Time // zero = none; checked periodically during pivoting
}

const denseMaxIters = 200_000

func newTableau(obj []float64, cons []Constraint) *tableau {
	n := len(obj)
	mRows := len(cons)

	// Count auxiliary columns.
	slacks := 0
	arts := 0
	for _, c := range cons {
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			// Row will be negated; flips LE<->GE.
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}
	cols := n + slacks + arts
	t := &tableau{
		rows:     mRows,
		cols:     cols,
		nStruct:  n,
		a:        make([][]float64, mRows),
		rhs:      make([]float64, mRows),
		obj:      make([]float64, cols),
		basis:    make([]int, mRows),
		artStart: n + slacks,
	}
	copy(t.obj, obj)

	slackCol := n
	artCol := n + slacks
	for i, c := range cons {
		row := make([]float64, cols)
		sign := 1.0
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			sign, rhs = -1, -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		for k, j := range c.Cols {
			row[j] += sign * c.Vals[k]
		}
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
		t.rhs[i] = rhs
	}
	return t
}

// solve runs phase 1 (if artificials exist) then phase 2.
func (t *tableau) solve() *Solution {
	if t.artStart < t.cols {
		phase1 := make([]float64, t.cols)
		for j := t.artStart; j < t.cols; j++ {
			phase1[j] = 1
		}
		status := t.optimize(phase1, true)
		if status != Optimal {
			return &Solution{Status: status, Iterations: t.iters}
		}
		if t.objectiveValue(phase1) > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: t.iters}
		}
		t.driveOutArtificials()
	}
	status := t.optimize(t.obj, false)
	if status != Optimal {
		return &Solution{Status: status, Iterations: t.iters}
	}
	x := make([]float64, t.cols)
	for i, b := range t.basis {
		x[b] = t.rhs[i]
	}
	return &Solution{
		Status:     Optimal,
		X:          x,
		Objective:  t.objectiveValue(t.obj),
		Iterations: t.iters,
	}
}

func (t *tableau) objectiveValue(obj []float64) float64 {
	var v float64
	for i, b := range t.basis {
		v += obj[b] * t.rhs[i]
	}
	return v
}

// setObjective initializes the maintained reduced-cost row
// obj_j - c_B * B^-1 A_j for the current basis. banArtificials pins
// artificial columns' reduced costs at zero so they never re-enter
// (phase 2).
func (t *tableau) setObjective(obj []float64, banArtificials bool) {
	rc := make([]float64, t.cols)
	copy(rc, obj)
	for i, b := range t.basis {
		cb := obj[b]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.cols; j++ {
			rc[j] -= cb * row[j]
		}
	}
	if banArtificials {
		for j := t.artStart; j < t.cols; j++ {
			rc[j] = 0
		}
	}
	t.z = rc
	t.zval = t.objectiveValue(obj)
}

// optimize runs primal simplex iterations for the given objective.
// In phase 2 artificial columns are excluded from entering the basis: the
// maintained reduced-cost row is updated by pivots, so a one-time pin at
// setObjective would not survive.
func (t *tableau) optimize(obj []float64, isPhase1 bool) Status {
	t.setObjective(obj, !isPhase1)
	scanCols := t.cols
	if !isPhase1 {
		scanCols = t.artStart
	}
	for ; t.iters < denseMaxIters; t.iters++ {
		if t.iters&1023 == 0 && !t.deadline.IsZero() && time.Now().After(t.deadline) {
			return IterationLimit
		}
		rc := t.z
		// Entering column: Dantzig rule early, Bland's rule when degenerate
		// cycling becomes a risk.
		useBland := t.iters > 10_000
		enter := -1
		best := -eps
		for j := 0; j < scanCols; j++ {
			if rc[j] < -eps {
				if useBland {
					enter = j
					break
				}
				if rc[j] < best {
					best, enter = rc[j], j
				}
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.rows; i++ {
			if t.a[i][enter] > eps {
				r := t.rhs[i] / t.a[i][enter]
				if r < bestRatio-eps || (r < bestRatio+eps && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio, leave = r, i
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return IterationLimit
}

func (t *tableau) pivot(row, col int) {
	p := t.a[row][col]
	inv := 1 / p
	for j := 0; j < t.cols; j++ {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	for i := 0; i < t.rows; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		rowData := t.a[row]
		target := t.a[i]
		for j := 0; j < t.cols; j++ {
			target[j] -= f * rowData[j]
		}
		t.rhs[i] -= f * t.rhs[row]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	if t.z != nil {
		if f := t.z[col]; f != 0 {
			rowData := t.a[row]
			for j := 0; j < t.cols; j++ {
				t.z[j] -= f * rowData[j]
			}
			t.zval += f * t.rhs[row]
		}
	}
	t.basis[row] = col
}

// driveOutArtificials pivots basic artificial variables out of the basis
// (possible at zero level after a feasible phase 1), so phase 2 ignores them.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
		// If no pivot column exists the row is redundant; the artificial
		// stays basic at zero, which is harmless for phase 2.
	}
}

// denseSolveMIP is the seed's cold-start best-first branch and bound: every
// node LP is solved from scratch by the dense tableau, branching on the most
// fractional integer variable via extra constraint rows.
func denseSolveMIP(m *Model, opts MIPOptions) (*MIPResult, error) {
	var deadline time.Time
	if opts.Context != nil {
		deadline, _ = opts.Context.Deadline()
	}
	root, err := denseSolveWithExtra(m, nil, deadline)
	if err != nil {
		return nil, err
	}
	if root.Status != Optimal {
		res := &MIPResult{Solution: *root}
		if root.Status == IterationLimit {
			res.DNF = true
		}
		return res, nil
	}

	type node struct {
		extra []Constraint
		bound float64
	}
	res := &MIPResult{
		Solution: Solution{Status: Infeasible},
		Bound:    root.Objective,
	}
	res.Objective = math.Inf(1)
	iters := root.Iterations

	open := []node{{bound: root.Objective}}
	popBest := func() node {
		best := 0
		for i := range open {
			if open[i].bound < open[best].bound {
				best = i
			}
		}
		n := open[best]
		open[best] = open[len(open)-1]
		open = open[:len(open)-1]
		return n
	}

	gapOK := func() bool {
		if math.IsInf(res.Objective, 1) {
			return false
		}
		if res.Objective == 0 {
			return res.Bound >= -1e-9
		}
		return (res.Objective-res.Bound)/math.Abs(res.Objective) <= opts.Gap+1e-12
	}

	for len(open) > 0 {
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.DNF = true
			break
		}
		lowest := math.Inf(1)
		for i := range open {
			if open[i].bound < lowest {
				lowest = open[i].bound
			}
		}
		if lowest > res.Bound {
			res.Bound = math.Min(lowest, res.Objective)
		}
		if gapOK() {
			break
		}

		nd := popBest()
		if nd.bound >= res.Objective-1e-12 {
			continue // dominated by incumbent
		}
		sol, err := denseSolveWithExtra(m, nd.extra, deadline)
		if err != nil {
			return nil, err
		}
		if sol.Status == IterationLimit && !deadline.IsZero() && time.Now().After(deadline) {
			res.DNF = true
			break
		}
		res.Nodes++
		iters += sol.Iterations
		if sol.Status != Optimal || sol.Objective >= res.Objective-1e-12 {
			continue
		}
		if obj, x, ok := floorFeasible(m, sol.X); ok && obj < res.Objective-1e-12 {
			res.Solution = Solution{Status: Optimal, X: x, Objective: obj}
		}
		branch := -1
		worst := 1e-6
		for i := 0; i < m.NumVars(); i++ {
			if !m.Integer(i) {
				continue
			}
			f := sol.X[i] - math.Floor(sol.X[i])
			if d := math.Min(f, 1-f); d > worst {
				worst, branch = d, i
			}
		}
		if branch == -1 {
			res.Solution = *sol
			res.Solution.Iterations = iters
			continue
		}
		v := sol.X[branch]
		down := append(append([]Constraint(nil), nd.extra...),
			Constraint{Cols: []int32{int32(branch)}, Vals: []float64{1}, Sense: LE, RHS: math.Floor(v)})
		up := append(append([]Constraint(nil), nd.extra...),
			Constraint{Cols: []int32{int32(branch)}, Vals: []float64{1}, Sense: GE, RHS: math.Ceil(v)})
		open = append(open, node{down, sol.Objective}, node{up, sol.Objective})
	}

	if len(open) == 0 && !res.DNF {
		if !math.IsInf(res.Objective, 1) {
			res.Bound = res.Objective
		}
	}
	if !math.IsInf(res.Objective, 1) {
		res.Gap = 0
		if res.Objective != 0 {
			res.Gap = (res.Objective - res.Bound) / math.Abs(res.Objective)
		}
		if res.Gap < 0 {
			res.Gap = 0
		}
	} else {
		res.Gap = math.Inf(1)
	}
	res.Iterations = iters
	return res, nil
}
