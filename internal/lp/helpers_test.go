package lp

import (
	"sort"
	"time"
)

// Test-only conveniences: map-form constraints, a one-shot LP solve and 0/1
// extraction. Production callers (CoPhy) build rows with AddConstraintCols
// and solve with SolveMIP.

const eps = 1e-9

// AddConstraint appends a constraint given as a coefficient map. The map is
// converted to sorted sparse-slice form (so solver arithmetic is independent
// of map iteration order) and not retained.
func (m *Model) AddConstraint(coeffs map[int]float64, sense Sense, rhs float64) {
	cols := make([]int32, 0, len(coeffs))
	for j := range coeffs {
		cols = append(cols, int32(j))
	}
	sort.Slice(cols, func(a, b int) bool { return cols[a] < cols[b] })
	vals := make([]float64, len(cols))
	for i, j := range cols {
		vals[i] = coeffs[int(j)]
	}
	m.AddConstraintCols(cols, vals, sense, rhs)
}

// SolveLP solves the LP relaxation of m (integrality ignored) with the
// sparse revised simplex. Finite upper bounds are handled as variable
// bounds, not rows.
func SolveLP(m *Model) (*Solution, error) {
	if m.NumVars() == 0 {
		return &Solution{Status: Optimal, X: nil, Objective: 0}, nil
	}
	p := compile(m)
	s := newSparseSolver(p)
	s.reset(nil, nil)
	sol := s.solve(time.Time{})
	return sol, nil
}

// solve runs optimize and packages a Solution. X is populated for Optimal
// and IterationLimit (the latter so callers can inspect the partial point).
func (s *sparseSolver) solve(deadline time.Time) *Solution {
	st := s.optimize(deadline)
	sol := &Solution{Status: st, Iterations: s.iters}
	if st == Optimal || st == IterationLimit {
		x := make([]float64, s.p.n)
		s.primalX(x)
		sol.X = x
		sol.Objective = s.objValue()
	}
	if st == Optimal {
		sol.RowDuals = s.rowDuals()
	}
	return sol
}

// RoundedVars returns the integer-variable indices of x whose value rounds
// to 1 (within tolerance), sorted ascending — a convenience for extracting
// 0/1 selections from MIP solutions.
func RoundedVars(m *Model, x []float64) []int {
	var on []int
	for i := 0; i < m.NumVars(); i++ {
		if m.Integer(i) && x[i] > 0.5 {
			on = append(on, i)
		}
	}
	sort.Ints(on)
	return on
}
