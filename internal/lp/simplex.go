package lp

import (
	"math"
	"sort"
	"time"
)

// deadlineEvery is how often (in iterations) the simplex loops poll the
// wall clock, so a deadline interrupts a single long solve and not only
// node boundaries.
const deadlineEvery = 128

func (s *sparseSolver) expired(deadline time.Time) bool {
	return s.iters%deadlineEvery == 0 && !deadline.IsZero() && time.Now().After(deadline)
}

// maxIters bounds a single solve as a safety net against cycling bugs;
// normal termination comes from optimality, Bland's rule, or the deadline.
func (s *sparseSolver) maxIters() int {
	return 20000 + 50*(s.p.m+s.p.n)
}

// dualFeasible reports whether the maintained reduced costs satisfy the
// nonbasic sign conditions of a minimization: at-lower d ≥ 0, at-upper
// d ≤ 0 (fixed columns are exempt).
func (s *sparseSolver) dualFeasible() bool {
	N := s.p.n + s.p.m
	for j := 0; j < N; j++ {
		if s.lo[j] == s.up[j] {
			continue
		}
		switch s.state[j] {
		case atLower:
			if s.d[j] < -s.dualTol {
				return false
			}
		case atUpper:
			if s.d[j] > s.dualTol {
				return false
			}
		}
	}
	return true
}

// buildPivotRow computes alpha = (eᵣ)ᵀ B⁻¹ N over all columns, via BTRAN
// and a row-wise (CSR) gather. Logical column n+i contributes rho_i.
func (s *sparseSolver) buildPivotRow(r int32) {
	s.btranRow(r)
	s.alphaTch = s.alphaTch[:0]
	p := s.p
	for _, i := range s.rhoTch {
		ri := s.rhoV[i]
		if ri == 0 {
			continue
		}
		for idx := p.rowPtr[i]; idx < p.rowPtr[i+1]; idx++ {
			j := p.rowCol[idx]
			if !s.alphaMark[j] {
				s.alphaMark[j] = true
				s.alphaTch = append(s.alphaTch, j)
			}
			s.alpha[j] += p.rowVal[idx] * ri
		}
		lj := int32(p.n) + i
		if !s.alphaMark[lj] {
			s.alphaMark[lj] = true
			s.alphaTch = append(s.alphaTch, lj)
		}
		s.alpha[lj] += ri
	}
	s.clearRho()
}

func (s *sparseSolver) clearAlpha() {
	for _, j := range s.alphaTch {
		s.alpha[j] = 0
		s.alphaMark[j] = false
	}
	s.alphaTch = s.alphaTch[:0]
}

// noteStep updates the anti-cycling stall counter: a run of stallLimit
// consecutive (near-)degenerate pivots switches pricing to Bland's rule,
// which guarantees finite termination; any productive step switches back
// to Dantzig pricing.
func (s *sparseSolver) noteStep(degenerate bool) {
	if degenerate {
		s.stall++
		if s.stall >= stallLimit {
			s.bland = true
		}
	} else {
		s.stall = 0
		s.bland = false
	}
}

func (s *sparseSolver) maybeRefactor() {
	if s.sinceRefact >= refactorEvery {
		if !s.refactorize() {
			// Numerically singular mid-solve: restart from the slack basis.
			s.installBasis(nil)
		}
	}
}

// Partial-pricing parameters: the primal shortlist keeps the priceCap most
// attractive columns from the last full scan and is refreshed when it
// shrinks below priceRefill, so the per-iteration pricing cost is bounded by
// the shortlist size instead of the column count.
const (
	priceCap    = 256
	priceRefill = 32
)

// priceScore is the primal attractiveness of nonbasic column j: the rate of
// objective decrease per unit of movement off its bound (0 when basic,
// fixed, or moving would not improve).
func (s *sparseSolver) priceScore(j int32) float64 {
	if s.state[j] == isBasic || s.lo[j] == s.up[j] {
		return 0
	}
	if s.state[j] == atLower {
		return -s.d[j]
	}
	return s.d[j]
}

// priceFromList picks the best column from the shortlist by current reduced
// costs, compacting out entries that are no longer attractive. It returns
// (-1, 0) when the list holds nothing attractive.
func (s *sparseSolver) priceFromList() (int32, float64) {
	enter := int32(-1)
	best := s.dualTol
	w := 0
	for _, j := range s.priceList {
		sc := s.priceScore(j)
		if sc <= s.dualTol {
			continue
		}
		s.priceList[w] = j
		w++
		if sc > best {
			best = sc
			enter = j
		}
	}
	s.priceList = s.priceList[:w]
	if enter == -1 {
		return -1, 0
	}
	if s.state[enter] == atLower {
		return enter, 1
	}
	return enter, -1
}

// refreshPriceList rebuilds the shortlist from a full scan, keeping the
// priceCap best columns (ties to the lower index, keeping the scan
// deterministic).
func (s *sparseSolver) refreshPriceList() {
	N := int32(s.p.n + s.p.m)
	s.priceList = s.priceList[:0]
	s.priceScores = s.priceScores[:0]
	for j := int32(0); j < N; j++ {
		if sc := s.priceScore(j); sc > s.dualTol {
			s.priceList = append(s.priceList, j)
			s.priceScores = append(s.priceScores, sc)
		}
	}
	if len(s.priceList) > priceCap {
		sort.Sort(priceSorter{s.priceList, s.priceScores})
		s.priceList = s.priceList[:priceCap]
	}
}

// priceSorter orders shortlist candidates by descending score, ties to the
// lower column index.
type priceSorter struct {
	list  []int32
	score []float64
}

func (p priceSorter) Len() int { return len(p.list) }
func (p priceSorter) Less(a, b int) bool {
	if p.score[a] != p.score[b] {
		return p.score[a] > p.score[b]
	}
	return p.list[a] < p.list[b]
}
func (p priceSorter) Swap(a, b int) {
	p.list[a], p.list[b] = p.list[b], p.list[a]
	p.score[a], p.score[b] = p.score[b], p.score[a]
}

// primal runs bounded primal simplex iterations (partial Dantzig pricing on
// the maintained reduced costs, ratio test with bound flips) until
// optimality, unboundedness, or a limit. It assumes the current basis is
// primal feasible.
func (s *sparseSolver) primal(deadline time.Time) Status {
	p := s.p
	N := p.n + p.m
	limit := s.maxIters()
	for {
		if s.iters >= limit {
			return IterationLimit
		}
		if s.expired(deadline) {
			return IterationLimit
		}

		// Pricing: Bland's rule scans everything (anti-cycling needs the
		// lowest attractive index); Dantzig pricing runs over the partial
		// shortlist, falling back to a full refresh scan. Optimality is only
		// ever declared after a clean full scan.
		enter := int32(-1)
		var t float64 // +1 entering rises from lower, -1 falls from upper
		if s.bland {
			for j := int32(0); j < int32(N); j++ {
				if s.priceScore(j) > s.dualTol {
					enter = j
					break
				}
			}
		} else {
			enter, t = s.priceFromList()
			if enter == -1 || len(s.priceList) < priceRefill {
				s.refreshPriceList()
				enter, t = s.priceFromList()
			}
		}
		if enter == -1 {
			return Optimal
		}
		if s.bland {
			if s.state[enter] == atLower {
				t = 1
			} else {
				t = -1
			}
		}

		s.scatterColumn(enter)
		s.ftranCol()

		// Ratio test over the FTRAN support.
		rowTheta := math.Inf(1)
		leave := int32(-1)
		var pivA float64
		var leaveToUpper bool
		for _, r := range s.colTch {
			a := s.colV[r]
			ta := t * a
			br := s.basic[r]
			var lim float64
			var toUpper bool
			if ta > pivTol {
				if math.IsInf(s.lo[br], -1) {
					continue
				}
				lim = (s.xB[r] - s.lo[br]) / ta
			} else if ta < -pivTol {
				if math.IsInf(s.up[br], 1) {
					continue
				}
				lim = (s.up[br] - s.xB[r]) / (-ta)
				toUpper = true
			} else {
				continue
			}
			if lim < 0 {
				lim = 0 // tolerance noise on a slightly infeasible row
			}
			if leave == -1 || lim < rowTheta-1e-9 ||
				(lim <= rowTheta+1e-9 && math.Abs(a) > math.Abs(pivA)) {
				if lim < rowTheta {
					rowTheta = lim
				}
				leave = r
				pivA = a
				leaveToUpper = toUpper
			}
		}

		boundRange := s.up[enter] - s.lo[enter]
		if leave == -1 && math.IsInf(boundRange, 1) {
			return Unbounded
		}
		if boundRange <= rowTheta {
			// Bound flip: the entering variable crosses its own range
			// before any basic variable hits a bound. No basis change.
			for _, r := range s.colTch {
				s.xB[r] -= t * s.colV[r] * boundRange
			}
			if s.state[enter] == atLower {
				s.state[enter] = atUpper
			} else {
				s.state[enter] = atLower
			}
			s.boundFlips++
			s.clearColumn()
			s.iters++
			s.noteStep(boundRange <= degenTol)
			continue
		}

		theta := rowTheta
		for _, i := range s.colTch {
			s.xB[i] -= t * s.colV[i] * theta
		}
		enterVal := s.nonbasicValue(enter) + t*theta

		// Dual update from the pivot row.
		s.buildPivotRow(leave)
		thetaD := s.d[enter] / s.colV[leave]
		for _, j := range s.alphaTch {
			if s.state[j] == isBasic || j == enter {
				continue
			}
			s.d[j] -= thetaD * s.alpha[j]
		}
		lcol := s.basic[leave]
		s.d[lcol] = -thetaD
		s.d[enter] = 0
		s.clearAlpha()

		s.etas.push(s.colV, s.colTch, leave)
		if leaveToUpper {
			s.state[lcol] = atUpper
		} else {
			s.state[lcol] = atLower
		}
		s.pos[lcol] = -1
		s.basic[leave] = enter
		s.state[enter] = isBasic
		s.pos[enter] = leave
		s.xB[leave] = enterVal
		s.clearColumn()

		s.iters++
		s.sinceRefact++
		s.noteStep(theta <= degenTol)
		s.maybeRefactor()
	}
}

// dual runs bounded dual simplex iterations until primal feasibility
// (returned as Optimal — the caller decides whether reduced costs are the
// real ones), proven infeasibility, or a limit. It assumes the maintained
// reduced costs are dual feasible; branch-and-bound relies on this since
// bound tightening preserves dual feasibility of the parent basis.
func (s *sparseSolver) dual(deadline time.Time) Status {
	limit := s.maxIters()
	for {
		if s.iters >= limit {
			return IterationLimit
		}
		if s.expired(deadline) {
			return IterationLimit
		}

		// Leaving row: lazily validate the candidate list, pick the most
		// violated row (ties to the smallest row index).
		r := int32(-1)
		bestInf := s.feasTol
		w := 0
		for _, i := range s.infeas {
			inf := s.rowInfeasibility(i)
			if inf <= s.feasTol {
				s.inInfeas[i] = false
				continue
			}
			s.infeas[w] = i
			w++
			if inf > bestInf {
				bestInf = inf
				r = i
			}
		}
		s.infeas = s.infeas[:w]
		if r == -1 {
			return Optimal // primal feasible
		}

		lcol := s.basic[r]
		var sigma, target float64
		var leaveState int8
		if s.xB[r] < s.lo[lcol] {
			sigma, target, leaveState = -1, s.lo[lcol], atLower
		} else {
			sigma, target, leaveState = 1, s.up[lcol], atUpper
		}

		s.buildPivotRow(r)

		// Entering column: dual ratio test over the pivot-row support.
		q := int32(-1)
		bestRatio := math.Inf(1)
		var pivAr float64
		for _, j := range s.alphaTch {
			if s.state[j] == isBasic || s.lo[j] == s.up[j] {
				continue
			}
			ar := sigma * s.alpha[j]
			if s.state[j] == atLower {
				if ar <= pivTol {
					continue
				}
			} else if ar >= -pivTol {
				continue
			}
			ratio := s.d[j] / ar
			if ratio < 0 {
				ratio = 0
			}
			if q == -1 || ratio < bestRatio-1e-9 {
				bestRatio = ratio
				q = j
				pivAr = ar
				continue
			}
			if ratio <= bestRatio+1e-9 {
				if ratio < bestRatio {
					bestRatio = ratio
				}
				if s.bland {
					if j < q {
						q = j
						pivAr = ar
					}
				} else if math.Abs(ar) > math.Abs(pivAr) {
					q = j
					pivAr = ar
				}
			}
		}
		if q == -1 {
			s.clearAlpha()
			return Infeasible // a violated row with no way out
		}

		thetaD := s.d[q] / s.alpha[q] // signed dual step
		for _, j := range s.alphaTch {
			if s.state[j] == isBasic || j == q {
				continue
			}
			s.d[j] -= thetaD * s.alpha[j]
		}
		s.d[lcol] = -thetaD
		s.d[q] = 0
		s.clearAlpha()

		s.scatterColumn(q)
		s.ftranCol()
		arq := s.colV[r]
		if math.Abs(arq) < pivTol*1e-2 {
			// BTRAN and FTRAN views of the pivot disagree badly: the
			// factorization has drifted. Rebuild and retry the iteration.
			s.clearColumn()
			if !s.refactorize() {
				s.installBasis(nil)
			}
			s.iters++
			continue
		}
		delta := (s.xB[r] - target) / arq
		for _, i := range s.colTch {
			if i != r {
				s.xB[i] -= s.colV[i] * delta
				s.markInfeasible(i)
			}
		}
		enterVal := s.nonbasicValue(q) + delta

		s.etas.push(s.colV, s.colTch, r)
		s.state[lcol] = leaveState
		s.pos[lcol] = -1
		s.basic[r] = q
		s.state[q] = isBasic
		s.pos[q] = r
		s.xB[r] = enterVal
		s.markInfeasible(r) // the entering value may violate q's own bounds
		s.clearColumn()

		s.iters++
		s.sinceRefact++
		s.noteStep(math.Abs(thetaD) <= degenTol)
		s.maybeRefactor()
	}
}

// optimize drives the phase logic: dual simplex toward primal feasibility
// when the start is dual feasible (CoPhy's nonnegative costs make the slack
// basis dual feasible, and branching bound changes keep warm bases dual
// feasible), a zero-cost dual phase 1 otherwise, then primal simplex to
// optimality.
func (s *sparseSolver) optimize(deadline time.Time) Status {
	for pass := 0; pass < 16; pass++ {
		if len(s.infeas) > 0 {
			if s.dualFeasible() {
				if st := s.dual(deadline); st != Optimal {
					return st
				}
			} else {
				// Phase 1: any basis is dual feasible for zero costs, so
				// dual simplex reaches primal feasibility or proves
				// infeasibility; then restore the true reduced costs.
				for j := range s.d {
					s.d[j] = 0
				}
				if st := s.dual(deadline); st != Optimal {
					return st
				}
				s.recomputeDuals(s.p.c)
			}
		}
		if st := s.primal(deadline); st != Optimal {
			return st
		}
		// Refactorization drift can surface primal infeasibility the primal
		// loop does not watch for; validate before declaring optimality.
		s.rebuildInfeasible()
		if len(s.infeas) == 0 {
			return Optimal
		}
	}
	return IterationLimit
}

// primalX writes the current structural variable values into x.
func (s *sparseSolver) primalX(x []float64) {
	for j := 0; j < s.p.n; j++ {
		if s.state[j] == isBasic {
			x[j] = s.xB[s.pos[j]]
		} else {
			x[j] = s.nonbasicValue(int32(j))
		}
	}
}

// objValue evaluates the objective at the current point.
func (s *sparseSolver) objValue() float64 {
	var v float64
	for j, c := range s.p.c {
		if c == 0 {
			continue
		}
		if s.state[j] == isBasic {
			v += c * s.xB[s.pos[j]]
		} else {
			v += c * s.nonbasicValue(int32(j))
		}
	}
	return v
}

// rowDuals extracts the dual multipliers of the current (optimal) basis in
// model row units. The slack of row i is the unit column e_i with zero cost,
// so its reduced cost is −y_i in scaled row units; undoing the compile-time
// row scaling reports duals in model units.
func (s *sparseSolver) rowDuals() []float64 {
	y := make([]float64, s.p.m)
	for i := 0; i < s.p.m; i++ {
		y[i] = -s.d[s.p.n+i] * s.p.rowScale[i]
	}
	return y
}
