package cophy

import (
	"math"
	"sort"

	"repro/internal/fault"
)

// This file holds the Lagrangian side of the solve: the dual ascent that
// bounds the budget-relaxed problem over the FULL candidate set (step 2 of
// Solve), the restriction it picks for models too large to hand to the MIP
// solver whole (the 100k-variable settings of Table I), and the closed-form
// bound that certifies any per-query duals, such as a restricted root LP's,
// over the full set.
//
// The restriction never invents solutions: any integral point of the
// restricted model is feasible for the full model at the same objective, so
// the returned selection is always valid. Only the bound side needs a
// full-model certificate, and this file supplies it.

const (
	// siftFracThreshold keeps candidates whose dual slack the ascent
	// consumed by at least this fraction.
	siftFracThreshold = 0.6
	// siftPruneMargin drops a (query, candidate) pair whose cost exceeds the
	// query's ascent dual by more than this fraction of the remaining
	// headroom to the base cost.
	siftPruneMargin = 0.3
	// siftAscentOps caps the ascent work per lambda evaluation (pass count
	// scales inversely with the pair count, floored at 8 passes).
	siftAscentOps = 80_000_000
)

// qoption is one (candidate, cost) option of a query in frequency-weighted
// units c_jk = freq_j * f_j(k).
type qoption struct {
	cost float64
	k    int32
}

// ascent is the Lagrangian dual machinery: for any per-query duals
// v_j <= c_j0 and budget price lam >= 0,
//
//	sum_j v_j − lam*B − sum_k max(0, sum_j max(0, v_j − c_jk) − w_k − lam*s_k)
//
// is a lower bound on the total workload cost of every selection within the
// budget B (w_k is candidate k's write cost, s_k its size). The bound holds
// for arbitrary (v, lam), so it certifies the full candidate set no matter
// how the restricted model was chosen.
type ascent struct {
	ins    *instance
	budget int64
	perQ   [][]qoption // per query, sorted by cost ascending
	cap0   []float64   // c_j0 = freq_j * base_j
	v      []float64   // current per-query duals
	nextBP []int
	slack  []float64 // per-candidate remaining dual slack w_k + lam*s_k
	pairs  int
	passes int
}

func newAscent(ins *instance, budget int64) *ascent {
	a := &ascent{
		ins:    ins,
		budget: budget,
		perQ:   make([][]qoption, len(ins.perQuery)),
		cap0:   make([]float64, len(ins.perQuery)),
		v:      make([]float64, len(ins.perQuery)),
		nextBP: make([]int, len(ins.perQuery)),
		slack:  make([]float64, len(ins.cands)),
	}
	for j, pq := range ins.perQuery {
		a.cap0[j] = ins.freq[j] * ins.base[j]
		os := make([]qoption, 0, len(pq))
		for _, o := range pq {
			os = append(os, qoption{ins.freq[j] * o.cost, int32(o.other)})
		}
		sort.Slice(os, func(x, y int) bool {
			if os[x].cost != os[y].cost {
				return os[x].cost < os[y].cost
			}
			return os[x].k < os[y].k
		})
		a.perQ[j] = os
		a.pairs += len(os)
	}
	a.passes = 200
	if a.pairs > 0 && a.passes*a.pairs > siftAscentOps {
		a.passes = siftAscentOps / a.pairs
		if a.passes < 8 {
			a.passes = 8
		}
	}
	return a
}

// ascend maximizes the dual for a fixed budget price lam and returns the
// bound. Multi-pass: each pass raises every query's dual by at most one
// breakpoint segment, so early queries cannot starve later ones of slack.
func (a *ascent) ascend(lam float64) float64 {
	for k := range a.slack {
		a.slack[k] = a.ins.cands[k].writeCost + lam*float64(a.ins.cands[k].size)
	}
	for j, os := range a.perQ {
		if len(os) > 0 && os[0].cost < a.cap0[j] {
			a.v[j] = os[0].cost
			a.nextBP[j] = 0
		} else {
			a.v[j] = a.cap0[j]
			a.nextBP[j] = len(os)
		}
	}
	for pass := 0; pass < a.passes; pass++ {
		progress := false
		for j, os := range a.perQ {
			if a.v[j] >= a.cap0[j] {
				continue
			}
			i := a.nextBP[j]
			for i < len(os) && os[i].cost <= a.v[j] {
				i++
			}
			a.nextBP[j] = i
			next := a.cap0[j]
			if i < len(os) && os[i].cost < next {
				next = os[i].cost
			}
			delta := next - a.v[j]
			for _, o := range os[:i] {
				if a.slack[o.k] < delta {
					delta = a.slack[o.k]
				}
			}
			if delta <= 0 {
				continue
			}
			for _, o := range os[:i] {
				a.slack[o.k] -= delta
			}
			a.v[j] += delta
			progress = true
		}
		if !progress {
			break
		}
	}
	var sum float64
	for j := range a.v {
		sum += a.v[j]
	}
	return sum - lam*float64(a.budget)
}

// search scans a geometric lambda grid around the greedy solution's average
// savings density, then refines around the best point. It leaves the ascent
// state (v, slack) at the best lambda and returns (bound, lambda). The
// stopper is polled between grid points; on expiry or cancellation the best
// bound so far stands (it is valid regardless of how far the search got).
func (a *ascent) search(gCost, baseSum float64, stop *fault.Stopper) (float64, float64) {
	lavg := (baseSum - gCost) / float64(a.budget)
	if lavg <= 0 {
		lavg = 1 / float64(a.budget)
	}
	bestLB, bestLam := math.Inf(-1), 0.0
	expired := func() bool {
		return stop.Check() != fault.StopNone
	}
	for i := -14; i <= 3; i++ {
		lam := lavg * math.Pow(2, float64(i))
		if lb := a.ascend(lam); lb > bestLB {
			bestLB, bestLam = lb, lam
		}
		if expired() {
			break
		}
	}
	for f := 0.55; f < 1.9; f += 0.1 {
		if expired() {
			break
		}
		lam := bestLam * f
		if lb := a.ascend(lam); lb > bestLB {
			bestLB, bestLam = lb, lam
		}
	}
	// Restore the ascent state of the winner (cheap relative to the search).
	if lb := a.ascend(bestLam); lb > bestLB {
		bestLB = lb
	}
	return bestLB, bestLam
}

// restriction marks the candidates a restricted model keeps: those whose
// dual slack w_k + lam*s_k the ascent (left at lam by search) consumed by at
// least siftFracThreshold, each query's cheapest option, and the greedy
// selection inG, so the greedy incumbent is representable.
func (a *ascent) restriction(lam float64, inG []bool) []bool {
	in := make([]bool, len(a.ins.cands))
	for k := range a.ins.cands {
		full := a.ins.cands[k].writeCost + lam*float64(a.ins.cands[k].size)
		if inG[k] || (full > 0 && 1-a.slack[k]/full >= siftFracThreshold) {
			in[k] = true
		}
	}
	for _, os := range a.perQ {
		if len(os) > 0 {
			in[os[0].k] = true
		}
	}
	return in
}

// prunes reports whether a restricted model drops query j's option of
// frequency-weighted cost c: one far above the query's ascent dual, by more
// than siftPruneMargin of the remaining headroom to the base cost.
func (a *ascent) prunes(j int, c float64) bool {
	return c > a.v[j]+siftPruneMargin*(a.cap0[j]-a.v[j])
}

// lagrangeBound evaluates the Lagrangian bound at arbitrary per-query duals
// vv (in frequency-weighted units, capped at c_j0) and budget price lam >= 0,
// over ALL candidates. Used to certify restricted-model duals globally.
func (ins *instance) lagrangeBound(vv []float64, lam float64, budget int64) float64 {
	var sum float64
	for j := range vv {
		sum += vv[j]
	}
	sum -= lam * float64(budget)
	for k := range ins.cands {
		var sup float64
		for _, a := range ins.cands[k].queries {
			cjk := ins.freq[a.other] * a.cost
			if vv[a.other] > cjk {
				sup += vv[a.other] - cjk
			}
		}
		over := sup - ins.cands[k].writeCost - lam*float64(ins.cands[k].size)
		if over > 0 {
			sum -= over
		}
	}
	return sum
}
