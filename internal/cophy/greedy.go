package cophy

import (
	"container/heap"
	"math"
	"sort"
)

// cheapBound returns the larger of two valid lower bounds on the cost of
// any selection within the budget. They cost one pass over the candidate
// lists and a sort, and certify the greedy incumbent on most advisor-sized
// instances.
//
//  1. Knapsack: F(∅) minus the fractional-knapsack optimum over the
//     candidates' root benefits (each candidate's total improvement over the
//     BASE costs, net of its write cost: an upper bound on its marginal gain
//     in any context, since a query's improvement under a set of indexes
//     never exceeds the sum of the individual improvements).
//  2. Memory-relaxed: sum_j freq_j * best_j, where best_j is query j's
//     cheapest cost under any usable candidate: no budget can beat it.
//
// Candidates larger than the budget or without a positive root benefit are
// never worth selecting, so both bounds skip them.
func (ins *instance) cheapBound(budget int64) float64 {
	type item struct {
		ben     float64
		size    int64
		density float64
	}
	var items []item
	best := append([]float64(nil), ins.base...)
	for ci := range ins.cands {
		info := &ins.cands[ci]
		if len(info.queries) == 0 || info.size > budget {
			continue
		}
		ben := -info.writeCost
		for _, a := range info.queries {
			ben += ins.freq[a.other] * (ins.base[a.other] - a.cost)
		}
		if ben <= 0 {
			continue
		}
		items = append(items, item{ben, info.size, ben / float64(info.size)})
		for _, a := range info.queries {
			if a.cost < best[a.other] {
				best[a.other] = a.cost
			}
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].density > items[j].density })
	gain := 0.0
	room := budget
	for _, it := range items {
		if it.size <= room {
			gain += it.ben
			room -= it.size
			continue
		}
		gain += it.ben * float64(room) / float64(it.size)
		break
	}
	knapsack := ins.baseTotal() - gain
	var relaxed float64
	for j := range best {
		relaxed += ins.freq[j] * best[j]
	}
	return math.Max(knapsack, relaxed)
}

// baseTotal returns F(∅).
func (ins *instance) baseTotal() float64 {
	var total float64
	for j := range ins.base {
		total += ins.freq[j] * ins.base[j]
	}
	return total
}

// greedy builds an incumbent with the lazy-greedy (CELF) rule: repeatedly
// select the candidate with the best MARGINAL gain per byte given everything
// already selected. In the single-index setting marginal gains are
// submodular — a candidate's gain only shrinks as the selection grows — so
// lazily re-evaluated priority-queue entries give the exact greedy solution
// without rescoring every candidate each round. It is the solve's first
// incumbent and the MIP's starting point.
func (ins *instance) greedy(budget int64) ([]int, float64) {
	return ins.greedyMasked(budget, nil)
}

// greedyMasked is greedy restricted to the candidates with allowed[ci] true
// (nil allows all). The MIP step runs it over the root LP's fractional
// support, where the density rule is no longer distracted by high-density
// candidates the relaxation proves unhelpful.
func (ins *instance) greedyMasked(budget int64, allowed []bool) ([]int, float64) {
	cur := append([]float64(nil), ins.base...)
	marginal := func(ci int) float64 {
		var gain float64
		for _, a := range ins.cands[ci].queries {
			if a.cost < cur[a.other] {
				gain += ins.freq[a.other] * (cur[a.other] - a.cost)
			}
		}
		return gain - ins.cands[ci].writeCost
	}

	h := &candHeap{ins: ins}
	for ci := range ins.cands {
		info := &ins.cands[ci]
		if allowed != nil && !allowed[ci] {
			continue
		}
		if len(info.queries) == 0 || info.size > budget {
			continue
		}
		if g := marginal(ci); g > 0 {
			h.entries = append(h.entries, heapEntry{ci, g / float64(info.size), true})
		}
	}
	heap.Init(h)

	var chosen []int
	var mem int64
	cost := ins.baseTotal()
	for h.Len() > 0 {
		e := heap.Pop(h).(heapEntry)
		info := &ins.cands[e.ci]
		if mem+info.size > budget {
			continue // memory only grows; this candidate never fits again
		}
		if !e.fresh {
			g := marginal(e.ci)
			if g <= 0 {
				continue
			}
			d := g / float64(info.size)
			if h.Len() > 0 && d < h.entries[0].density {
				heap.Push(h, heapEntry{e.ci, d, true})
				continue
			}
			e.density = d
		}
		gain := marginal(e.ci)
		if gain <= 0 {
			continue
		}
		chosen = append(chosen, e.ci)
		mem += info.size
		cost -= gain
		for _, a := range info.queries {
			if a.cost < cur[a.other] {
				cur[a.other] = a.cost
			}
		}
		// All remaining entries are now potentially stale.
		for i := range h.entries {
			h.entries[i].fresh = false
		}
	}
	return chosen, cost
}

type heapEntry struct {
	ci      int
	density float64
	fresh   bool
}

// candHeap is a max-heap on density with a deterministic tie-break.
type candHeap struct {
	ins     *instance
	entries []heapEntry
}

func (h *candHeap) Len() int { return len(h.entries) }
func (h *candHeap) Less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.density != b.density {
		return a.density > b.density
	}
	return h.ins.cands[a.ci].index.Key() < h.ins.cands[b.ci].index.Key()
}
func (h *candHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *candHeap) Push(x interface{}) {
	h.entries = append(h.entries, x.(heapEntry))
}
func (h *candHeap) Pop() interface{} {
	old := h.entries
	n := len(old)
	x := old[n-1]
	h.entries = old[:n-1]
	return x
}
