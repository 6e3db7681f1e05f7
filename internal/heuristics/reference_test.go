package heuristics

import (
	"sort"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// This file holds the differential oracle for H4/H5 scoring, the skyline
// filter and the greedy scan: the original path that probes by value,
// interns lazily, scans every query for write costs and breaks ranking ties
// on Key() strings. Its total cost sums the selection in the same canonical
// key order as TotalCost (the original ranged over the Selection map, whose
// order Go randomizes). The production path must reproduce its scores,
// ranking, selection, cost and what-if call count exactly.

// benefitReference is the original Benefit: read improvement over every
// query accessing the leading attribute, minus writeCostReference.
func benefitReference(w *workload.Workload, opt *whatif.Optimizer, k workload.Index) float64 {
	var b float64
	for _, qid := range w.QueriesWithAttr(k.Leading()) {
		q := w.Queries[qid]
		base := opt.BaseCost(q)
		if c := opt.CostWithIndex(q, k); c < base {
			b += float64(q.Freq) * (base - c)
		}
	}
	return b - writeCostReference(w, opt, k)
}

// writeCostReference scans every query for the write templates charging k.
func writeCostReference(w *workload.Workload, opt *whatif.Optimizer, k workload.Index) float64 {
	var c float64
	for _, q := range w.Queries {
		if q.IsWrite() {
			c += float64(q.Freq) * opt.MaintenanceCost(q, k)
		}
	}
	return c
}

// scoreReference scores cands for H4 (benefit) or H5 (benefit per byte).
func scoreReference(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, rule Rule) []float64 {
	scores := make([]float64, len(cands))
	for i, k := range cands {
		b := benefitReference(w, opt, k)
		if rule == H4 {
			scores[i] = b
		} else {
			scores[i] = b / float64(opt.IndexSize(k))
		}
	}
	return scores
}

// rankReference orders pool positions by descending score, ties by Key().
func rankReference(pool []workload.Index, scores []float64) []int {
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return pool[ia].Key() < pool[ib].Key()
	})
	return order
}

// skylineReference is the original map-keyed per-query skyline.
func skylineReference(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index) []workload.Index {
	type entry struct {
		idx  int
		cost float64
		size int64
	}
	survives := make([]bool, len(cands))
	byQuery := make(map[int][]entry)
	for i, k := range cands {
		for _, qid := range w.QueriesWithAttr(k.Leading()) {
			q := w.Queries[qid]
			c := opt.CostWithIndex(q, k)
			if c < opt.BaseCost(q) {
				byQuery[int(qid)] = append(byQuery[int(qid)], entry{i, c, opt.IndexSize(k)})
			}
		}
	}
	for _, entries := range byQuery {
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].cost != entries[b].cost {
				return entries[a].cost < entries[b].cost
			}
			return entries[a].size < entries[b].size
		})
		minSize := int64(1<<62 - 1)
		for _, e := range entries {
			if e.size < minSize {
				survives[e.idx] = true
				minSize = e.size
			}
		}
	}
	var out []workload.Index
	for i, ok := range survives {
		if ok {
			out = append(out, cands[i])
		}
	}
	return out
}

// totalCostReference is TotalCost through the by-value probes.
func totalCostReference(w *workload.Workload, opt *whatif.Optimizer, sel workload.Selection) float64 {
	ks := sel.Sorted()
	var total float64
	for _, q := range w.Queries {
		best := opt.BaseCost(q)
		for _, k := range ks {
			if !workload.Applicable(q, k) {
				continue
			}
			if c := opt.CostWithIndex(q, k); c < best {
				best = c
			}
		}
		if q.IsWrite() {
			for _, k := range ks {
				best += opt.MaintenanceCost(q, k)
			}
		}
		total += float64(q.Freq) * best
	}
	return total
}

// referenceResult is what the oracle's H4/H5 run yields.
type referenceResult struct {
	scores []float64
	order  []int
	sel    workload.Selection
	cost   float64
	memory int64
	pool   []workload.Index
}

// selectReference runs H4 or H5 (optionally skyline-filtered) the original
// way.
func selectReference(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, rule Rule, budget int64, skyline bool) referenceResult {
	pool := cands
	if skyline {
		pool = skylineReference(w, opt, pool)
	}
	r := referenceResult{pool: pool, sel: workload.NewSelection()}
	r.scores = scoreReference(w, opt, pool, rule)
	r.order = rankReference(pool, r.scores)
	in := opt.Interner()
	ids := workload.NewIDSelection(in)
	for _, i := range r.order {
		k := pool[i]
		id := in.Intern(k)
		if ids.Has(id) || r.scores[i] <= 0 {
			continue
		}
		if sz := opt.IndexSize(k); r.memory+sz <= budget {
			ids.Add(id)
			r.memory += sz
		}
	}
	r.sel = ids.Selection()
	r.cost = totalCostReference(w, opt, r.sel)
	return r
}
