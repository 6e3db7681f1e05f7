// Package compress implements workload compression for index selection, the
// preprocessing lever of the paper's related work: Chaudhuri et al. propose
// compressing the workload within a user-accepted error bound (SIGMOD 2002),
// while DB2 simply keeps the top-k most expensive queries (Zilio et al.,
// VLDB 2004). Both reduce every downstream cost — what-if calls, candidate
// enumeration, solving — at a bounded loss of fidelity.
//
// Templates are ranked by their total base cost b_j * f_j(0) (the work an
// untuned system spends on them). ByCoverage keeps the shortest prefix of
// that ranking covering at least (1 - eps) of the total base cost.
// Selections computed on the compressed workload are meant to be EVALUATED
// on the original one; tests quantify the quality loss.
package compress

import (
	"fmt"
	"sort"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// Stats reports what compression kept.
type Stats struct {
	// KeptTemplates of TotalTemplates remain.
	KeptTemplates, TotalTemplates int
	// Coverage is the kept share of the total frequency-weighted base cost.
	Coverage float64
}

// ByCoverage keeps the most expensive templates until their cumulative base
// cost reaches (1 - eps) of the total (Chaudhuri-style error bound).
// eps must be in [0, 1).
func ByCoverage(w *workload.Workload, opt *whatif.Optimizer, eps float64) (*workload.Workload, Stats, error) {
	if eps < 0 || eps >= 1 {
		return nil, Stats{}, fmt.Errorf("compress: eps must be in [0, 1) (got %g)", eps)
	}
	ranked, total := rank(w, opt)
	target := (1 - eps) * total
	var cum float64
	keep := 0
	for keep < len(ranked) && cum < target {
		cum += ranked[keep].cost
		keep++
	}
	return build(w, ranked[:keep], total)
}

type rankedQuery struct {
	q    workload.Query
	cost float64
}

// rank orders templates by descending total base cost.
func rank(w *workload.Workload, opt *whatif.Optimizer) ([]rankedQuery, float64) {
	ranked := make([]rankedQuery, 0, w.NumQueries())
	var total float64
	for _, q := range w.Queries {
		c := float64(q.Freq) * opt.BaseCost(q)
		ranked = append(ranked, rankedQuery{q, c})
		total += c
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].cost != ranked[j].cost {
			return ranked[i].cost > ranked[j].cost
		}
		return ranked[i].q.ID < ranked[j].q.ID
	})
	return ranked, total
}

// build re-densifies query IDs and assembles the compressed workload.
func build(w *workload.Workload, keep []rankedQuery, total float64) (*workload.Workload, Stats, error) {
	if len(keep) == 0 {
		return nil, Stats{}, fmt.Errorf("compress: nothing kept")
	}
	// Deterministic order: original query order among the kept.
	sort.Slice(keep, func(i, j int) bool { return keep[i].q.ID < keep[j].q.ID })
	queries := make([]workload.Query, len(keep))
	var kept float64
	for i, rq := range keep {
		q := rq.q
		q.ID = i
		queries[i] = q
		kept += rq.cost
	}
	tables := make([]workload.Table, len(w.Tables))
	copy(tables, w.Tables)
	attrs := make([]workload.Attribute, w.NumAttrs())
	copy(attrs, w.Attrs())
	cw, err := workload.New(tables, attrs, queries)
	if err != nil {
		return nil, Stats{}, err
	}
	cov := 1.0
	if total > 0 {
		cov = kept / total
	}
	return cw, Stats{
		KeptTemplates:  len(keep),
		TotalTemplates: w.NumQueries(),
		Coverage:       cov,
	}, nil
}
