package explain

import (
	"math"
	"sort"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// QueryAttribution is one query's share of an index's benefit: the index is
// the query's cheapest access path in the recommended selection, and Benefit
// is the frequency-weighted improvement over the unindexed baseline.
type QueryAttribution struct {
	Query int   `json:"query"`
	Freq  int64 `json:"freq"`
	// Base/Cost are per-execution costs without any index and under the
	// attributed index; Benefit = Freq*(Base-Cost) > 0.
	Base    float64 `json:"base"`
	Cost    float64 `json:"cost"`
	Benefit float64 `json:"benefit"`
}

// IndexAttribution maps one recommended index to the queries whose cost it
// changes and by how much. Net = Benefit - Maintenance is the index's exact
// share of the recommendation's total improvement.
type IndexAttribution struct {
	Index string `json:"index"`
	// Benefit is the frequency-weighted read improvement of every query
	// this index serves best (ties between equally cheap indexes go to the
	// canonically first one, so every query is attributed exactly once).
	Benefit float64 `json:"benefit"`
	// Maintenance is the frequency-weighted write burden the workload's
	// write templates pay to keep the index current.
	Maintenance float64 `json:"maintenance"`
	Net         float64 `json:"net"`
	// QueryCount is how many queries this index serves best; TopQueries
	// lists the largest-benefit ones, capped at MaxAttributedQueries.
	QueryCount       int                `json:"query_count"`
	TopQueries       []QueryAttribution `json:"top_queries,omitempty"`
	QueriesTruncated bool               `json:"queries_truncated,omitempty"`
}

// Attribution is the per-query benefit attribution of a recommendation: a
// partition of the total improvement over the recommended indexes. It is the
// regression-guardrail primitive — "no heavy query regresses" is a scan over
// the per-query rows.
type Attribution struct {
	// BaseCost/Cost are the workload cost without indexes and under the
	// attributed selection, recomputed from the what-if cache with the same
	// single-index decomposition every strategy optimizes.
	BaseCost float64 `json:"base_cost"`
	Cost     float64 `json:"cost"`
	// Indexes is one row per recommended index, largest Net first.
	Indexes []IndexAttribution `json:"indexes"`
}

// TotalImprovement sums the per-index nets; it equals BaseCost-Cost exactly
// (the attribution is a partition, not an estimate).
func (a *Attribution) TotalImprovement() float64 {
	var t float64
	for i := range a.Indexes {
		t += a.Indexes[i].Net
	}
	return t
}

// Attribute builds the attribution table for a selection. Every strategy in
// this repository evaluates selections with the same single-index
// decomposition (each query runs on its single cheapest applicable index;
// write templates maintain every selected index), so attributing each
// query's improvement to its argmin index and each maintenance term to the
// index maintained yields an exact partition:
//
//	sum over indexes of Net == BaseCost - Cost
//
// with BaseCost/Cost as evaluated by the strategies themselves (up to
// floating-point accumulation order). Runs once, post-selection, against
// the what-if optimizer's caches — it performs no fresh cost-model work for
// a selection the advisor just evaluated, and never mutates optimizer state
// beyond cache fills.
func Attribute(w *workload.Workload, opt *whatif.Optimizer, sel workload.Selection) *Attribution {
	indexes := sel.Sorted()
	in := opt.Interner()
	ids := make([]workload.IndexID, len(indexes))
	for i, k := range indexes {
		ids[i] = in.Intern(k)
	}

	rows := make([]IndexAttribution, len(indexes))
	for i, k := range indexes {
		rows[i].Index = k.Key()
	}
	perIndex := make([][]QueryAttribution, len(indexes))

	a := &Attribution{}
	for qi := range w.Queries {
		q := &w.Queries[qi]
		base := opt.BaseCost(*q)
		best, winner := base, -1
		for i, k := range indexes {
			if !workload.Applicable(*q, k) {
				continue
			}
			if c := opt.CostWithInterned(q, k, ids[i]); c < best {
				best, winner = c, i
			}
		}
		a.BaseCost += float64(q.Freq) * base
		a.Cost += float64(q.Freq) * best
		if winner >= 0 {
			benefit := float64(q.Freq) * (base - best)
			rows[winner].Benefit += benefit
			rows[winner].QueryCount++
			perIndex[winner] = append(perIndex[winner], QueryAttribution{
				Query: q.ID, Freq: q.Freq, Base: base, Cost: best, Benefit: benefit,
			})
		}
		if q.IsWrite() {
			for i, k := range indexes {
				m := float64(q.Freq) * opt.MaintenanceCostInterned(q, k, ids[i])
				rows[i].Maintenance += m
				a.Cost += m
			}
		}
	}

	for i := range rows {
		rows[i].Net = rows[i].Benefit - rows[i].Maintenance
		qs := perIndex[i]
		sort.Slice(qs, func(x, y int) bool {
			if qs[x].Benefit != qs[y].Benefit {
				return qs[x].Benefit > qs[y].Benefit
			}
			return qs[x].Query < qs[y].Query
		})
		if len(qs) > MaxAttributedQueries {
			qs = qs[:MaxAttributedQueries]
			rows[i].QueriesTruncated = true
		}
		rows[i].TopQueries = qs
	}
	sort.Slice(rows, func(x, y int) bool {
		if rows[x].Net != rows[y].Net {
			return rows[x].Net > rows[y].Net
		}
		return rows[x].Index < rows[y].Index
	})
	a.Indexes = rows
	return a
}

// ApproxEqual reports whether two totals agree to the floating-point slack
// appropriate for sums of workload-scale costs: relative 1e-9, with an
// absolute floor for totals near zero.
func ApproxEqual(x, y float64) bool {
	diff := math.Abs(x - y)
	scale := math.Max(math.Abs(x), math.Abs(y))
	return diff <= 1e-9*scale || diff <= 1e-9
}
