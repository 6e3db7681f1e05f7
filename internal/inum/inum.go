// Package inum implements a simplified INUM (Papadomanolakis, Dash,
// Ailamaki: "Efficient Use of the Query Optimizer for Automated Database
// Design", VLDB 2007) — the mechanism the paper points to for reducing
// what-if optimizer cost: reuse one optimizer evaluation across all index
// configurations that lead to the same plan.
//
// For prefix-invariant cost sources (the Appendix-B model, and the engine's
// executor up to binary-search tie-breaks), a query's cost under index k
// depends only on the SET of key attributes the query can actually use,
// U(q,k). INUM therefore caches one evaluation per distinct
// (query, usable-attribute-set) plan skeleton and serves every index
// sharing it: all m! orderings of a fully-usable combination, and every
// extension whose appended attributes the query does not access, cost zero
// additional optimizer work.
package inum

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// Stats reports INUM's reuse accounting.
type Stats struct {
	// Evaluations is the number of underlying optimizer evaluations
	// (distinct plan skeletons materialized).
	Evaluations int64
	// Served is the number of CostWithIndex answers produced, including
	// those served from cached skeletons.
	Served int64
}

// Source wraps a whatif.Source with plan-skeleton reuse. It implements
// whatif.Source itself, so it can be layered under a whatif.Optimizer.
type Source struct {
	src whatif.Source

	mu    sync.Mutex
	plans map[string]float64 // (query, sorted usable attrs) -> cost
	stats Stats
}

// New wraps src.
func New(src whatif.Source) *Source {
	return &Source{src: src, plans: make(map[string]float64)}
}

// planKey canonicalizes the usable attribute set of (q, k).
func planKey(q workload.Query, prefix []int) string {
	attrs := append([]int(nil), prefix...)
	sort.Ints(attrs)
	var b strings.Builder
	b.WriteString(strconv.Itoa(q.ID))
	for _, a := range attrs {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

// CostWithIndex implements whatif.Source: the cost of q under k is the cost
// of q under the canonical index over U(q,k), evaluated at most once per
// distinct usable set.
func (s *Source) CostWithIndex(q workload.Query, k workload.Index) float64 {
	if !workload.Applicable(q, k) {
		return s.BaseCost(q)
	}
	prefix := workload.CoverablePrefix(q, k)
	key := planKey(q, prefix)
	s.mu.Lock()
	s.stats.Served++
	if c, ok := s.plans[key]; ok {
		s.mu.Unlock()
		return c
	}
	s.mu.Unlock()
	canonical := workload.Index{Table: k.Table, Attrs: prefix}
	c := s.src.CostWithIndex(q, canonical)
	s.mu.Lock()
	if _, ok := s.plans[key]; !ok {
		s.plans[key] = c
		s.stats.Evaluations++
	}
	s.mu.Unlock()
	return c
}

// BaseCost implements whatif.Source (the empty plan skeleton).
func (s *Source) BaseCost(q workload.Query) float64 {
	key := planKey(q, nil)
	s.mu.Lock()
	s.stats.Served++
	if c, ok := s.plans[key]; ok {
		s.mu.Unlock()
		return c
	}
	s.mu.Unlock()
	c := s.src.BaseCost(q)
	s.mu.Lock()
	if _, ok := s.plans[key]; !ok {
		s.plans[key] = c
		s.stats.Evaluations++
	}
	s.mu.Unlock()
	return c
}

// QueryCost implements whatif.Source in the single-index setting over the
// cached skeletons, adding write maintenance like the underlying model (in
// canonical key order, so the sum is reproducible).
func (s *Source) QueryCost(q workload.Query, sel workload.Selection) float64 {
	var maint float64
	if q.IsWrite() {
		for _, k := range sel.Sorted() {
			maint += s.src.MaintenanceCost(q, k)
		}
		if q.Kind == workload.Insert {
			return s.BaseCost(q) + maint
		}
	}
	best := s.BaseCost(q)
	for _, k := range sel {
		if !workload.Applicable(q, k) {
			continue
		}
		if c := s.CostWithIndex(q, k); c < best {
			best = c
		}
	}
	return best + maint
}

// MaintenanceCost implements whatif.Source (pure structural formula; no
// skeleton reuse applies).
func (s *Source) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	return s.src.MaintenanceCost(q, k)
}

// IndexSize implements whatif.Source.
func (s *Source) IndexSize(k workload.Index) int64 { return s.src.IndexSize(k) }

// Stats returns the reuse counters.
func (s *Source) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
