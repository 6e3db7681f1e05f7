package inum

import (
	"math"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func gen(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 12, 25
	cfg.RowsBase = 50_000
	return workload.MustGenerate(cfg)
}

func TestCostsMatchUnderlyingModel(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := New(m)
	for _, q := range w.Queries {
		if got, want := s.BaseCost(q), m.BaseCost(q); got != want {
			t.Fatalf("q%d base: %v != %v", q.ID, got, want)
		}
		for _, a := range q.Attrs {
			k := workload.MustIndex(w, a)
			if got, want := s.CostWithIndex(q, k), m.CostWithIndex(q, k); got != want {
				t.Fatalf("q%d k=%v: %v != %v", q.ID, k, got, want)
			}
			// Extended index the query cannot use further: same plan.
			var other int
			for _, b := range w.Tables[q.Table].Attrs {
				if !q.Accesses(b) {
					other = b
					break
				}
			}
			ext := k.Append(other)
			if got, want := s.CostWithIndex(q, ext), m.CostWithIndex(q, ext); got != want {
				t.Fatalf("q%d ext=%v: %v != %v", q.ID, ext, got, want)
			}
		}
	}
}

func TestSkeletonReuseAcrossPermutations(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := New(m)
	// A query with >= 3 attributes: all orderings of its full combination
	// share one plan skeleton.
	var q workload.Query
	for _, cand := range w.Queries {
		if len(cand.Attrs) >= 3 {
			q = cand
			break
		}
	}
	if len(q.Attrs) < 3 {
		t.Skip("no wide query")
	}
	attrs := q.Attrs[:3]
	perms := [][]int{
		{attrs[0], attrs[1], attrs[2]}, {attrs[0], attrs[2], attrs[1]},
		{attrs[1], attrs[0], attrs[2]}, {attrs[1], attrs[2], attrs[0]},
		{attrs[2], attrs[0], attrs[1]}, {attrs[2], attrs[1], attrs[0]},
	}
	var costs []float64
	for _, p := range perms {
		costs = append(costs, s.CostWithIndex(q, workload.MustIndex(w, p...)))
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] != costs[0] {
			t.Errorf("permutation %d cost %v != %v", i, costs[i], costs[0])
		}
	}
	st := s.Stats()
	if st.Evaluations != 1 {
		t.Errorf("evaluations = %d, want 1 (one skeleton for 6 permutations)", st.Evaluations)
	}
	if st.Served != int64(len(perms)) {
		t.Errorf("served = %d, want %d", st.Served, len(perms))
	}
}

func TestQueryCostMatchesModel(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 1, 10, 20
	cfg.RowsBase = 50_000
	cfg.WriteShare = 0.3
	w := workload.MustGenerate(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := New(m)
	sel := workload.NewSelection(
		workload.MustIndex(w, w.Tables[0].Attrs[8]),
		workload.MustIndex(w, w.Tables[0].Attrs[9], w.Tables[0].Attrs[7]),
	)
	for _, q := range w.Queries {
		if got, want := s.QueryCost(q, sel), m.QueryCost(q, sel); math.Abs(got-want) > 1e-9*want {
			t.Errorf("q%d (%v): %v != %v", q.ID, q.Kind, got, want)
		}
	}
	if s.MaintenanceCost(w.Queries[0], workload.MustIndex(w, 0)) != m.MaintenanceCost(w.Queries[0], workload.MustIndex(w, 0)) {
		t.Error("maintenance passthrough broken")
	}
	k := workload.MustIndex(w, 0, 1)
	if s.IndexSize(k) != m.IndexSize(k) {
		t.Error("size passthrough broken")
	}
}

// TestReuseSavingsOnPermutationCandidates quantifies the INUM effect: over
// the full permutation candidate set, CoPhy's model population needs far
// fewer underlying evaluations through INUM than distinct (query, index)
// pairs exist.
func TestReuseSavingsOnPermutationCandidates(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)

	combos, err := candidates.Combos(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	perms := candidates.Permutations(combos)

	// Plain path: what-if calls = distinct applicable (query, index) pairs.
	plain := whatif.New(m)
	plainStats := cophy.ModelSize(w, plain, perms)

	// INUM path.
	in := New(m)
	viaINUM := whatif.New(in)
	cophy.ModelSize(w, viaINUM, perms)

	evals := in.Stats().Evaluations
	if evals >= plainStats.WhatIfCalls/2 {
		t.Errorf("INUM evaluations %d not well below plain calls %d", evals, plainStats.WhatIfCalls)
	}
	if evals <= 0 {
		t.Error("INUM performed no evaluations")
	}
	t.Logf("plain calls %d vs INUM evaluations %d (%.1fx reuse)",
		plainStats.WhatIfCalls, evals, float64(plainStats.WhatIfCalls)/float64(evals))
}

// TestSelectionQualityUnchanged: running CoPhy through INUM yields the same
// selection cost as through the raw model.
func TestSelectionQualityUnchanged(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	set, err := candidates.Enumerate(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 60 candidates (41 of them pairs) let the combinatorial search converge
	// in milliseconds. On the full set both runs hit the time limit, and
	// where the wall clock cuts each search differs under CPU load.
	cands := set.Representatives(w)[:60]
	budget := m.Budget(0.3)

	// Converged searches stop identically because INUM changes only WHERE
	// costs come from, not their values; the limit only bounds a regression.
	opts := func() cophy.Options {
		return cophy.Options{Budget: budget, ForceCombinatorial: true, Gap: 0.05, TimeLimit: 2 * time.Second}
	}
	plain, err := cophy.Solve(w, whatif.New(m), cands, opts())
	if err != nil {
		t.Fatal(err)
	}
	viaINUM, err := cophy.Solve(w, whatif.New(New(m)), cands, opts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Cost-viaINUM.Cost) > 1e-9*plain.Cost {
		t.Errorf("INUM changed the solve: %v vs %v", viaINUM.Cost, plain.Cost)
	}
}
