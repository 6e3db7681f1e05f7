// Package inum_test checks INUM-style plan-skeleton reuse (the paper's
// ref. [16], Section III-A's prefix invariance) as the what-if optimizer
// provides it: over a prefix-invariant source, a probe (q, k) whose
// coverable prefix U(q,k) is shorter than k is served from the entry of the
// index over U(q,k), so several indexes share one source evaluation while
// every served value equals a direct source call. The directory holds tests
// only; the skeleton fill lives in internal/whatif.
package inum_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

func gen(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 12, 25
	cfg.RowsBase = 50_000
	return workload.MustGenerate(cfg)
}

// unaccessed returns an attribute of q's table that q does not access, or -1.
func unaccessed(w *workload.Workload, q workload.Query) int {
	for _, b := range w.Tables[q.Table].Attrs {
		if !q.Accesses(b) {
			return b
		}
	}
	return -1
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCostsMatchUnderlyingModel(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := whatif.New(m)
	if !s.PrefixInvariant() {
		t.Fatal("the Appendix-B model must be served through plan skeletons")
	}
	for _, q := range w.Queries {
		if got, want := s.BaseCost(q), m.BaseCost(q); got != want {
			t.Fatalf("q%d base: %v != %v", q.ID, got, want)
		}
		other := unaccessed(w, q)
		for _, a := range q.Attrs {
			k := workload.MustIndex(w, a)
			if got, want := s.CostWithIndex(q, k), m.CostWithIndex(q, k); !sameBits(got, want) {
				t.Fatalf("q%d k=%v: %v != %v", q.ID, k, got, want)
			}
			if other < 0 {
				continue
			}
			// Extended index the query cannot use further: same plan.
			ext := k.Append(other)
			if got, want := s.CostWithIndex(q, ext), m.CostWithIndex(q, ext); !sameBits(got, want) {
				t.Fatalf("q%d ext=%v: %v != %v", q.ID, ext, got, want)
			}
		}
	}
	if st := s.Stats(); st.SourceCalls >= st.Calls {
		t.Errorf("no extension was served from its skeleton: %d source calls for %d calls", st.SourceCalls, st.Calls)
	}
}

// TestSkeletonReuseAcrossPermutations probes the orderings of a query's
// three attributes with an unaccessed attribute second, last, and absent.
// Orderings sharing a leading attribute share the one-attribute skeleton;
// each ordering's extension shares the ordering's own skeleton, because the
// source sums in prefix order and reuse across orderings of the same set
// would not be bit-exact.
func TestSkeletonReuseAcrossPermutations(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := whatif.New(m)
	var q workload.Query
	other := -1
	for _, cand := range w.Queries {
		if len(cand.Attrs) >= 3 && cand.Kind != workload.Insert {
			if other = unaccessed(w, cand); other >= 0 {
				q = cand
				break
			}
		}
	}
	if other < 0 {
		t.Fatal("generator produced no read query over three attributes with an unaccessed attribute")
	}
	a := q.Attrs[:3]
	perms := [][]int{
		{a[0], a[1], a[2]}, {a[0], a[2], a[1]},
		{a[1], a[0], a[2]}, {a[1], a[2], a[0]},
		{a[2], a[0], a[1]}, {a[2], a[1], a[0]},
	}
	phases := []struct {
		name              string
		index             func(p []int) []int
		calls, sourceRuns int64
	}{
		// U = the leading attribute: three skeletons for six orderings.
		{"other second", func(p []int) []int { return []int{p[0], other, p[1], p[2]} }, 6, 3},
		// U = the ordering: one skeleton each.
		{"other last", func(p []int) []int { return []int{p[0], p[1], p[2], other} }, 6, 6},
		// The orderings themselves are the skeletons filled above.
		{"ordering", func(p []int) []int { return p }, 6, 0},
	}
	for _, ph := range phases {
		before := s.Stats()
		for _, p := range perms {
			k := workload.MustIndex(w, ph.index(p)...)
			if got, want := s.CostWithIndex(q, k), m.CostWithIndex(q, k); !sameBits(got, want) {
				t.Errorf("%s %v: %v, source %v", ph.name, k.Attrs, got, want)
			}
		}
		after := s.Stats()
		if d := after.Calls - before.Calls; d != ph.calls {
			t.Errorf("%s: %d calls, want %d", ph.name, d, ph.calls)
		}
		if d := after.SourceCalls - before.SourceCalls; d != ph.sourceRuns {
			t.Errorf("%s: %d source evaluations, want %d", ph.name, d, ph.sourceRuns)
		}
	}
}

func TestQueryCostMatchesModel(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 1, 10, 20
	cfg.RowsBase = 50_000
	cfg.WriteShare = 0.3
	w := workload.MustGenerate(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	s := whatif.New(m)
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

// TestReuseSavingsOnPermutationCandidates quantifies the skeleton effect:
// over the full permutation candidate set, CoPhy's model population needs
// fewer source evaluations than distinct (query, index) probes, while the
// probe count stays the direct-probe reference's.
func TestReuseSavingsOnPermutationCandidates(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)

	combos, err := candidates.Combos(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	perms := candidates.Permutations(combos)

	// Exact path: every distinct probe is a source evaluation.
	exact := whatif.New(whatiftest.Measured{Source: m})
	exactStats := cophy.ModelSize(w, exact, perms)

	viaSkeleton := whatif.New(m)
	skelStats := cophy.ModelSize(w, viaSkeleton, perms)

	if skelStats.WhatIfCalls != exactStats.WhatIfCalls {
		t.Errorf("skeletons changed the probe count: %d vs %d", skelStats.WhatIfCalls, exactStats.WhatIfCalls)
	}
	es, ss := exact.Stats(), viaSkeleton.Stats()
	if es.SourceCalls != es.Calls {
		t.Errorf("exact path: %d source evaluations for %d calls", es.SourceCalls, es.Calls)
	}
	if ss.Calls != es.Calls {
		t.Errorf("calls %d, exact path %d", ss.Calls, es.Calls)
	}
	if ss.SourceCalls <= 0 {
		t.Error("skeleton path performed no evaluations")
	}
	if ss.SourceCalls >= ss.Calls/2 {
		t.Errorf("skeleton evaluations %d not well below calls %d", ss.SourceCalls, ss.Calls)
	}
	t.Logf("calls %d vs skeleton evaluations %d (%.1fx reuse)",
		ss.Calls, ss.SourceCalls, float64(ss.Calls)/float64(ss.SourceCalls))
}

// TestSelectionQualityUnchanged: running CoPhy through plan skeletons yields
// the same selection cost as evaluating every probe at the source.
func TestSelectionQualityUnchanged(t *testing.T) {
	w := gen(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	set, err := candidates.Enumerate(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 60 candidates (41 of them pairs) let the solve converge in
	// milliseconds. On the full set both runs hit the time limit, and
	// where the wall clock cuts each search differs under CPU load.
	cands := set.Representatives(w)[:60]
	budget := m.Budget(0.3)

	// Converged searches stop identically because skeletons change only
	// WHERE costs come from, not their values; the limit only bounds a
	// regression.
	opts := func() cophy.Options {
		return cophy.Options{Budget: budget, Gap: 0.05, TimeLimit: 2 * time.Second}
	}
	exact, err := cophy.Solve(w, whatif.New(whatiftest.Measured{Source: m}), cands, opts())
	if err != nil {
		t.Fatal(err)
	}
	viaSkeleton, err := cophy.Solve(w, whatif.New(m), cands, opts())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Cost-viaSkeleton.Cost) > 1e-9*exact.Cost {
		t.Errorf("skeletons changed the solve: %v vs %v", viaSkeleton.Cost, exact.Cost)
	}
}
