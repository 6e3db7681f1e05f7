package core

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/explain"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Provenance must be a pure observer: turning Options.Explain on may not
// change a single decision, tie-break, or what-if call. The trace, frontier,
// and optimizer accounting must be bit-identical with it on and off, on both
// the lazy loop and the sweep.
func TestExplainTracePreserving(t *testing.T) {
	for name, w := range diffWorkloads(t) {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		for _, sweep := range []bool{false, true} {
			label, sel := name+"/lazy", Select
			if sweep {
				label, sel = name+"/sweep", selectSweep
			}

			plainOpt := whatif.New(m)
			plain, err := sel(w, plainOpt, Options{Budget: budget})
			if err != nil {
				t.Fatalf("%s: plain: %v", label, err)
			}
			explOpt := whatif.New(m)
			expl, err := sel(w, explOpt, Options{Budget: budget, Explain: true})
			if err != nil {
				t.Fatalf("%s: explain: %v", label, err)
			}

			traceEqual(t, label, plain, expl)
			ps, es := plainOpt.Stats(), explOpt.Stats()
			if ps.Calls != es.Calls || ps.CacheHits != es.CacheHits {
				t.Errorf("%s: what-if accounting changed under Explain: calls %d vs %d, hits %d vs %d",
					label, ps.Calls, es.Calls, ps.CacheHits, es.CacheHits)
			}

			if plain.Provenance != nil {
				t.Errorf("%s: provenance recorded without Explain", label)
			}
			checkProvenance(t, label, expl, sweep)
		}
	}
}

// checkProvenance asserts the structural invariants of a provenance trace:
// one record per step, exact gain decomposition, by-query deltas summing to
// the read gain, and a prune ledger whose skip totals reproduce the step's
// Pruned count (lazy loop only).
func checkProvenance(t *testing.T, label string, res *Result, sweep bool) {
	t.Helper()
	if len(res.Provenance) != len(res.Steps) {
		t.Fatalf("%s: %d provenance records for %d steps", label, len(res.Provenance), len(res.Steps))
	}
	for i, p := range res.Provenance {
		st := res.Steps[i]
		if p.Step != i {
			t.Errorf("%s: record %d has Step=%d", label, i, p.Step)
		}
		if p.Kind != st.Kind.String() || p.Index != st.Index.Key() {
			t.Errorf("%s: step %d identity mismatch: %s %s vs %s %s",
				label, i, p.Kind, p.Index, st.Kind, st.Index.Key())
		}
		if p.Candidates != st.Candidates || p.Evaluated != st.Evaluated ||
			p.CacheServed != st.CacheServed || p.Pruned != st.Pruned {
			t.Errorf("%s: step %d accounting mismatch: prov %d/%d/%d/%d vs step %d/%d/%d/%d",
				label, i, p.Candidates, p.Evaluated, p.CacheServed, p.Pruned,
				st.Candidates, st.Evaluated, st.CacheServed, st.Pruned)
		}

		recon := p.Gain - (p.ReadGain - p.MaintenanceDelta - p.ReconfigDelta)
		if math.Abs(recon) > 1e-6*math.Max(1, math.Abs(p.Gain)) {
			t.Errorf("%s: step %d decomposition off by %g: gain=%g read=%g maint=%g reconfig=%g",
				label, i, recon, p.Gain, p.ReadGain, p.MaintenanceDelta, p.ReconfigDelta)
		}
		if !p.ByQueryTruncated {
			var sum float64
			for _, d := range p.ByQuery {
				sum += d.Delta
			}
			if math.Abs(sum+p.ReadGain) > 1e-6*math.Max(1, math.Abs(p.ReadGain)) {
				t.Errorf("%s: step %d by-query deltas sum to %g, want %g", label, i, sum, -p.ReadGain)
			}
			if len(p.ByQuery) != p.QueriesChanged {
				t.Errorf("%s: step %d lists %d queries, QueriesChanged=%d",
					label, i, len(p.ByQuery), p.QueriesChanged)
			}
		}

		if sweep {
			if len(p.PruneLedger) != 0 || p.LedgerSkipped != 0 {
				t.Errorf("%s: step %d carries a prune ledger on the sweep", label, i)
			}
			continue
		}
		if p.LedgerSkipped != st.Pruned {
			t.Errorf("%s: step %d ledger skips %d candidates, step pruned %d",
				label, i, p.LedgerSkipped, st.Pruned)
		}
		for _, b := range p.PruneLedger {
			// Run journals encode the ledger as JSON, which has no infinities.
			if math.IsInf(b.Bound, 0) || math.IsNaN(b.Bound) {
				t.Errorf("%s: step %d bucket %d has bound %v", label, i, b.Lead, b.Bound)
			}
		}
		if !p.LedgerTruncated {
			var skipped int
			for _, b := range p.PruneLedger {
				skipped += b.Skipped
				if b.Skipped > b.Entries {
					t.Errorf("%s: step %d bucket %d skips %d of %d entries",
						label, i, b.Lead, b.Skipped, b.Entries)
				}
			}
			if skipped != p.LedgerSkipped {
				t.Errorf("%s: step %d ledger entries sum to %d, total says %d",
					label, i, skipped, p.LedgerSkipped)
			}
			if len(p.PruneLedger) != p.LedgerBuckets {
				t.Errorf("%s: step %d lists %d buckets, LedgerBuckets=%d",
					label, i, len(p.PruneLedger), p.LedgerBuckets)
			}
		}
		for j := 1; j < len(p.PruneLedger); j++ {
			if p.PruneLedger[j-1].Bound < p.PruneLedger[j].Bound {
				t.Errorf("%s: step %d ledger not sorted by bound at %d", label, i, j)
			}
		}
	}
}

// A priced run's provenance carries the reconfiguration term: every step's
// Gain must decompose as ReadGain - MaintenanceDelta - ReconfigDelta with a
// non-zero ReconfigDelta wherever the step changed the created bytes, and the
// priced trace must stay bit-identical with Explain on or off, drop steps
// (DropUnused) included.
func TestExplainPricedDecomposition(t *testing.T) {
	w := writeGen(t, 0.1, 21)
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)
	free, err := Select(w, whatif.New(m), Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Budget:     budget,
		DropUnused: true,
		Reconfig:   Reconfig{Deployed: everyOther(free.Selection), CreatePerByte: 1},
	}
	plain, err := Select(w, whatif.New(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Explain = true
	expl, err := Select(w, whatif.New(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, "priced", plain, expl)
	checkProvenance(t, "priced", expl, false)
	// At one unit per byte, ReconfigDelta is the step's created-byte change.
	created := func(k workload.Index) float64 {
		if opts.Reconfig.Deployed.Has(k) {
			return 0
		}
		return float64(m.IndexSize(k))
	}
	priced := 0
	for i, p := range expl.Provenance {
		st := expl.Steps[i]
		want := created(st.Index)
		if st.Kind == StepDrop {
			want = -want
		}
		if st.Replaced != nil {
			want -= created(*st.Replaced)
		}
		if p.ReconfigDelta != want {
			t.Errorf("step %d (%s %s): ReconfigDelta %v, want %v", i, p.Kind, p.Index, p.ReconfigDelta, want)
		}
		if want != 0 {
			priced++
		}
	}
	if priced == 0 {
		t.Fatal("no step of the priced run moved the reconfiguration term")
	}
}

// The lazy run must actually produce ledgers on pruning workloads — an
// always-empty ledger would trivially satisfy the invariants above.
func TestExplainLedgerNonEmptyOnLazy(t *testing.T) {
	w := diffWorkloads(t)["ERP"]
	m := costmodel.New(w, costmodel.SingleIndex)
	res, err := Select(w, whatif.New(m), Options{Budget: m.Budget(0.5), Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Skip("workload produced no pruning; ledger vacuously empty")
	}
	var ledgers int
	for _, p := range res.Provenance {
		ledgers += len(p.PruneLedger)
	}
	if ledgers == 0 {
		t.Fatalf("run pruned %d candidates but recorded no ledger entries", res.Pruned)
	}
}

// Drop steps (DropUnused) and feature combinations must keep the one-record-
// per-step alignment, including replaced/extend metadata and second-best
// runner-ups under TrackSecondBest.
func TestExplainWithFeatures(t *testing.T) {
	w := diffWorkloads(t)["TPCC"]
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)
	res, err := Select(w, whatif.New(m), Options{
		Budget: budget, Explain: true,
		TrackSecondBest: true, DropUnused: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkProvenance(t, "TPCC/features", res, false)
	for i, p := range res.Provenance {
		st := res.Steps[i]
		if st.Replaced != nil && p.Replaced != st.Replaced.Key() {
			t.Errorf("step %d: Replaced %q, want %q", i, p.Replaced, st.Replaced.Key())
		}
		if st.RunnerUp != nil {
			if p.RunnerUp == nil {
				t.Errorf("step %d: TrackSecondBest set but no runner-up recorded", i)
			} else if p.RunnerUp.Index != st.RunnerUp.Index.Key() {
				t.Errorf("step %d: runner-up %q, want tracked second-best %q",
					i, p.RunnerUp.Index, st.RunnerUp.Index.Key())
			}
		}
	}
	_ = explain.MaxByQuery // keep the import tied to the package under test
}

// explainRun is the explain.Run view of an explained core run, as
// explain.ReadJournal would rebuild it from the run's span journal.
func explainRun(res *Result) *explain.Run {
	run := &explain.Run{
		Strategy:    "Extend",
		BaseCost:    res.InitialCost,
		Cost:        res.Cost,
		MemoryBytes: res.Memory,
		Indexes:     len(res.Selection),
		StopReason:  res.StopReason.String(),
	}
	for i, st := range res.Steps {
		run.Steps = append(run.Steps, explain.JournalStep{
			Kind:        st.Kind.String(),
			Index:       st.Index.Key(),
			Gain:        st.CostBefore - st.CostAfter,
			Ratio:       st.Ratio,
			CostAfter:   st.CostAfter,
			MemAfter:    st.MemAfter,
			Candidates:  st.Candidates,
			Evaluated:   st.Evaluated,
			CacheServed: st.CacheServed,
			Pruned:      st.Pruned,
			Provenance:  &res.Provenance[i],
		})
	}
	return run
}

// The acceptance bar for runcompare: the lazy loop and the sweep reach the
// same frontier through different amounts of work, so their diff must report
// zero divergence with differing prune ledgers.
func TestExplainLazyVsSweepDiff(t *testing.T) {
	w := diffWorkloads(t)["TPCC"]
	m := costmodel.New(w, costmodel.SingleIndex)
	opts := Options{Budget: m.Budget(0.3), Explain: true}
	lazy, err := Select(w, whatif.New(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := selectSweep(w, whatif.New(m), opts)
	if err != nil {
		t.Fatal(err)
	}

	d := explain.DiffRuns(explainRun(lazy), explainRun(sweep))
	if d.FirstDivergence != nil {
		t.Fatalf("lazy and sweep runs diverged: %+v", d.FirstDivergence)
	}
	if !d.FrontierEqual || !d.Identical {
		t.Fatalf("lazy and sweep runs differ: %+v", d)
	}
	if sweep.Pruned != 0 {
		t.Fatalf("sweep run pruned %d candidates", sweep.Pruned)
	}
	if lazy.Pruned > 0 && !d.LedgerDiffers {
		t.Errorf("lazy run pruned %d candidates but the diff saw equal ledgers", lazy.Pruned)
	}
}
