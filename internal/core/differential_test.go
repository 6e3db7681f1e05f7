package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// The interned selector over flat what-if tables must be bit-identical to
// the retained string-keyed reference stack (selectReference over
// whatiftest.New): same step trace, same frontier, same selection, and the
// same what-if Calls/CacheHits accounting, at every parallelism level. This
// is the contract that makes the fast path trustworthy — any divergence in
// tie-breaking, cache semantics, or derived-cost reuse shows up here.

// selectSweep runs Select with the lazy loop switched off, so every step is
// decided by the uncached sweep (collect) — the loop Reconfig runs take. It
// is the exact in-package oracle for the lazy loop.
func selectSweep(w *workload.Workload, opt *whatif.Optimizer, opts Options) (*Result, error) {
	s := newSelector(w, opt, opts)
	s.lazy = nil
	return s.run()
}

func diffWorkloads(t *testing.T) map[string]*workload.Workload {
	t.Helper()
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Tables, erpCfg.TotalAttrs, erpCfg.Queries = 40, 340, 180
	erpCfg.MinRows, erpCfg.MaxRows = 100_000, 5_000_000
	erpCfg.TotalExecutions = 1_000_000
	return map[string]*workload.Workload{
		"TPCC": workload.MustTPCC(20),
		"ERP":  workload.MustGenerateERP(erpCfg),
	}
}

func TestDifferentialFlatVsReference(t *testing.T) {
	parallelisms := []int{1, 4, runtime.NumCPU()}
	features := []Options{
		{},
		{TrackSecondBest: true, DropUnused: true},
		{PairSteps: true, PairLimit: 40, TrackSecondBest: true},
		{TopNSingle: 8},
	}
	for name, w := range diffWorkloads(t) {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		for fi, feat := range features {
			for _, p := range parallelisms {
				label := fmt.Sprintf("%s/feature%d/P%d", name, fi, p)

				refOpts := feat
				refOpts.Budget, refOpts.Parallelism = budget, p
				refOpt := whatiftest.New(m)
				want, err := selectReference(w, refOpt, refOpts)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}

				opts := feat
				opts.Budget, opts.Parallelism = budget, p
				flatOpt := whatif.New(m)
				got, err := Select(w, flatOpt, opts)
				if err != nil {
					t.Fatalf("%s: flat: %v", label, err)
				}

				traceEqual(t, label, want, got)

				wf, gf := want.Frontier(), got.Frontier()
				if len(wf) != len(gf) {
					t.Fatalf("%s: frontier lengths %d vs %d", label, len(wf), len(gf))
				}
				for i := range wf {
					if wf[i] != gf[i] {
						t.Errorf("%s: frontier[%d] %+v vs %+v", label, i, wf[i], gf[i])
					}
				}

				ws, gs := refOpt.Stats(), flatOpt.Stats()
				if ws.Calls != gs.Calls {
					t.Errorf("%s: what-if calls %d (reference) vs %d (flat)", label, ws.Calls, gs.Calls)
				}
				if ws.CacheHits != gs.CacheHits {
					t.Errorf("%s: cache hits %d (reference) vs %d (flat)", label, ws.CacheHits, gs.CacheHits)
				}
			}
		}
	}
}

// TestDifferentialWriteWorkload covers the maintenance-cost terms: generated
// workloads with a write share exercise maintFor, dropUnused's maintenance
// threshold, and the maintCache pair tables on both backends.
func TestDifferentialWriteWorkload(t *testing.T) {
	for _, seed := range []int64{9, 31} {
		cfg := workload.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 14, 40
		cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, seed, 0.3
		w := workload.MustGenerate(cfg)
		m := costmodel.New(w, costmodel.SingleIndex)
		opts := Options{
			Budget:          m.Budget(0.5),
			TrackSecondBest: true,
			DropUnused:      true,
			Parallelism:     4,
		}
		want, err := selectReference(w, whatiftest.New(m), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Select(w, whatif.New(m), opts)
		if err != nil {
			t.Fatal(err)
		}
		traceEqual(t, fmt.Sprintf("writes/seed%d", seed), want, got)
	}
}

// TestDifferentialExactEvaluation pins the ExactEvaluation path (no derived
// extension costs) to the reference as well: call counts change, equality of
// the trace must not.
func TestDifferentialExactEvaluation(t *testing.T) {
	w := workload.MustTPCC(10)
	m := costmodel.New(w, costmodel.SingleIndex)
	opts := Options{Budget: m.Budget(0.5), ExactEvaluation: true, Parallelism: 4}
	refOpt := whatiftest.New(m)
	want, err := selectReference(w, refOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	flatOpt := whatif.New(m)
	got, err := Select(w, flatOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, "exact", want, got)
	if ws, gs := refOpt.Stats(), flatOpt.Stats(); ws.Calls != gs.Calls {
		t.Errorf("exact: what-if calls %d vs %d", ws.Calls, gs.Calls)
	}
}
