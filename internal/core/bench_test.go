package core

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// --- BenchmarkSelect family: the Algorithm-1 step-loop matrix ---
//
// Two variants of the same frontier run — the uncached sweep and the lazy
// (CELF) loop — over the TPC-C template workload (whose single trace answers
// the paper's 16-budget sweep via SelectionAt) and a scaled-down generated
// ERP workload. `make bench-core` records the matrix as
// results/BENCH_core.json so the perf trajectory is tracked across changes.
// Both variants produce identical step traces (asserted by
// TestDifferentialLazyVsSweep); only the wall clock and the
// evaluated_per_step metric differ — the lazy loop bound-prunes candidates
// the sweep re-evaluates. BenchmarkSelectLazyERPFull adds the lazy loop at
// the full ERP scale, where the run is long enough for per-step overheads to
// dominate.

type selectBenchCase struct {
	name string
	w    *workload.Workload
}

func selectBenchCases(b *testing.B) []selectBenchCase {
	b.Helper()
	tpcc, err := workload.TPCC(20)
	if err != nil {
		b.Fatal(err)
	}
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Tables, erpCfg.TotalAttrs, erpCfg.Queries = 60, 500, 280
	erpCfg.MinRows, erpCfg.MaxRows = 50_000, 2_000_000
	erpCfg.TotalExecutions = 1_000_000
	erp, err := workload.GenerateERP(erpCfg)
	if err != nil {
		b.Fatal(err)
	}
	return []selectBenchCase{{"TPCC", tpcc}, {"ERP", erp}}
}

func runSelectBench(b *testing.B, opts Options, sel func(*workload.Workload, *whatif.Optimizer, Options) (*Result, error)) {
	b.Helper()
	for _, bc := range selectBenchCases(b) {
		b.Run(bc.name, func(b *testing.B) {
			// Frontier run: one trace serves every smaller budget.
			benchSelect(b, bc.w, 0.8, opts, sel)
		})
	}
}

// benchSelect times sel on w at the given budget share, with a cold what-if
// cache every iteration.
func benchSelect(b *testing.B, w *workload.Workload, share float64, opts Options, sel func(*workload.Workload, *whatif.Optimizer, Options) (*Result, error)) {
	b.Helper()
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(share)
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := whatif.New(m)
		o := opts
		o.Budget = budget
		r, err := sel(w, opt, o)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	if res != nil && len(res.Steps) > 0 {
		// Evaluations per construction step: the lazy loop's headline
		// number, recorded in BENCH_core.json for every variant.
		b.ReportMetric(float64(res.Evaluated)/float64(len(res.Steps)), "evaluated_per_step")
	}
}

// BenchmarkSelectSeed is the pre-optimization evaluator: every candidate
// re-evaluated at every construction step (the uncached sweep).
func BenchmarkSelectSeed(b *testing.B) {
	runSelectBench(b, Options{}, selectSweep)
}

// BenchmarkSelectLazy is the production configuration: the lazy (CELF) step
// loop with bound-based bucket pruning.
func BenchmarkSelectLazy(b *testing.B) {
	runSelectBench(b, Options{}, Select)
}

// BenchmarkSelectLazyERPFull is the lazy loop at the paper's full ERP scale
// (DefaultERPConfig: 4 204 attributes, 2 271 templates) at budget share 0.5.
// The scaled ERP above selects a few hundred indexes; here the selection
// grows past two thousand over ~2 400 steps, so any per-step bookkeeping
// that scales with the selection size or the attribute count shows up.
func BenchmarkSelectLazyERPFull(b *testing.B) {
	erp, err := workload.GenerateERP(workload.DefaultERPConfig())
	if err != nil {
		b.Fatal(err)
	}
	benchSelect(b, erp, 0.5, Options{}, Select)
}
