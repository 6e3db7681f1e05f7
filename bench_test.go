package indexsel

// One benchmark per paper artifact (Table I, Figures 1-6, Section III-A
// what-if accounting), each wrapping the corresponding experiment runner at
// reduced scale, plus micro-benchmarks for the load-bearing operations.
// cmd/experiments regenerates the full-size artifacts.

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func benchConfig() experiments.Config {
	return experiments.Config{
		Out:             io.Discard,
		Scale:           0.02,
		SolverTimeLimit: 2 * time.Second,
		Seed:            1,
	}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_TPCCTrace regenerates the Figure-1 construction trace.
func BenchmarkFig1_TPCCTrace(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkTable1_RuntimeScaling regenerates Table I (query-count sweep,
// H6 vs CoPhy runtimes).
func BenchmarkTable1_RuntimeScaling(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig2_CandidateHeuristics regenerates Figure 2 (quality vs
// candidate heuristics over budgets).
func BenchmarkFig2_CandidateHeuristics(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3_CandidateSetSize regenerates Figure 3 (quality vs candidate
// count).
func BenchmarkFig3_CandidateSetSize(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4_Enterprise regenerates Figure 4 (ERP workload).
func BenchmarkFig4_Enterprise(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5_EndToEnd regenerates Figure 5 (engine-measured costs).
func BenchmarkFig5_EndToEnd(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6_LPSize regenerates Figure 6 (LP dimensions vs candidate
// share).
func BenchmarkFig6_LPSize(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkWhatIfAccounting regenerates the Section III-A call-count table.
func BenchmarkWhatIfAccounting(b *testing.B) { runExperiment(b, "whatif") }

// --- micro-benchmarks ---

func benchWorkload(b *testing.B, queriesPerTable int) *workload.Workload {
	b.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable = 5, 30
	cfg.QueriesPerTable = queriesPerTable
	cfg.RowsBase = 100_000
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkExtendSolve measures one full Algorithm-1 run (the Table I "H6"
// column at micro scale), what-if calls included.
func BenchmarkExtendSolve(b *testing.B) {
	w := benchWorkload(b, 100)
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := whatif.New(m)
		if _, err := core.Select(w, opt, core.Options{Budget: budget}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoPhySolve measures a CoPhy solve over a 200-candidate H1-M set.
func BenchmarkCoPhySolve(b *testing.B) {
	w := benchWorkload(b, 100)
	m := costmodel.New(w, costmodel.SingleIndex)
	opt := whatif.New(m)
	set, err := candidates.Enumerate(w, 4)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := set.Select(candidates.H1M, 200)
	if err != nil {
		b.Fatal(err)
	}
	budget := m.Budget(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cophy.Solve(w, opt, cands, cophy.Options{
			Budget: budget, Gap: 0.05, TimeLimit: 2 * time.Second,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCost measures one Appendix-B what-if evaluation.
func BenchmarkQueryCost(b *testing.B) {
	w := benchWorkload(b, 50)
	m := costmodel.New(w, costmodel.SingleIndex)
	q := w.Queries[0]
	sel := workload.NewSelection(
		workload.MustIndex(w, q.Attrs[0]),
		workload.MustIndex(w, w.Tables[q.Table].Attrs[0]),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.QueryCost(q, sel)
	}
}

// BenchmarkCandidateEnumeration measures exhaustive combination enumeration.
func BenchmarkCandidateEnumeration(b *testing.B) {
	w := benchWorkload(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := candidates.Combos(w, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineProbe measures one indexed point-query execution.
func BenchmarkEngineProbe(b *testing.B) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 1, 10, 10
	cfg.RowsBase = 100_000
	w := workload.MustGenerate(cfg)
	db, err := engine.New(w, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := w.Queries[0]
	ix := db.BuildIndex(workload.MustIndex(w, q.Attrs[0]))
	exec := engine.NewExecutor(db, ix)
	pq := db.Instantiate(q, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Run(pq)
	}
}

// builtIndex keeps the benchmarked build's result live.
var builtIndex *engine.SecondaryIndex

// BenchmarkEngineIndexBuild measures composite-index construction (the
// largest single cost of the paper's end-to-end methodology) over key
// widths and table sizes. Each build allocates its output permutation and
// the index header; `make bench-engine` caps allocs/op.
func BenchmarkEngineIndexBuild(b *testing.B) {
	for _, rows := range []int64{5_000, 100_000} {
		cfg := workload.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 1, 10, 10
		cfg.RowsBase = rows
		w := workload.MustGenerate(cfg)
		db, err := engine.New(w, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, width := range []int{1, 2, 4} {
			attrs := make([]int, width)
			for i := range attrs {
				attrs[i] = i
			}
			k := workload.MustIndex(w, attrs...)
			b.Run(fmt.Sprintf("w%d_rows%d", width, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					builtIndex = db.BuildIndex(k)
				}
			})
		}
	}
}

// BenchmarkAblation_Remark1 regenerates the Remark 1/2 extension ablation.
func BenchmarkAblation_Remark1(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkWrites_Sensitivity regenerates the write-share sensitivity table.
func BenchmarkWrites_Sensitivity(b *testing.B) { runExperiment(b, "writes") }

// BenchmarkAccel_WhatIfLevers regenerates the INUM/compression lever table.
func BenchmarkAccel_WhatIfLevers(b *testing.B) { runExperiment(b, "accel") }
