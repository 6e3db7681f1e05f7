package compress

import (
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func gen(t *testing.T) (*workload.Workload, *costmodel.Model, *whatif.Optimizer) {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 15, 60
	cfg.RowsBase = 100_000
	w := workload.MustGenerate(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	return w, m, whatif.New(m)
}

func TestByCoverageHitsBound(t *testing.T) {
	w, _, opt := gen(t)
	for _, eps := range []float64{0.01, 0.1, 0.3} {
		cw, stats, err := ByCoverage(w, opt, eps)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Coverage < 1-eps-1e-9 {
			t.Errorf("eps %v: coverage %v below bound", eps, stats.Coverage)
		}
		if cw.NumQueries() >= w.NumQueries() && eps > 0.05 {
			t.Errorf("eps %v: no compression achieved", eps)
		}
	}
	// eps=0 keeps everything with positive cost.
	cw, stats, err := ByCoverage(w, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coverage < 1-1e-9 {
		t.Errorf("eps 0 coverage %v", stats.Coverage)
	}
	_ = cw
}

func TestValidation(t *testing.T) {
	w, _, opt := gen(t)
	if _, _, err := ByCoverage(w, opt, 1.0); err == nil {
		t.Error("ByCoverage(1.0) accepted")
	}
	if _, _, err := ByCoverage(w, opt, -0.1); err == nil {
		t.Error("ByCoverage(-0.1) accepted")
	}
}

// TestSelectionOnCompressedWorkloadStaysGood is the point of the technique:
// tune on the compressed workload, evaluate on the full one — the quality
// loss stays within a few times the coverage error.
func TestSelectionOnCompressedWorkloadStaysGood(t *testing.T) {
	w, m, opt := gen(t)
	budget := m.Budget(0.3)

	full, err := core.Select(w, opt, core.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}

	cw, stats, err := ByCoverage(w, opt, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeptTemplates >= stats.TotalTemplates {
		t.Skip("workload too uniform to compress")
	}
	mc := costmodel.New(cw, costmodel.SingleIndex)
	comp, err := core.Select(cw, whatif.New(mc), core.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the compressed selection on the FULL workload.
	compCostOnFull := m.TotalCost(comp.Selection)
	base := m.TotalCost(workload.NewSelection())
	fullImp := (base - full.Cost) / base
	compImp := (base - compCostOnFull) / base
	if compImp < fullImp-0.15 {
		t.Errorf("compressed tuning lost too much: improvement %.3f vs full %.3f (coverage %.3f, kept %d/%d)",
			compImp, fullImp, stats.Coverage, stats.KeptTemplates, stats.TotalTemplates)
	}
	t.Logf("kept %d/%d templates (%.1f%% cost coverage): improvement %.4f vs full-tuning %.4f",
		stats.KeptTemplates, stats.TotalTemplates, 100*stats.Coverage, compImp, fullImp)
}
