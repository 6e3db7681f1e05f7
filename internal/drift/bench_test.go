package drift

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// BenchmarkPlanDelta and BenchmarkPlanDeltaReconfig time one guardrailed
// retune (selection, diff and guardrail pricing) on a scaled ERP window with
// a cold what-if cache, against the same deployed set: every other index of
// a free plan. The Reconfig arm charges the daemon benchmark's 5e3 per
// created byte, so the pair shows what pricing costs the lazy step loop.
// `make bench-drift` records both as results/BENCH_drift.json.
func BenchmarkPlanDelta(b *testing.B) { benchPlanDelta(b, 0) }

func BenchmarkPlanDeltaReconfig(b *testing.B) { benchPlanDelta(b, 5e3) }

func benchPlanDelta(b *testing.B, price float64) {
	cfg := workload.DefaultERPConfig()
	cfg.Tables, cfg.TotalAttrs, cfg.Queries = 60, 500, 280
	cfg.MinRows, cfg.MaxRows = 50_000, 2_000_000
	cfg.TotalExecutions = 1_000_000
	w, err := workload.GenerateERP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	ctx := context.Background()
	budget := m.Budget(0.5)
	free, err := PlanDelta(ctx, w, whatif.New(m), workload.Selection{}, PlanOptions{Budget: budget})
	if err != nil {
		b.Fatal(err)
	}
	deployed := workload.NewSelection()
	for i, k := range free.Target.Sorted() {
		if i%2 == 0 {
			deployed.Add(k)
		}
	}
	o := PlanOptions{Budget: budget, ReconfigPerByte: price}
	var plan *Plan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan, err = PlanDelta(ctx, w, whatif.New(m), deployed, o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(plan.Creates)), "creates")
	b.ReportMetric(float64(len(plan.Drops)), "drops")
}
