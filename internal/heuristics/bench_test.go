package heuristics

import (
	"testing"

	"repro/internal/candidates"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// BenchmarkH5 times one heuristic selection over the 15 000-candidate H1-M
// set (11 550 after exhausted width classes) of the sql-writes shape: 10
// tables x 30 attributes x 50 templates, a fifth of them writes, budget
// share 0.5. Every iteration starts from a fresh what-if optimizer over the
// Appendix-B cost model, so scoring pays its cold what-if calls. Arms: H5
// (benefit per byte) and H4 with the skyline pre-filter.
func BenchmarkH5(b *testing.B) {
	cfg := workload.DefaultGenConfig()
	cfg.AttrsPerTable, cfg.Seed, cfg.WriteShare = 30, 1, 0.2
	w := workload.MustGenerate(cfg)
	set, err := candidates.Enumerate(w, candidates.MaxWidth)
	if err != nil {
		b.Fatal(err)
	}
	cands, err := set.Select(candidates.H1M, 15000)
	if err != nil {
		b.Fatal(err)
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)
	for _, bc := range []struct {
		name    string
		rule    Rule
		skyline bool
	}{{"H5", H5, false}, {"H4_skyline", H4, true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Select(w, whatif.New(m), cands, bc.rule, Options{Budget: budget, Skyline: bc.skyline}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
