package experiments

import (
	"fmt"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/heuristics"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Writes exercises the model's update/insert extension point (Section II-A
// admits writes; the paper's evaluation is read-only): as the write share of
// the workload grows, index maintenance eats into read benefits, so a
// write-aware selector must build FEWER indexes. Compared are Extend (write-
// aware by construction), H5 (write-aware net benefit) and H1 (rule-based,
// write-oblivious — it keeps over-indexing and its true cost degrades).
func Writes(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable("writes_sensitivity",
		"write_share", "strategy", "cost_rel", "indexes", "memory_MB")
	for _, share := range []float64{0, 0.1, 0.25, 0.5} {
		gen := workload.DefaultGenConfig()
		gen.Tables, gen.AttrsPerTable, gen.QueriesPerTable = 4, 30, 60
		gen.RowsBase = cfg.scaleRows(1_000_000)
		gen.Seed = cfg.Seed
		gen.WriteShare = share
		w, err := workload.Generate(gen)
		if err != nil {
			return err
		}
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.3)
		base := m.TotalCost(workload.NewSelection())

		opt := whatif.New(m)
		ext, err := core.Select(w, opt, core.Options{Budget: budget, DropUnused: true})
		if err != nil {
			return err
		}
		t.addf("%.2f|Extend|%.5f|%d|%.1f",
			share, ext.Cost/base, len(ext.Selection), float64(ext.Memory)/1e6)

		set, err := candidates.Enumerate(w, 2)
		if err != nil {
			return err
		}
		cands := set.Representatives(w)
		for _, rule := range []heuristics.Rule{heuristics.H5, heuristics.H1} {
			res, err := heuristics.Select(w, opt, cands, rule, heuristics.Options{Budget: budget})
			if err != nil {
				return err
			}
			t.addf("%.2f|%s|%.5f|%d|%.1f",
				share, rule, res.Cost/base, len(res.Selection), float64(res.Memory)/1e6)
		}
	}
	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: with growing write share the write-aware strategies")
	fmt.Fprintln(cfg.Out, "select fewer indexes and keep costs controlled; the write-oblivious")
	fmt.Fprintln(cfg.Out, "rule H1 fills the budget regardless and pays for it in maintenance.")
	return nil
}
