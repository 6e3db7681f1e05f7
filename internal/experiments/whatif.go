package experiments

import (
	"fmt"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// WhatIfCalls verifies the Section III-A accounting: H6 needs roughly
// 2*Q*q-bar what-if optimizer calls (most in the first construction step),
// while CoPhy's model population needs about Q*q-bar*|I|/N — growing
// linearly with the candidate count.
func WhatIfCalls(cfg Config) error {
	cfg = cfg.withDefaults()
	t := newTable("whatif_calls",
		"queries", "qbar", "h6_calls", "2*Q*qbar", "cophy_cands", "cophy_calls", "Q*qbar*I/N")
	for _, totalQ := range []int{500, 1000, 2000} {
		gen := workload.DefaultGenConfig()
		gen.QueriesPerTable = totalQ / gen.Tables
		gen.RowsBase = cfg.scaleRows(1_000_000)
		gen.Seed = cfg.Seed
		w, err := workload.Generate(gen)
		if err != nil {
			return err
		}
		m := costmodel.New(w, costmodel.SingleIndex)
		qbar := w.AvgQueryWidth()

		opt := whatif.New(m)
		if _, err := core.Select(w, opt, core.Options{Budget: m.Budget(0.2)}); err != nil {
			return err
		}
		h6Calls := opt.Stats().Calls

		set, err := candidates.Enumerate(w, 4)
		if err != nil {
			return err
		}
		for _, size := range []int{100, 1000} {
			cands, err := set.Select(candidates.H1M, size)
			if err != nil {
				return err
			}
			fresh := whatif.New(m)
			stats := cophy.ModelSize(w, fresh, cands)
			predicted := float64(totalQ) * qbar * float64(len(cands)) / float64(w.NumAttrs())
			t.addf("%d|%.2f|%d|%.0f|%d|%d|%.0f",
				totalQ, qbar, h6Calls, 2*float64(totalQ)*qbar,
				len(cands), stats.WhatIfCalls, predicted)
		}
	}
	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: H6's calls stay near 2*Q*qbar regardless of how many")
	fmt.Fprintln(cfg.Out, "index candidates exist; CoPhy's grow with |I| per eq. (9).")
	return nil
}
