package experiments

import (
	"fmt"

	"repro/internal/candidates"
	"repro/internal/compress"
	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Accel quantifies the two what-if acceleration levers the paper's related
// work discusses: INUM-style plan-skeleton reuse (Papadomanolakis et al.),
// which the what-if optimizer applies to every prefix-invariant source, and
// coverage-bounded workload compression (Chaudhuri et al.). For each, it
// reports the reduction in underlying optimizer evaluations and the
// selection-quality impact, evaluated on the FULL workload. A "plain" row
// counts what-if calls (distinct probes, what a cache without skeleton reuse
// evaluates); the "skeleton" row of the same run counts the evaluations the
// source actually ran.
func Accel(cfg Config) error {
	cfg = cfg.withDefaults()
	gen := workload.DefaultGenConfig()
	gen.Tables, gen.AttrsPerTable, gen.QueriesPerTable = 5, 30, 80
	gen.RowsBase = cfg.scaleRows(1_000_000)
	gen.Seed = cfg.Seed
	w, err := workload.Generate(gen)
	if err != nil {
		return err
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.3)
	base := m.TotalCost(workload.NewSelection())

	t := newTable("accel_whatif_levers",
		"setup", "underlying_evals", "cost_rel_on_full", "templates")

	// Baseline: Extend on the raw model.
	opt := whatif.New(m)
	res, err := core.Select(w, opt, core.Options{Budget: budget})
	if err != nil {
		return err
	}
	st := opt.Stats()
	t.addf("extend/plain|%d|%.5f|%d", st.Calls, res.Cost/base, w.NumQueries())
	t.addf("extend/skeleton|%d|%.5f|%d", st.SourceCalls, res.Cost/base, w.NumQueries())

	// Workload compression: tune on the compressed workload, evaluate full.
	for _, eps := range []float64{0.05, 0.2} {
		cw, stats, err := compress.ByCoverage(w, whatif.New(m), eps)
		if err != nil {
			return err
		}
		mc := costmodel.New(cw, costmodel.SingleIndex)
		optC := whatif.New(mc)
		resC, err := core.Select(cw, optC, core.Options{Budget: budget})
		if err != nil {
			return err
		}
		t.addf("extend/compress eps=%.2f|%d|%.5f|%d",
			eps, optC.Stats().Calls, m.TotalCost(resC.Selection)/base, stats.KeptTemplates)
	}

	// CoPhy model population over permutation candidates: the skeleton
	// sweet spot (orderings of a combination that agree on a query's
	// coverable prefix share its skeleton).
	combos, err := candidates.Combos(w, 3)
	if err != nil {
		return err
	}
	perms := candidates.Permutations(combos)
	optP := whatif.New(m)
	ps := cophy.ModelSize(w, optP, perms)
	t.addf("cophy-model/plain (%d perms)|%d|-|%d", len(perms), ps.WhatIfCalls, w.NumQueries())
	t.addf("cophy-model/skeleton (%d perms)|%d|-|%d", len(perms), optP.Stats().SourceCalls, w.NumQueries())

	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: skeleton reuse leaves every cost and selection unchanged while")
	fmt.Fprintln(cfg.Out, "cutting underlying evaluations (most on permutation candidate sets; Extend's")
	fmt.Fprintln(cfg.Out, "own probes already use their whole key); workload compression trades a")
	fmt.Fprintln(cfg.Out, "bounded quality loss for fewer templates everywhere.")
	return nil
}
