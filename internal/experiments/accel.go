package experiments

import (
	"fmt"

	"repro/internal/candidates"
	"repro/internal/compress"
	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/inum"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Accel quantifies the two what-if acceleration levers the paper's related
// work discusses: INUM-style plan-skeleton reuse (Papadomanolakis et al.)
// and coverage-bounded workload compression (Chaudhuri et al.). For each, it
// reports the reduction in underlying optimizer evaluations and the
// selection-quality impact, evaluated on the FULL workload.
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
	t.addf("extend/plain|%d|%.5f|%d", opt.Stats().Calls, res.Cost/base, w.NumQueries())

	// Extend through INUM: same selection, fewer underlying evaluations.
	in := inum.New(m)
	optINUM := whatif.New(in)
	resI, err := core.Select(w, optINUM, core.Options{Budget: budget})
	if err != nil {
		return err
	}
	t.addf("extend/INUM|%d|%.5f|%d", in.Stats().Evaluations, m.TotalCost(resI.Selection)/base, w.NumQueries())

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

	// CoPhy model population over permutation candidates: the INUM sweet
	// spot (every ordering of a combination shares a skeleton).
	combos, err := candidates.Combos(w, 3)
	if err != nil {
		return err
	}
	perms := candidates.Permutations(combos)
	plain := whatif.New(m)
	ps := cophy.ModelSize(w, plain, perms)
	in2 := inum.New(m)
	cophy.ModelSize(w, whatif.New(in2), perms)
	t.addf("cophy-model/plain (%d perms)|%d|-|%d", len(perms), ps.WhatIfCalls, w.NumQueries())
	t.addf("cophy-model/INUM (%d perms)|%d|-|%d", len(perms), in2.Stats().Evaluations, w.NumQueries())

	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: INUM preserves selections exactly while cutting underlying")
	fmt.Fprintln(cfg.Out, "evaluations (order-of-magnitude on permutation candidate sets); workload")
	fmt.Fprintln(cfg.Out, "compression trades a bounded quality loss for fewer templates everywhere.")
	return nil
}
