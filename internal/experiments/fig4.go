package experiments

import (
	"fmt"
	"time"

	"repro/internal/candidates"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Fig4 reproduces the paper's Figure 4: the enterprise (ERP) workload with
// N=4204 attributes over 500 tables and Q=2271 templates, tuned for budgets
// w in [0, 0.1]. H6 is compared against CoPhy restricted to H1-M candidate
// sets of size 100 and 1000 and the exhaustive representative set. Runtimes
// are reported alongside quality (the paper: H6 about half a second, CoPhy
// with all ~10k candidates minutes).
func Fig4(cfg Config) error {
	cfg = cfg.withDefaults()
	gen := workload.DefaultERPConfig()
	gen.Seed = cfg.Seed
	if cfg.Scale < 1 {
		gen.Tables = cfg.scaleInt(gen.Tables, 50)
		gen.TotalAttrs = cfg.scaleInt(gen.TotalAttrs, 400)
		gen.Queries = cfg.scaleInt(gen.Queries, 250)
		gen.MaxRows = cfg.scaleRows(1_500_000_000)
		if gen.MaxRows < gen.MinRows {
			gen.MinRows = gen.MaxRows / 4
		}
	}
	w, err := workload.GenerateERP(gen)
	if err != nil {
		return err
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	opt := whatif.New(m)
	shares := []float64{0.02, 0.04, 0.06, 0.08, 0.1}
	base := m.TotalCost(workload.NewSelection())

	startH6 := time.Now()
	h6, err := h6CostsAt(w, opt, m, shares)
	if err != nil {
		return err
	}
	h6Time := time.Since(startH6)

	set, err := candidates.Enumerate(w, 4)
	if err != nil {
		return err
	}
	curves := map[string]map[float64]float64{"H6": h6}
	times := map[string]time.Duration{"H6": h6Time}
	order := []string{"H6"}
	sizes := []int{100, 1000, 4 * set.Len()} // last covers all combinations
	labels := []string{"CoPhy/100", "CoPhy/1000", "CoPhy/I_max"}
	for i, size := range sizes {
		var cands []workload.Index
		if i == len(sizes)-1 {
			cands = set.Representatives(w)
		} else {
			cands, err = set.Select(candidates.H1M, size)
			if err != nil {
				return err
			}
		}
		start := time.Now()
		costs, err := cophyCostsAt(cfg, w, opt, m, cands, shares)
		if err != nil {
			return err
		}
		curves[labels[i]] = costs
		times[labels[i]] = time.Since(start)
		order = append(order, labels[i])
	}

	t := newTable("fig4_erp", append([]string{"budget_w"}, order...)...)
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
	rt := newTable("fig4_erp_runtimes", "strategy", "total_time")
	for _, label := range order {
		rt.add(label, times[label].Round(time.Millisecond).String())
	}
	if err := rt.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nworkload: %d tables, %d attributes, %d templates, %d executions\n",
		len(w.Tables), w.NumAttrs(), w.NumQueries(), w.TotalFreq())
	fmt.Fprintln(cfg.Out, "shape check: H6 beats CoPhy with restricted candidates across budgets")
	fmt.Fprintln(cfg.Out, "while running in a fraction of the time.")
	return nil
}
