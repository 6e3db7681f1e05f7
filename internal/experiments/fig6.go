package experiments

import (
	"fmt"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Fig6 reproduces the paper's Figure 6: the number of variables and
// constraints of CoPhy's LP (5)-(8) for growing relative candidate-set
// sizes on the end-to-end workload (N=100, Q=100). Both grow linearly in
// the candidate share; the exhaustive set reaches roughly the 20k
// variables/constraints the paper reports.
func Fig6(cfg Config) error {
	cfg = cfg.withDefaults()
	gen := workload.DefaultGenConfig()
	gen.Tables = 2
	gen.QueriesPerTable = 50
	gen.RowsBase = cfg.scaleRows(1_000_000)
	gen.Seed = cfg.Seed
	w, err := workload.Generate(gen)
	if err != nil {
		return err
	}
	m := costmodel.New(w, costmodel.SingleIndex)
	opt := whatif.New(m)

	set, err := candidates.Enumerate(w, 4)
	if err != nil {
		return err
	}
	all := set.Representatives(w)
	fmt.Fprintf(cfg.Out, "exhaustive candidate set |I_max| = %d combination representatives (paper: 2937)\n", len(all))

	t := newTable("fig6_lp_size", "share", "candidates", "variables", "constraints")
	for _, share := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		n := int(share * float64(len(all)))
		if n < 1 {
			n = 1
		}
		stats := cophy.ModelSize(w, opt, all[:n])
		t.addf("%.1f|%d|%d|%d", share, n, stats.Vars, stats.Constraints)
	}
	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: variables and constraints grow linearly in the share.")
	return nil
}
