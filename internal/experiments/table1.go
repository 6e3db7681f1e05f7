package experiments

import (
	"fmt"
	"time"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Table1 reproduces the paper's Table I: solving time of the Extend strategy
// (H6) versus CoPhy with candidate sets of |I| = 100, 1000, 10000 (H1-M)
// over growing query counts; T=10 tables, 500 attributes, budget w=0.2,
// 5% optimality gap, what-if time excluded. DNF marks solves that hit the
// configured time limit (the paper used eight hours; seconds reproduce the
// same shape at this scale).
func Table1(cfg Config) error {
	cfg = cfg.withDefaults()
	querySweep := []int{500, 1_000, 2_000, 5_000, 10_000}
	if cfg.Scale >= 1 {
		querySweep = append(querySweep, 20_000, 50_000)
	}
	candSizes := []int{100, 1_000, 10_000}

	t := newTable("table1_runtimes",
		"queries", "IC_max", "cands", "cophy_time", "cophy_dnf", "h6_time", "h6_steps")
	for _, totalQ := range querySweep {
		gen := workload.DefaultGenConfig()
		gen.QueriesPerTable = totalQ / gen.Tables
		gen.RowsBase = cfg.scaleRows(1_000_000)
		gen.Seed = cfg.Seed
		w, err := workload.Generate(gen)
		if err != nil {
			return err
		}
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.2)

		set, err := candidates.Enumerate(w, 4)
		if err != nil {
			return err
		}
		icMax := int64(set.Len()) // distinct co-occurring combinations (paper's IC_max notion)

		// H6: solve time excludes what-if calls, so warm the cache with an
		// untimed run first (cache persists in the optimizer).
		opt := whatif.New(m)
		if _, err := core.Select(w, opt, core.Options{Budget: budget}); err != nil {
			return err
		}
		startH6 := time.Now()
		h6, err := core.Select(w, opt, core.Options{Budget: budget})
		if err != nil {
			return err
		}
		h6Time := time.Since(startH6)

		for _, size := range candSizes {
			cands, err := set.Select(candidates.H1M, size)
			if err != nil {
				return err
			}
			// The explicit LP path is forced: the sparse revised simplex with
			// warm-started branch and bound is the CPLEX stand-in, solving
			// the eq. (5)-(8) BIP directly even at the ~100k-variable scale
			// of the largest settings here.
			res, err := cophy.Solve(w, opt, cands, cophy.Options{
				Budget:    budget,
				Gap:       0.05,
				TimeLimit: cfg.SolverTimeLimit,
				ForceLP:   true,
			})
			if err != nil {
				return err
			}
			dnf := ""
			if res.Stats.DNF {
				dnf = "DNF"
			}
			t.addf("%d|%d|%d|%s|%s|%s|%d",
				totalQ, icMax, len(cands),
				res.Stats.Elapsed.Round(time.Millisecond).String(), dnf,
				h6Time.Round(time.Millisecond).String(), len(h6.Steps))
		}
	}
	if err := t.render(cfg.Out, cfg.OutDir); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "\nshape check: H6 stays near-linear in Q; CoPhy's time grows super-linearly")
	fmt.Fprintln(cfg.Out, "with queries x candidates and hits DNF first on the largest settings.")
	return nil
}
