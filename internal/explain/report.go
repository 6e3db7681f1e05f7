package explain

import (
	"fmt"
	"io"
)

// WriteReport renders a human-readable "why" report for a run: the headline
// outcome, each construction step's decision rationale (gain decomposition,
// runner-up margin, prune ledger), the non-Extend strategy certificates, and
// the per-index attribution table.
func WriteReport(w io.Writer, run *Run) error {
	improvement := run.BaseCost - run.Cost
	pct := 0.0
	if run.BaseCost != 0 {
		pct = 100 * improvement / run.BaseCost
	}
	if _, err := fmt.Fprintf(w, "Run: strategy=%s  cost %.6g -> %.6g  (improvement %.6g, %.2f%%)\n",
		run.Strategy, run.BaseCost, run.Cost, improvement, pct); err != nil {
		return err
	}
	fmt.Fprintf(w, "     memory %d / budget %d bytes, %d indexes, stop: %s\n",
		run.MemoryBytes, run.BudgetBytes, run.Indexes, run.StopReason)

	for i, st := range run.Steps {
		writeStep(w, i, st)
	}
	if run.Heuristic != nil {
		writeHeuristic(w, run.Heuristic)
	}
	if run.Solve != nil {
		writeSolve(w, run.Solve)
	}
	if run.Attribution != nil {
		writeAttribution(w, run.Attribution)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func writeStep(w io.Writer, i int, st JournalStep) {
	fmt.Fprintf(w, "\nStep %d: %s %s  gain=%.6g ratio=%.6g  [%d candidates = %d evaluated + %d cached + %d pruned]\n",
		i+1, st.Kind, st.Index, st.Gain, st.Ratio,
		st.Candidates, st.Evaluated, st.CacheServed, st.Pruned)
	p := st.Provenance
	if p == nil {
		return
	}
	if p.Replaced != "" {
		fmt.Fprintf(w, "  replaces %s\n", p.Replaced)
	}
	fmt.Fprintf(w, "  decomposition: read gain %.6g - maintenance %.6g", p.ReadGain, p.MaintenanceDelta)
	if p.ReconfigDelta != 0 {
		fmt.Fprintf(w, " - reconfiguration %.6g", p.ReconfigDelta)
	}
	fmt.Fprintf(w, " = %.6g over %+d bytes\n", p.Gain, p.MemDeltaBytes)
	if p.RunnerUp != nil {
		fmt.Fprintf(w, "  runner-up: %s %s ratio=%.6g (margin %.6g)\n",
			p.RunnerUp.Kind, p.RunnerUp.Index, p.RunnerUp.Ratio, p.Margin)
	}
	if len(p.ByQuery) > 0 {
		fmt.Fprintf(w, "  affected queries (%d", p.QueriesChanged)
		if p.ByQueryTruncated {
			fmt.Fprintf(w, ", top %d shown", len(p.ByQuery))
		}
		fmt.Fprintf(w, "):\n")
		for _, d := range p.ByQuery {
			fmt.Fprintf(w, "    Q%-5d freq=%-8d %.6g -> %.6g  (delta %.6g)\n",
				d.Query, d.Freq, d.Before, d.After, d.Delta)
		}
	}
	if p.LedgerSkipped > 0 {
		fmt.Fprintf(w, "  prune ledger: %d candidates skipped across %d buckets", p.LedgerSkipped, p.LedgerBuckets)
		if p.LedgerTruncated {
			fmt.Fprintf(w, " (top %d shown)", len(p.PruneLedger))
		}
		fmt.Fprintf(w, ":\n")
		for _, b := range p.PruneLedger {
			mode := "sealed"
			if b.Opened {
				mode = "opened"
			}
			fmt.Fprintf(w, "    lead %-5d bound=%.6g epoch=%d  %d/%d skipped (%s)\n",
				b.Lead, b.Bound, b.Epoch, b.Skipped, b.Entries, mode)
		}
	}
}

func writeHeuristic(w io.Writer, p *SelectionProvenance) {
	fmt.Fprintf(w, "\nHeuristic %s: pool %d, scored %d", p.Rule, p.PoolSize, p.Scored)
	if p.SkylineBefore > 0 {
		fmt.Fprintf(w, " (skyline %d -> %d)", p.SkylineBefore, p.SkylineAfter)
	}
	fmt.Fprintf(w, "\n")
	for _, rc := range p.Ranking {
		fate := rc.Reason
		if rc.Taken {
			fate = "taken"
		}
		fmt.Fprintf(w, "  #%-4d %-40s score=%.6g size=%d  %s\n",
			rc.Rank, rc.Index, rc.Score, rc.SizeBytes, fate)
	}
	if p.RankingTruncated {
		fmt.Fprintf(w, "  ... ranking truncated at %d entries\n", len(p.Ranking))
	}
}

func writeSolve(w io.Writer, p *SolveProvenance) {
	method := "greedy, certified by bounds"
	switch {
	case p.Sifted:
		method = "MIP (sifted)"
	case p.Nodes > 0:
		method = "MIP branch-and-bound"
	}
	fmt.Fprintf(w, "\nCoPhy solve (%s): %d candidates, %d vars, %d constraints, %d nodes\n",
		method, p.Candidates, p.Vars, p.Constraints, p.Nodes)
	fmt.Fprintf(w, "  certificate: incumbent %.6g >= bound %.6g  (gap %.4g%s)\n",
		p.Incumbent, p.Bound, p.Gap, dnfSuffix(p.DNF))
	if p.RootObjective != 0 || p.BudgetDual != 0 {
		fmt.Fprintf(w, "  root LP: objective %.6g, budget shadow price %.6g per byte\n",
			p.RootObjective, p.BudgetDual)
	}
}

func dnfSuffix(dnf bool) string {
	if dnf {
		return ", DNF"
	}
	return ""
}

func writeAttribution(w io.Writer, a *Attribution) {
	fmt.Fprintf(w, "\nAttribution (improvement %.6g = sum of per-index nets %.6g):\n",
		a.BaseCost-a.Cost, a.TotalImprovement())
	for _, ix := range a.Indexes {
		fmt.Fprintf(w, "  %-44s net=%.6g  (benefit %.6g - maintenance %.6g, %d queries)\n",
			ix.Index, ix.Net, ix.Benefit, ix.Maintenance, ix.QueryCount)
		for _, qa := range ix.TopQueries {
			fmt.Fprintf(w, "      Q%-5d freq=%-8d %.6g -> %.6g  (benefit %.6g)\n",
				qa.Query, qa.Freq, qa.Base, qa.Cost, qa.Benefit)
		}
		if ix.QueriesTruncated {
			fmt.Fprintf(w, "      ... %d more queries\n", ix.QueryCount-len(ix.TopQueries))
		}
	}
}
