// Package heuristics implements the rule-based and performance-based index
// selection heuristics H1-H5 of the paper's Definition 1:
//
//	H1: most frequently used attributes (occurrences g_i)
//	H2: smallest selectivity
//	H3: smallest selectivity-to-occurrences ratio
//	H4: best absolute performance, optionally skyline-filtered
//	    (Kimura et al. / Microsoft SQL Server advisor)
//	H5: best performance-per-size ratio
//	    (Valentin et al. / IBM DB2 advisor starting solution)
//
// All heuristics greedily pick from an explicit candidate set while the
// memory budget allows; candidates that do not fit are skipped and the scan
// continues with the next-ranked candidate. H1-H3 need no what-if calls;
// H4/H5 require the per-candidate benefit, i.e. a what-if call for every
// applicable (query, candidate) pair — the scaling weakness the paper
// attributes to them.
package heuristics

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Selection-level telemetry (default registry; one update per run).
var (
	mRuns = telemetry.Default().Counter("indexsel_heuristic_runs_total",
		"Completed H1-H5 heuristic selections.")
	mRunDur = telemetry.Default().Histogram("indexsel_heuristic_run_duration_seconds",
		"Wall time per heuristic selection (score + greedy).", nil)
)

// Rule identifies a Definition-1 selection heuristic.
type Rule int

const (
	// H1 ranks by descending frequency-weighted co-occurrence of the
	// candidate's attributes.
	H1 Rule = iota + 1
	// H2 ranks by ascending combined selectivity.
	H2
	// H3 ranks by ascending selectivity/occurrences ratio.
	H3
	// H4 ranks by descending total benefit (absolute performance).
	H4
	// H5 ranks by descending benefit per byte of index size.
	H5
)

func (r Rule) String() string {
	switch r {
	case H1:
		return "H1"
	case H2:
		return "H2"
	case H3:
		return "H3"
	case H4:
		return "H4"
	case H5:
		return "H5"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Options configures a heuristic run.
type Options struct {
	// Budget is the memory budget A in bytes (must be positive).
	Budget int64
	// Skyline applies the per-query dominance pre-filter to the candidate
	// set before greedy selection (H4 variant of Kimura et al.): a candidate
	// survives if, for at least one query, no other candidate is at least as
	// good in cost and size and strictly better in one.
	Skyline bool
	// Span, if non-nil, is the parent telemetry span; the run records its
	// phases (heuristics.skyline when enabled, heuristics.rank) under it.
	Span *telemetry.Span
	// Context, if non-nil, interrupts the run on cancellation or context
	// deadline. The expensive phases (skyline filtering and H4/H5 benefit
	// scoring) poll it and truncate to the candidates already evaluated, so an
	// interrupted run still returns a feasible selection over the scored
	// prefix with Result.Partial set — not an error.
	Context context.Context
	// Deadline, if non-zero, is an explicit wall-clock deadline folded with
	// the context's (the earlier wins).
	Deadline time.Time
	// Explain records selection provenance (the ranked pool with every
	// candidate's score and fate) on Result.Provenance and the run's
	// heuristics.rank span. It changes no score, tie-break, or what-if call —
	// the returned selection is identical with it on or off.
	Explain bool
}

// Result is a heuristic's selection with its evaluation.
type Result struct {
	Selection workload.Selection
	// Cost is F(I*) under the optimizer's cost source (single-index mode).
	Cost float64
	// Memory is P(I*).
	Memory int64
	// Considered is the number of candidates ranked after any pre-filter.
	Considered int
	// StopReason says how the run ended; StopConverged when the full ranked
	// scan completed.
	StopReason fault.StopReason
	// Partial is set when the run was interrupted (deadline or cancellation)
	// and the selection covers only the candidates scored before the cut.
	Partial bool
	// Provenance is the ranked-pool record, non-nil only under
	// Options.Explain.
	Provenance *explain.SelectionProvenance
}

// Select runs the given heuristic over the candidate set. A panic inside the
// cost source is recovered and returned as a *fault.WorkerPanicError.
func Select(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, rule Rule, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fault.AsPanicError("heuristics.Select", r)
		}
	}()
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("heuristics: budget must be positive (got %d)", opts.Budget)
	}
	if rule < H1 || rule > H5 {
		return nil, fmt.Errorf("heuristics: unknown rule %d", int(rule))
	}
	start := time.Now()
	stop := fault.NewStopper(opts.Context, opts.Deadline)
	var prov *explain.SelectionProvenance
	if opts.Explain {
		prov = &explain.SelectionProvenance{Rule: rule.String()}
	}
	// Intern every candidate once; scoring, skyline and the greedy scan all
	// probe by ID.
	in := opt.Interner()
	pool, poolIDs := cands, make([]workload.IndexID, len(cands))
	for i, k := range cands {
		poolIDs[i] = in.Intern(k)
	}
	var pr *prober // prices candidates for the skyline and H4/H5
	if opts.Skyline || rule == H4 || rule == H5 {
		pr = newProber(w, opt)
	}
	if opts.Skyline {
		ssp := opts.Span.Child("heuristics.skyline")
		pool, poolIDs = pr.skyline(pool, poolIDs, stop)
		ssp.SetInt("candidates_before", int64(len(cands)))
		ssp.SetInt("candidates_after", int64(len(pool)))
		ssp.End()
		if prov != nil {
			prov.SkylineBefore = len(cands)
			prov.SkylineAfter = len(pool)
		}
	}
	rsp := opts.Span.Child("heuristics.rank")
	var scores []float64
	if rule == H4 || rule == H5 {
		scores = pr.score(pool, poolIDs, rule, stop)
	} else {
		scores = score(w, pool, rule)
	}
	// An interruption mid-scoring leaves a scored prefix; rank only that
	// prefix so every selected candidate carries a fully evaluated score.
	pool = pool[:len(scores)]
	order := byScore(pool, scores)

	if prov != nil {
		prov.PoolSize = len(pool)
		prov.Scored = len(scores)
	}

	ids := workload.NewIDSelection(in)
	var mem int64
	for rank, i := range order {
		k, id := pool[i], poolIDs[i]
		taken, reason := false, ""
		switch {
		case ids.Has(id):
			reason = "duplicate"
		// Benefit-based rules never take net-harmful candidates (negative
		// score means maintenance outweighs the read improvement).
		case (rule == H4 || rule == H5) && scores[i] <= 0:
			reason = "non-positive-score"
		default:
			sz := opt.IndexSizeInterned(k, id)
			if mem+sz > opts.Budget {
				reason = "over-budget"
			} else {
				ids.Add(id)
				mem += sz
				taken = true
			}
		}
		if prov == nil {
			continue
		}
		// Cap the recorded ranking, but a taken candidate is always included
		// — the selected set must be reconstructible from the record alone.
		if len(prov.Ranking) >= explain.MaxRanking && !taken {
			prov.RankingTruncated = true
			continue
		}
		prov.Ranking = append(prov.Ranking, explain.RankedCandidate{
			Rank:      rank + 1,
			Index:     k.Key(),
			Score:     scores[i],
			SizeBytes: opt.IndexSizeInterned(k, id),
			Taken:     taken,
			Reason:    reason,
		})
	}
	sel := ids.Selection()
	reason := stop.Check()
	if reason == fault.StopNone {
		reason = fault.StopConverged
	}
	res = &Result{
		Selection:  sel,
		Cost:       TotalCost(w, opt, sel),
		Memory:     mem,
		Considered: len(pool),
		StopReason: reason,
		Partial:    reason.Interrupted(),
		Provenance: prov,
	}
	rsp.SetStr("rule", rule.String())
	rsp.SetInt("considered", int64(res.Considered))
	rsp.SetInt("selected", int64(len(sel)))
	rsp.SetInt("memory_bytes", mem)
	if prov != nil {
		rsp.SetAny("provenance", *prov)
	}
	rsp.End()
	mRuns.Inc()
	mRunDur.Observe(time.Since(start).Seconds())
	if lg := telemetry.L(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("heuristic selection complete",
			"rule", rule.String(), "considered", res.Considered,
			"selected", len(sel), "cost", res.Cost, "memory_bytes", mem)
	}
	return res, nil
}

// byScore returns the pool positions by descending score, ties broken by
// ascending index key. CompareIndexKeys orders exactly as comparing the
// Key() strings would, without building them.
func byScore(pool []workload.Index, scores []float64) []int {
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib] // higher score first
		}
		return workload.CompareIndexKeys(pool[ia], pool[ib]) < 0
	})
	return order
}

// score computes the arithmetic "higher is better" scores of H1-H3, which
// need no what-if call.
func score(w *workload.Workload, cands []workload.Index, rule Rule) []float64 {
	scores := make([]float64, len(cands))
	weights := coOccurrence(w, cands)
	for i, k := range cands {
		s := 1.0
		for _, a := range k.Attrs {
			s *= w.Attr(a).Selectivity()
		}
		switch rule {
		case H1:
			scores[i] = float64(weights[i])
		case H2:
			scores[i] = -s
		default: // H3
			if weights[i] == 0 {
				scores[i] = -s * 1e18 // unused combination: worst
			} else {
				scores[i] = -s / float64(weights[i])
			}
		}
	}
	return scores
}

// coOccurrence returns, per candidate, the frequency-weighted number of
// queries containing all of its attributes. The workload's inverted index
// lists the queries accessing the leading attribute, so no full query scan
// is needed per candidate.
func coOccurrence(w *workload.Workload, cands []workload.Index) []int64 {
	weights := make([]int64, len(cands))
	for i, k := range cands {
		for _, qid := range w.QueriesWithAttr(k.Leading()) {
			q := &w.Queries[qid]
			all := true
			for _, a := range k.Attrs {
				if !q.Accesses(a) {
					all = false
					break
				}
			}
			if all {
				weights[i] += q.Freq
			}
		}
	}
	return weights
}

// prober prices interned candidates for H4/H5 and the skyline filter: read
// costs over the templates that can use a candidate (those with a read path
// accessing its leading attribute), write burden over the write templates
// of its table. Queries are probed by pointer and base costs read once.
type prober struct {
	w      *workload.Workload
	opt    *whatif.Optimizer
	base   []float64
	writes [][]int32
}

func newProber(w *workload.Workload, opt *whatif.Optimizer) *prober {
	pr := &prober{w: w, opt: opt, base: make([]float64, len(w.Queries)), writes: w.WritesByTable()}
	for i := range w.Queries {
		pr.base[i] = opt.BaseCost(w.Queries[i])
	}
	return pr
}

// score computes the H4 (benefit) or H5 (benefit per byte) score of each
// candidate, polling the stopper between candidates; on interruption the
// returned slice is the fully-scored prefix (shorter than cands).
func (pr *prober) score(cands []workload.Index, ids []workload.IndexID, rule Rule, stop *fault.Stopper) []float64 {
	scores := make([]float64, len(cands))
	for i, k := range cands {
		if stop.Check() != fault.StopNone {
			return scores[:i]
		}
		b := pr.benefit(k, ids[i])
		if rule == H4 {
			scores[i] = b
		} else {
			scores[i] = b / float64(pr.opt.IndexSizeInterned(k, ids[i]))
		}
	}
	return scores
}

// benefit returns the candidate's individually measured total improvement
// sum_j b_j * max(0, f_j(0) - f_j(k)) minus its frequency-weighted write
// maintenance burden — the IIA-blind (net) benefit H4/H5 rank by. It can be
// negative for write-heavy workloads; such candidates are never selected.
func (pr *prober) benefit(k workload.Index, id workload.IndexID) float64 {
	var b float64
	for _, qid := range pr.w.ReadQueriesWithAttr(k.Leading()) {
		q := &pr.w.Queries[qid]
		if c := pr.opt.CostWithInterned(q, k, id); c < pr.base[qid] {
			b += float64(q.Freq) * (pr.base[qid] - c)
		}
	}
	var wc float64
	for _, qid := range pr.writes[k.Table] {
		q := &pr.w.Queries[qid]
		wc += float64(q.Freq) * pr.opt.MaintenanceCostInterned(q, k, id)
	}
	return b - wc
}

// TotalCost evaluates F(I*) in the single-index setting using the
// optimizer's cached per-index costs, including the maintenance cost write
// templates pay for every selected index they touch. The selection is
// summed in canonical key order, so the result does not depend on map
// iteration order or on the optimizer's interning history.
func TotalCost(w *workload.Workload, opt *whatif.Optimizer, sel workload.Selection) float64 {
	ks := sel.Sorted()
	ids := make([]workload.IndexID, len(ks))
	for i, k := range ks {
		ids[i] = opt.Interner().Intern(k)
	}
	var total float64
	for qi := range w.Queries {
		q := &w.Queries[qi]
		best := opt.BaseCost(*q)
		for i, k := range ks {
			if !workload.Applicable(*q, k) {
				continue
			}
			if c := opt.CostWithInterned(q, k, ids[i]); c < best {
				best = c
			}
		}
		if q.IsWrite() {
			for i, k := range ks {
				best += opt.MaintenanceCostInterned(q, k, ids[i])
			}
		}
		total += float64(q.Freq) * best
	}
	return total
}

// skyline keeps the interned candidates that are per-query efficient for at
// least one query: candidate k survives if there is a query q (to which k is
// applicable with f_q(k) < f_q(0)) where no other candidate has both cost
// and size at most k's with one strictly better (cf. Kimura et al. [11]).
// It returns the survivors and their IDs. The per-candidate cost probing
// polls the stopper and, once stopped, considers only the candidates probed
// so far — a valid (smaller) skyline over the evaluated prefix.
func (pr *prober) skyline(cands []workload.Index, ids []workload.IndexID, stop *fault.Stopper) ([]workload.Index, []workload.IndexID) {
	type entry struct {
		idx  int
		cost float64
		size int64
	}
	survives := make([]bool, len(cands))
	byQuery := make([][]entry, len(pr.w.Queries))
	for i, k := range cands {
		if stop.Check() != fault.StopNone {
			break
		}
		for _, qid := range pr.w.ReadQueriesWithAttr(k.Leading()) {
			if c := pr.opt.CostWithInterned(&pr.w.Queries[qid], k, ids[i]); c < pr.base[qid] {
				byQuery[qid] = append(byQuery[qid], entry{i, c, pr.opt.IndexSizeInterned(k, ids[i])})
			}
		}
	}
	for _, entries := range byQuery {
		// Sweep by ascending cost; an entry is on the skyline iff its size
		// is strictly below every cheaper-or-equal-cost entry seen so far.
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].cost != entries[b].cost {
				return entries[a].cost < entries[b].cost
			}
			return entries[a].size < entries[b].size
		})
		minSize := int64(1<<62 - 1)
		for _, e := range entries {
			if e.size < minSize {
				survives[e.idx] = true
				minSize = e.size
			}
		}
	}
	var out []workload.Index
	var outIDs []workload.IndexID
	for i, ok := range survives {
		if ok {
			out = append(out, cands[i])
			outIDs = append(outIDs, ids[i])
		}
	}
	return out, outIDs
}
