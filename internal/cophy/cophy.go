// Package cophy re-implements CoPhy's linear-programming index-selection
// approach (Dash et al., PVLDB 2011) as formalized in Section II-B of the
// paper, eqs. (5)-(8): given a fixed candidate set I, pick x_k ∈ {0,1} and
// per-query assignments z_jk minimizing total workload cost under a memory
// budget, with at most one index per query.
//
// Solve runs one sequence, and every gap in it is relative to the total
// workload cost, objective (5), as the paper's CPLEX mipgap is:
//
//  1. the lazy greedy (CELF) incumbent, checked against two cheap bounds
//     (fractional knapsack and memory-relaxed). This certifies most
//     advisor-sized candidate sets in about a millisecond;
//  2. otherwise the Lagrangian dual ascent bound (sift.go), still over the
//     greedy incumbent;
//  3. otherwise one explicit MIP over package lp, started from the greedy
//     incumbent. Up to maxDirectLPSize LP variables it is the whole model of
//     eqs. (5)-(8); above, the ascent's restriction of it, whose selection
//     is certified over the full model by the ascent or root-dual Lagrangian
//     bound. The MIP is also the source of the paper's Figure-6
//     variable/constraint accounting.
//
// Solve honors a deadline and reports DNF ("did not finish") when the gap
// was not proven, reproducing the scaling behaviour of Table I.
package cophy

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Solve-level telemetry (default registry; one update per solve phase).
var (
	mSolves = telemetry.Default().Counter("indexsel_cophy_solves_total",
		"Completed CoPhy solves.")
	mSolveDur = telemetry.Default().Histogram("indexsel_cophy_solve_duration_seconds",
		"Wall time of the CoPhy solve phase (excluding model build).", nil)
	mNodes = telemetry.Default().Counter("indexsel_cophy_nodes_total",
		"Branch-and-bound nodes explored across solves.")
	mDNF = telemetry.Default().Counter("indexsel_cophy_dnf_total",
		"CoPhy solves that did not prove their gap (DNF).")
)

// Options configures a CoPhy solve.
type Options struct {
	// Budget is the memory budget A in bytes (must be positive).
	Budget int64
	// Gap is the relative optimality gap in total workload cost (the paper
	// uses mipgap=0.05 on objective (5)).
	Gap float64
	// TimeLimit aborts the solve; zero means none. On abort the best
	// incumbent found is returned with Stats.DNF set.
	TimeLimit time.Duration
	// Context, if non-nil, cancels the solve with the same graceful
	// degradation as TimeLimit: the model build truncates its candidate loop,
	// the ascent stops between its grid points, the MIP's branch-and-bound
	// reducer stops between node batches, and the best incumbent found
	// (greedy at worst) is returned with Stats.DNF set. The context's own
	// deadline (if earlier than TimeLimit's) wins.
	Context context.Context
	// DominanceReduction removes globally dominated candidates before
	// solving when there are at most 4 000 of them (the filter is
	// quadratic). It never changes the optimum, only the search size.
	DominanceReduction bool
	// Parallelism is the number of worker goroutines the MIP's branch and
	// bound uses for node LP solves; 0 means GOMAXPROCS.
	// Results are bit-identical at any setting.
	Parallelism int
	// Span, if non-nil, is the parent telemetry span; the solve records one
	// child span per phase (cophy.build, cophy.reduce, cophy.solve) under
	// it, and cophy.solve one per solve step that runs (cophy.ascent,
	// cophy.mip).
	Span *telemetry.Span
	// Explain records the solve's optimality certificate (incumbent, proven
	// bound, gap, node count, root LP objective and budget shadow price) on
	// Result.Provenance and the cophy.solve span. It changes nothing about
	// the search — the certificate is read off state the solve already
	// computes.
	Explain bool
}

// Stats reports the solve's size and effort.
type Stats struct {
	// Vars and Constraints are the LP dimensions per the paper's counting:
	// |I| + sum_j |I_j ∪ 0| variables and Q + sum_j |I_j| + 1 constraints,
	// with I_j the candidates whose leading attribute occurs in q_j.
	Vars, Constraints int
	// WhatIfCalls is the number of cost evaluations performed to populate
	// the model's f_j(k) coefficients (≈ Q * q-bar * |I| / N, eq. (9)).
	WhatIfCalls int64
	// Nodes is the number of MIP branch-and-bound nodes explored; zero when
	// a bound certified the greedy incumbent without the MIP.
	Nodes int
	// Elapsed is the wall-clock solve time (excluding what-if calls).
	Elapsed time.Duration
	// Gap is the proven relative optimality gap, (Cost − bound)/Cost for the
	// best lower bound the solve established on any selection's cost.
	Gap float64
	// DNF reports that the gap was not proven within Options.Gap: the time
	// limit or the context stopped the solve (or its model build) first,
	// or, for a model of more than 40 000 LP variables that the MIP solved
	// over a restriction, the full-model certificate missed Options.Gap.
	// Gap then still holds the proven gap.
	DNF bool
}

// Result is a CoPhy selection.
type Result struct {
	Selection workload.Selection
	// Cost is F(I*) in the single-index setting.
	Cost float64
	// Memory is P(I*).
	Memory int64
	Stats  Stats
	// Provenance is the solve certificate, non-nil only under
	// Options.Explain.
	Provenance *explain.SolveProvenance
}

// Solve runs CoPhy over the candidate set.
//
// Solve never lets a panic escape: a panic during the model build, the
// bounds, or a node LP solve is recovered and returned as a
// *fault.WorkerPanicError.
func Solve(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, opts Options) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fault.AsPanicError("cophy.Solve", r)
		}
	}()
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("cophy: budget must be positive (got %d)", opts.Budget)
	}
	// The build phase honors only the context (TimeLimit is a solve-phase
	// budget): cancellation truncates the candidate loop, and the solve then
	// degrades over the candidates built so far.
	buildStop := fault.NewStopper(opts.Context, time.Time{})
	bsp := opts.Span.Child("cophy.build")
	ins := buildInstance(w, opt, cands, buildStop)
	stats := Stats{
		Vars:        ins.paperVars,
		Constraints: ins.paperConstraints,
		WhatIfCalls: ins.whatIfCalls,
	}
	bsp.SetInt("candidates", int64(len(cands)))
	bsp.SetInt("vars", int64(stats.Vars))
	bsp.SetInt("constraints", int64(stats.Constraints))
	bsp.SetInt("whatif_calls", stats.WhatIfCalls)
	bsp.End()
	if opts.Explain {
		ins.prov = &explain.SolveProvenance{}
	}

	if opts.DominanceReduction && len(ins.cands) <= maxDominanceSize {
		rsp := opts.Span.Child("cophy.reduce")
		before := len(ins.cands)
		ins.reduceDominated()
		rsp.SetInt("candidates_before", int64(before))
		rsp.SetInt("candidates_after", int64(len(ins.cands)))
		rsp.End()
	}

	ssp := opts.Span.Child("cophy.solve")
	start := time.Now()
	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	// stop merges TimeLimit and the context (including the context's own
	// deadline) for the solve phase.
	stop := fault.NewStopper(opts.Context, deadline)
	out, err := ins.solve(opts.Budget, opts.Gap, stop, opts.Parallelism, ssp)
	if err != nil {
		ssp.Discard()
		return nil, err
	}
	cost, gap := out.cost, relGap(out.cost, out.bound)
	// A cancelled build means the solve ran over a candidate subset; the
	// result is feasible but not a certificate over the full set.
	dnf := out.stopped || ins.truncated || !(gap <= opts.Gap+gapTol)
	stats.Elapsed = time.Since(start)
	stats.Nodes = out.nodes
	stats.Gap = gap
	stats.DNF = dnf

	if ins.prov != nil {
		p := ins.prov
		p.Candidates = len(ins.cands)
		p.Vars = stats.Vars
		p.Constraints = stats.Constraints
		p.Nodes = out.nodes
		p.Incumbent = cost
		p.DNF = dnf
		// A cost source that returned NaN or infinities leaves no
		// certificate; the record stays JSON-marshalable by carrying one
		// only when it is finite.
		if !math.IsInf(gap, 0) && !math.IsNaN(gap) {
			p.Gap = gap
			p.Bound = cost - gap*math.Abs(cost)
		}
		ssp.SetAny("provenance", *p)
	}
	ssp.SetInt("nodes", int64(out.nodes))
	ssp.SetFloat("gap", gap)
	ssp.SetBool("dnf", dnf)
	ssp.SetInt("selected", int64(len(out.chosen)))
	ssp.End()
	mSolves.Inc()
	mSolveDur.Observe(stats.Elapsed.Seconds())
	mNodes.Add(int64(out.nodes))
	if dnf {
		mDNF.Inc()
	}
	if lg := telemetry.L(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("cophy solve complete",
			"candidates", len(cands), "nodes", out.nodes,
			"gap", gap, "dnf", dnf, "elapsed", stats.Elapsed)
	}

	sel := workload.NewSelection()
	var mem int64
	for _, ci := range out.chosen {
		sel.Add(ins.cands[ci].index)
		mem += ins.cands[ci].size
	}
	return &Result{Selection: sel, Cost: cost, Memory: mem, Stats: stats, Provenance: ins.prov}, nil
}

// ModelSize reports the LP dimensions and what-if cost of CoPhy's
// formulation for the candidate set without solving it — the accounting
// behind the paper's Figure 6.
func ModelSize(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index) Stats {
	ins := buildInstance(w, opt, cands, nil)
	return Stats{
		Vars:        ins.paperVars,
		Constraints: ins.paperConstraints,
		WhatIfCalls: ins.whatIfCalls,
	}
}

// instance is the preprocessed problem: per-query applicable candidates with
// their cost coefficients.
type instance struct {
	w     *workload.Workload
	cands []candInfo
	// perQuery[j] lists (candidate index, f_j(k)) for candidates applicable
	// to query j with f_j(k) < f_j(0); base[j] is f_j(0).
	perQuery [][]assign
	base     []float64
	freq     []float64

	paperVars        int
	paperConstraints int
	whatIfCalls      int64

	// truncated reports that the build was cut short by cancellation: the
	// instance covers a prefix of the candidate set, so any solve over it is
	// feasible but DNF with respect to the full set.
	truncated bool

	// prov, when non-nil, collects the solve certificate; the MIP step adds
	// the root-relaxation fields (objective, budget dual) as it computes
	// them.
	prov *explain.SolveProvenance
}

type candInfo struct {
	index workload.Index
	size  int64
	// queries lists (query ID, cost) pairs where this candidate improves on
	// the base cost (read paths only).
	queries []assign
	// writeCost is the frequency-weighted maintenance burden the workload's
	// write templates impose once this candidate is selected. It enters the
	// objective as a coefficient on x_k.
	writeCost float64
}

type assign struct {
	other int // candidate index (in perQuery) or query ID (in candInfo)
	cost  float64
}

// buildInstance preprocesses the candidate set into the solve instance,
// performing one what-if call per applicable (query, candidate) pair — the
// expensive phase under measured sources. A non-nil stop truncates the
// candidate loop on cancellation: candidates built so far form a consistent
// (smaller) instance and ins.truncated is set.
func buildInstance(w *workload.Workload, opt *whatif.Optimizer, cands []workload.Index, stop *fault.Stopper) *instance {
	ins := &instance{
		w:        w,
		perQuery: make([][]assign, w.NumQueries()),
		base:     make([]float64, w.NumQueries()),
		freq:     make([]float64, w.NumQueries()),
	}
	before := opt.Stats()
	for _, q := range w.Queries {
		ins.base[q.ID] = opt.BaseCost(q)
		ins.freq[q.ID] = float64(q.Freq)
	}
	ins.cands = make([]candInfo, len(cands))
	paperIj := 0
	for ci, k := range cands {
		if stop.Check() != fault.StopNone {
			ins.cands = ins.cands[:ci]
			ins.truncated = true
			break
		}
		info := candInfo{index: k, size: opt.IndexSize(k)}
		for _, q := range w.Queries {
			if q.IsWrite() {
				info.writeCost += float64(q.Freq) * opt.MaintenanceCost(q, k)
			}
			if !workload.Applicable(q, k) {
				continue
			}
			paperIj++ // member of I_j by the leading-attribute rule
			c := opt.CostWithIndex(q, k)
			if c < ins.base[q.ID] {
				info.queries = append(info.queries, assign{q.ID, c})
				ins.perQuery[q.ID] = append(ins.perQuery[q.ID], assign{ci, c})
			}
		}
		ins.cands[ci] = info
	}
	after := opt.Stats()
	ins.whatIfCalls = after.Calls - before.Calls
	// Paper counting: |I| + sum_j(|I_j|+1) variables; Q + sum_j |I_j| + 1
	// constraints (eqs. (6)-(8) with the z_j0 option). A truncated build
	// counts the candidates actually materialized.
	ins.paperVars = len(ins.cands) + paperIj + w.NumQueries()
	ins.paperConstraints = w.NumQueries() + paperIj + 1
	return ins
}

// lpVars returns the size of the benefit-filtered explicit LP.
func (ins *instance) lpVars() int {
	n := len(ins.cands) + len(ins.perQuery)
	for _, pq := range ins.perQuery {
		n += len(pq)
	}
	return n
}

// reduceDominated drops candidates k for which another candidate k2 is no
// larger and at least as good for every query k improves (and strictly
// better in size or some cost, with a deterministic tie-break). Dominated
// candidates can be exchanged for their dominator in any feasible solution
// without losing quality, so removal preserves the optimum.
func (ins *instance) reduceDominated() {
	n := len(ins.cands)
	// Per-query cost lookup for dominance checks.
	costOf := make([]map[int]float64, n)
	for ci := range ins.cands {
		m := make(map[int]float64, len(ins.cands[ci].queries))
		for _, a := range ins.cands[ci].queries {
			m[a.other] = a.cost
		}
		costOf[ci] = m
	}
	dominated := make([]bool, n)
	for a := 0; a < n; a++ {
		if dominated[a] || len(ins.cands[a].queries) == 0 {
			if len(ins.cands[a].queries) == 0 {
				dominated[a] = true // helps no query at all
			}
			continue
		}
		for b := 0; b < n; b++ {
			if a == b || dominated[b] || ins.cands[b].size > ins.cands[a].size ||
				ins.cands[b].writeCost > ins.cands[a].writeCost+1e-12 {
				continue
			}
			if len(ins.cands[b].queries) < len(ins.cands[a].queries) {
				continue
			}
			dominatesAll := true
			strict := ins.cands[b].size < ins.cands[a].size
			for _, qa := range ins.cands[a].queries {
				cb, ok := costOf[b][qa.other]
				if !ok || cb > qa.cost {
					dominatesAll = false
					break
				}
				if cb < qa.cost {
					strict = true
				}
			}
			if dominatesAll && (strict || b < a) {
				dominated[a] = true
				break
			}
		}
	}
	keep := make([]candInfo, 0, n)
	remap := make([]int, n)
	for ci := range ins.cands {
		if dominated[ci] {
			remap[ci] = -1
			continue
		}
		remap[ci] = len(keep)
		keep = append(keep, ins.cands[ci])
	}
	ins.cands = keep
	for j := range ins.perQuery {
		filtered := ins.perQuery[j][:0]
		for _, a := range ins.perQuery[j] {
			if remap[a.other] >= 0 {
				a.other = remap[a.other]
				filtered = append(filtered, a)
			}
		}
		ins.perQuery[j] = filtered
	}
}

const (
	// maxDominanceSize bounds the candidate count for the quadratic
	// dominance filter.
	maxDominanceSize = 4000
	// gapTol absorbs the float noise between the MIP's objective and the
	// selection's recomputed cost when deciding whether the gap was proven.
	gapTol = 1e-9
)

// maxDirectLPSize bounds the LP variables the MIP step materializes in
// full; larger models are restricted by the ascent. A variable only so
// tests can exercise the restriction on brute-forceable instances.
var maxDirectLPSize = 40_000

// relGap is the relative gap between a selection's cost and a lower bound
// on every selection's cost, floored at zero.
func relGap(cost, bound float64) float64 {
	if cost <= 0 || bound >= cost {
		return 0
	}
	return (cost - bound) / cost
}

// solved is the outcome of the solve sequence: the selection, its cost, the
// best proven lower bound on any selection's cost, the MIP's node count, and
// whether the time limit or the context stopped the solve.
type solved struct {
	chosen  []int
	cost    float64
	bound   float64
	nodes   int
	stopped bool
}

// solve runs the sequence of the package comment: greedy certified by the
// cheap bounds, else by the ascent bound, else one MIP from the greedy
// incumbent. Each step runs only if the bounds so far miss the gap.
func (ins *instance) solve(budget int64, gap float64, stop *fault.Stopper, parallelism int, span *telemetry.Span) (solved, error) {
	out := solved{}
	out.chosen, out.cost = ins.greedy(budget)
	out.bound = ins.cheapBound(budget)
	if relGap(out.cost, out.bound) <= gap {
		return out, nil
	}

	asp := span.Child("cophy.ascent")
	asc := newAscent(ins, budget)
	ascBound, lam := asc.search(out.cost, ins.baseTotal(), stop)
	asp.SetFloat("bound", ascBound)
	asp.SetFloat("lambda", lam)
	asp.SetInt("passes", int64(asc.passes))
	asp.End()
	out.bound = math.Max(out.bound, ascBound)
	if relGap(out.cost, out.bound) <= gap {
		return out, nil
	}
	if stop.Check() != fault.StopNone {
		out.stopped = true
		return out, nil
	}

	var restrict *ascent
	if ins.lpVars() > maxDirectLPSize {
		restrict = asc
		if ins.prov != nil {
			ins.prov.Sifted = true
		}
	}
	msp := span.Child("cophy.mip")
	mm := ins.buildMIP(budget, out.chosen, restrict, lam)
	msp.SetInt("vars", int64(mm.NumVars()))
	msp.SetInt("rows", int64(mm.NumConstraints()))
	msp.SetBool("restricted", !mm.complete)
	res, err := lp.SolveMIP(mm.Model, lp.MIPOptions{
		Gap:          gap,
		Deadline:     stop.Deadline(),
		Context:      stop.Context(),
		Parallelism:  parallelism,
		Incumbent:    mm.incumbent,
		CrashAtUpper: mm.crash,
		Span:         msp,
	})
	if err != nil {
		msp.Discard()
		return out, err
	}
	out.nodes, out.stopped = res.Nodes, res.DNF

	if res.Status == lp.Optimal {
		// Recompute the cost from the selection (z variables may leave slack
		// when an unused index is set).
		chosen := mm.selected(res.X)
		if c := ins.evalCost(chosen); c < out.cost {
			out.chosen, out.cost = chosen, c
		}
	}
	// Density greedy over the root relaxation's fractional support: the
	// support is the set the LP proves worth buying fractions of, and greedy
	// within it routinely beats greedy over everything.
	if res.RootX != nil {
		support := make([]bool, len(ins.cands))
		for ci, x := range mm.xVar {
			support[ci] = x >= 0 && res.RootX[x] > 1e-6
		}
		if sChosen, sCost := ins.greedyMasked(budget, support); sCost < out.cost {
			out.chosen, out.cost = sChosen, sCost
		}
	}

	// The MIP's own bound certifies the full model only when the model is
	// whole; the Lagrangian bound at the root's duals always does.
	if mm.complete && !math.IsInf(res.Bound, -1) {
		out.bound = math.Max(out.bound, res.Bound)
	}
	if res.RootDuals != nil {
		vv := make([]float64, len(ins.perQuery))
		for j := range vv {
			vv[j] = ins.freq[j]*ins.base[j] + math.Min(res.RootDuals[mm.assignRow[j]], 0)
		}
		lamLP := math.Max(-res.RootDuals[mm.budgetRow], 0)
		out.bound = math.Max(out.bound, ins.lagrangeBound(vv, lamLP, budget))
		if ins.prov != nil {
			ins.prov.RootObjective = res.RootObjective
			ins.prov.BudgetDual = lamLP
		}
	}
	msp.SetFloat("full_model_bound", out.bound)
	msp.End()
	return out, nil
}

// mipModel is eqs. (5)-(8) over a restriction of the instance, with the
// greedy selection as a feasible starting point.
//
// The model is built in substituted form: the base-assignment variable is
// eliminated via z_j0 = 1 − Σ_k z_jk, turning constraint (6) into
// Σ_k z_jk ≤ 1 and shifting each z_jk's cost to freq·(f_j(k) − f_j(0)) ≤ 0
// plus the objective constant Σ freq·f_j(0). With every row a ≤ with
// nonnegative right-hand side, the all-slack basis is primal feasible at the
// "no indexes" vertex and the primal simplex descends directly — no
// equality phase-1 work on the 100k-row instances of Table I. The constant
// keeps the MIP's objective, bound and gap in total workload cost.
type mipModel struct {
	*lp.Model
	xVar      []int // per candidate; -1 outside the restriction
	assignRow []int // per query: its Σ_k z_jk ≤ 1 row
	budgetRow int
	incumbent []float64
	// crash lists the greedy x columns: the root LP starts at the greedy
	// vertex, so the z ≤ x rows open up immediately instead of forcing a
	// long run of degenerate pivots from the all-zero start.
	crash []int
	// complete reports that the restriction dropped no candidate and no
	// (query, candidate) pair, so the MIP's bound holds for the full model.
	complete bool
}

// buildMIP builds the model. A nil restrict keeps every candidate and pair;
// otherwise the ascent's restriction (left at lam) picks the candidates and
// prunes pairs far above their query's dual, except for greedy-selected
// candidates, which the incumbent needs intact.
func (ins *instance) buildMIP(budget int64, greedy []int, restrict *ascent, lam float64) *mipModel {
	inG := make([]bool, len(ins.cands))
	for _, ci := range greedy {
		inG[ci] = true
	}
	var inR []bool
	if restrict != nil {
		inR = restrict.restriction(lam, inG)
	}
	m := lp.NewModel()
	mm := &mipModel{
		Model:     m,
		xVar:      make([]int, len(ins.cands)),
		assignRow: make([]int, len(ins.perQuery)),
		complete:  true,
	}
	var memCols []int32
	var memVals []float64
	for ci := range ins.cands {
		mm.xVar[ci] = -1
		if inR != nil && !inR[ci] {
			mm.complete = false
			continue
		}
		mm.xVar[ci] = m.AddVar(ins.cands[ci].writeCost, fmt.Sprintf("x_%s", ins.cands[ci].index.Key()), 1, true)
		memCols = append(memCols, int32(mm.xVar[ci]))
		memVals = append(memVals, float64(ins.cands[ci].size))
	}
	// Shared backing storage: the per-(query, candidate) VUB rows dominate
	// the model (one row per pair), so their column slices come from one
	// preallocated arena and all rows share a single {1, -1} value pair and
	// a single all-ones vector.
	pairs := 0
	maxRow := 1
	for _, pq := range ins.perQuery {
		pairs += len(pq)
		maxRow = max(maxRow, len(pq))
	}
	pairCols := make([]int32, 0, 2*pairs)
	pairVals := []float64{1, -1}
	ones := make([]float64, maxRow)
	for i := range ones {
		ones[i] = 1
	}
	// incZ collects each query's incumbent z column: its cheapest
	// greedy-selected pair.
	var incZ []int
	for j, pq := range ins.perQuery {
		row := make([]int32, 0, len(pq))
		z0, c0 := -1, ins.base[j]
		for _, a := range pq {
			if mm.xVar[a.other] < 0 {
				continue
			}
			if restrict != nil && !inG[a.other] && restrict.prunes(j, ins.freq[j]*a.cost) {
				mm.complete = false
				continue
			}
			z := m.AddVar(ins.freq[j]*(a.cost-ins.base[j]), fmt.Sprintf("z_%d_%d", j, a.other), 1, false)
			row = append(row, int32(z))
			// z_jk <= x_k (constraint (7)).
			base := len(pairCols)
			pairCols = append(pairCols, int32(z), int32(mm.xVar[a.other]))
			m.AddConstraintCols(pairCols[base:], pairVals, lp.LE, 0)
			if inG[a.other] && a.cost < c0 {
				z0, c0 = z, a.cost
			}
		}
		// sum_k z_jk <= 1 (constraint (6) with z_j0 substituted out).
		mm.assignRow[j] = m.NumConstraints()
		m.AddConstraintCols(row, ones[:len(row)], lp.LE, 1)
		if z0 >= 0 {
			incZ = append(incZ, z0)
		}
	}
	// Memory budget (constraint (8)) — the last row, so its root dual is the
	// budget's shadow price.
	mm.budgetRow = m.NumConstraints()
	m.AddConstraintCols(memCols, memVals, lp.LE, float64(budget))
	m.SetObjConstant(ins.baseTotal())

	mm.incumbent = make([]float64, m.NumVars())
	for _, ci := range greedy {
		mm.incumbent[mm.xVar[ci]] = 1
		mm.crash = append(mm.crash, mm.xVar[ci])
	}
	for _, z := range incZ {
		mm.incumbent[z] = 1
	}
	return mm
}

// selected returns the candidates a MIP point selects, ascending.
func (mm *mipModel) selected(x []float64) []int {
	var chosen []int
	for ci, v := range mm.xVar {
		if v >= 0 && x[v] > 0.5 {
			chosen = append(chosen, ci)
		}
	}
	return chosen
}

// evalCost returns F for the chosen candidate indices. Write costs are
// added in ascending candidate index, so the float sum does not depend on
// the order of chosen.
func (ins *instance) evalCost(chosen []int) float64 {
	selected := make([]bool, len(ins.cands))
	for _, ci := range chosen {
		selected[ci] = true
	}
	var total float64
	for j, pq := range ins.perQuery {
		best := ins.base[j]
		for _, a := range pq {
			if selected[a.other] && a.cost < best {
				best = a.cost
			}
		}
		total += ins.freq[j] * best
	}
	for ci, ok := range selected {
		if ok {
			total += ins.cands[ci].writeCost
		}
	}
	return total
}
