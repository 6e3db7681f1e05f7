package indexsel

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/heuristics"
	"repro/internal/telemetry"
	"repro/internal/whatif"
)

// Advisor-level telemetry (default registry; one update per Select).
var (
	mSelects = telemetry.Default().Counter("indexsel_select_runs_total",
		"Completed Advisor.Select runs (all strategies).")
	mSelectDur = telemetry.Default().Histogram("indexsel_select_duration_seconds",
		"Wall time per Advisor.Select run.", nil)
	mSelectErrs = telemetry.Default().Counter("indexsel_select_errors_total",
		"Advisor.Select runs that returned an error.")
	mSelectPartial = telemetry.Default().Counter("indexsel_select_partial_total",
		"Advisor.Select runs interrupted by deadline or cancellation that returned a partial (best-so-far) recommendation.")
)

// Strategy identifies an index-selection algorithm.
type Strategy int

const (
	// StrategyExtend is the paper's contribution: Algorithm 1 / H6, the
	// recursive constructive selection.
	StrategyExtend Strategy = iota + 1
	// StrategyCoPhy solves the CoPhy integer linear program (5)-(8) over a
	// candidate set (optimal for that set, up to the configured gap).
	StrategyCoPhy
	// StrategyH1 picks candidates by attribute-occurrence frequency.
	StrategyH1
	// StrategyH2 picks candidates by selectivity.
	StrategyH2
	// StrategyH3 picks candidates by selectivity-to-frequency ratio.
	StrategyH3
	// StrategyH4 picks candidates by absolute benefit (MS SQL Server style).
	StrategyH4
	// StrategyH5 picks candidates by benefit per size (DB2 Advisor style).
	StrategyH5
)

func (s Strategy) String() string {
	switch s {
	case StrategyExtend:
		return "Extend(H6)"
	case StrategyCoPhy:
		return "CoPhy"
	case StrategyH1:
		return "H1"
	case StrategyH2:
		return "H2"
	case StrategyH3:
		return "H3"
	case StrategyH4:
		return "H4"
	case StrategyH5:
		return "H5"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Advisor computes index selections for one workload under one cost source.
type Advisor struct {
	w   *Workload
	opt *whatif.Optimizer

	budgetBytes int64
	budgetShare float64
	mode        CostMode
	measured    *MeasuredSource

	candidates  []Index
	gap         float64
	timeLimit   time.Duration
	skyline     bool
	dominance   bool
	extendOpts  core.Options
	parallelism int
	explain     bool
	tel         *telemetry.Telemetry

	model *costmodel.Model // nil when measured
}

// Option configures an Advisor.
type Option func(*Advisor)

// WithBudgetBytes sets the memory budget A in bytes.
func WithBudgetBytes(a int64) Option { return func(ad *Advisor) { ad.budgetBytes = a } }

// WithBudgetShare sets the budget as the share w of the total memory of all
// single-attribute indexes, A(w) of eq. (10). Default 0.2.
func WithBudgetShare(share float64) Option { return func(ad *Advisor) { ad.budgetShare = share } }

// WithCostMode selects the analytic cost model's index-combination mode.
func WithCostMode(m CostMode) Option { return func(ad *Advisor) { ad.mode = m } }

// WithMeasuredSource serves costs from engine execution instead of the
// analytic model (the end-to-end methodology of Section IV-B).
func WithMeasuredSource(ms *MeasuredSource) Option { return func(ad *Advisor) { ad.measured = ms } }

// WithCandidates fixes the candidate set used by the candidate-based
// strategies (CoPhy, H1-H5). Without it, all candidates up to width 4 are
// enumerated on demand.
func WithCandidates(cands []Index) Option { return func(ad *Advisor) { ad.candidates = cands } }

// WithGap sets the CoPhy solver's relative optimality gap (default 0).
func WithGap(gap float64) Option { return func(ad *Advisor) { ad.gap = gap } }

// WithTimeLimit bounds CoPhy's solving time; on expiry the best incumbent is
// returned and Recommendation.DNF is set.
func WithTimeLimit(d time.Duration) Option { return func(ad *Advisor) { ad.timeLimit = d } }

// WithSkyline applies the per-query dominance pre-filter for StrategyH4.
func WithSkyline() Option { return func(ad *Advisor) { ad.skyline = true } }

// WithDominanceReduction lets the CoPhy solver drop globally dominated
// candidates before solving — the optimum is unchanged, the search smaller.
func WithDominanceReduction() Option { return func(ad *Advisor) { ad.dominance = true } }

// WithExtendOptions overrides Algorithm 1's knobs (Remark 1 extensions).
// Budget is still controlled by the advisor's budget options.
func WithExtendOptions(opts core.Options) Option {
	return func(ad *Advisor) { ad.extendOpts = opts }
}

// WithExplain turns on decision provenance: every Select additionally
// returns, on the Recommendation, WHY the strategy chose what it chose
// (Provenance) and which queries each recommended index helps (Attribution),
// and journals both on the run's spans. Provenance changes no evaluation,
// tie-break, or what-if call — the selection and its construction trace are
// bit-identical with it on or off — and costs nothing when off.
func WithExplain() Option { return func(ad *Advisor) { ad.explain = true } }

// WithTelemetry attaches the observability sinks of package
// internal/telemetry to the advisor: every Select records a root span (with
// one child span per Algorithm-1 step or CoPhy solve phase) to t.Tracer,
// and the advisor's what-if call/hit counters and cache occupancy are bound
// as scrape-time metrics on t.Registry (the process-wide default registry
// when nil — the one -metrics-addr serves). Successive advisors rebinding
// the same registry replace the binding; the exposition follows the most
// recently constructed advisor. A nil t (or zero-value Telemetry) costs
// nothing on the selection hot paths.
func WithTelemetry(t *Telemetry) Option {
	return func(ad *Advisor) { ad.tel = t }
}

// WithParallelism sets the number of worker goroutines the CoPhy MIP's
// branch and bound uses to solve node relaxations (0, the
// default, uses GOMAXPROCS; 1 forces serial solves). Results are identical
// at every setting — each node LP is solved whole by one goroutine and the
// results are reduced deterministically. Algorithm 1 (StrategyExtend) and
// H1-H5 are serial and ignore it.
func WithParallelism(n int) Option {
	return func(ad *Advisor) { ad.parallelism = n }
}

// NewAdvisor builds an advisor for the workload.
func NewAdvisor(w *Workload, opts ...Option) *Advisor {
	ad := &Advisor{w: w, budgetShare: 0.2, mode: SingleIndexCosts}
	for _, o := range opts {
		o(ad)
	}
	if ad.measured != nil {
		ad.opt = whatif.New(ad.measured)
	} else {
		ad.model = costmodel.New(w, ad.mode)
		ad.opt = whatif.New(ad.model)
	}
	if ad.tel != nil {
		ad.bindMetrics(ad.tel.Reg())
	}
	return ad
}

// bindMetrics exposes this advisor's what-if accounting as scrape-time
// reader metrics: nothing is incremented on the hot path, the registry reads
// the optimizer's existing atomics when scraped.
func (ad *Advisor) bindMetrics(reg *telemetry.Registry) {
	opt := ad.opt
	reg.SetFunc("indexsel_whatif_calls_total",
		"Distinct what-if cost evaluations (the paper's optimizer-call count).",
		telemetry.KindCounter, func() float64 { return float64(opt.Stats().Calls) })
	reg.SetFunc("indexsel_whatif_cache_hits_total",
		"What-if requests served from the optimizer's caches.",
		telemetry.KindCounter, func() float64 { return float64(opt.Stats().CacheHits) })
	reg.SetFunc("indexsel_whatif_distinct_indexes",
		"Distinct indexes sized by the advisor so far.",
		telemetry.KindGauge, func() float64 { return float64(opt.Stats().DistinctIndexes) })
	reg.SetFunc("indexsel_whatif_index_cache_entries",
		"Total (query, index) cost-cache entries across shards.",
		telemetry.KindGauge, func() float64 { return float64(opt.Stats().IndexCacheEntries) })
	reg.SetFunc("indexsel_whatif_interned_indexes",
		"Index identities interned by the optimizer (flat-table ID space size).",
		telemetry.KindGauge, func() float64 { return float64(opt.Stats().InternedIndexes) })
}

// Budget returns the advisor's effective memory budget in bytes.
func (ad *Advisor) Budget() int64 {
	if ad.budgetBytes > 0 {
		return ad.budgetBytes
	}
	if ad.measured != nil {
		return ad.measured.Budget(ad.budgetShare)
	}
	return ad.model.Budget(ad.budgetShare)
}

// WhatIfStats returns the accumulated what-if optimizer call counters.
func (ad *Advisor) WhatIfStats() WhatIfStats { return ad.opt.Stats() }

// Recommendation is a strategy's outcome.
type Recommendation struct {
	// Strategy that produced the recommendation.
	Strategy Strategy
	// Indexes is the selected configuration, deterministically ordered.
	Indexes []Index
	// Cost is the workload cost F(I*) under the advisor's cost source;
	// BaseCost is F(∅).
	Cost, BaseCost float64
	// Memory is P(I*); Budget the budget it was computed for.
	Memory, Budget int64
	// Elapsed is the selection's solve time (excluding what-if calls made
	// through the shared cache).
	Elapsed time.Duration
	// Steps is Algorithm 1's construction trace (StrategyExtend only). Each
	// step carries its candidate-evaluation accounting (Candidates,
	// Evaluated, CacheServed).
	Steps []ConstructionStep
	// Evaluated and CacheServed total, over the whole run (including the
	// final enumeration round that found no viable step), how many candidate
	// gains were (re)computed versus decided by the lazy loop from a
	// still-exact cached evaluation (StrategyExtend only).
	Evaluated, CacheServed int
	// Pruned totals the candidates the lazy (CELF) loop skipped because their
	// gain upper bound could not beat the step winner (StrategyExtend only;
	// zero on the multi-index path).
	Pruned int
	// DNF reports a CoPhy solve aborted by the time limit.
	DNF bool
	// Gap is CoPhy's final relative optimality gap.
	Gap float64
	// StopReason says how the strategy's run ended (converged, max-steps,
	// budget-exhausted, deadline, cancelled).
	StopReason StopReason
	// Partial reports an interrupted run (context cancelled or deadline
	// expired) whose recommendation is the best feasible result found before
	// the cut: for Extend the bit-identical prefix of the unbounded run's
	// construction trace, for CoPhy the best incumbent with Gap as its
	// certificate, for H1-H5 the greedy fill over the scored prefix.
	Partial bool
	// Provenance explains the run's decisions (WithExplain only): per-step
	// gain decomposition and prune ledger for Extend, the ranked pool for
	// H1-H5, the optimality certificate for CoPhy.
	Provenance *RunProvenance
	// Attribution maps each recommended index to the queries whose cost it
	// changes (WithExplain only; omitted under MultiIndexCosts, whose
	// context-dependent costs do not decompose per index). Its per-index net
	// benefits sum exactly to BaseCost-Cost.
	Attribution *Attribution

	selection Selection
}

// Selection returns the recommendation as a Selection set.
func (r *Recommendation) Selection() Selection { return r.selection.Clone() }

// Improvement returns the relative cost reduction versus no indexes,
// in [0, 1].
func (r *Recommendation) Improvement() float64 {
	if r.BaseCost <= 0 {
		return 0
	}
	return (r.BaseCost - r.Cost) / r.BaseCost
}

// Frontier returns the (memory, cost) trace points (StrategyExtend only).
func (r *Recommendation) Frontier() []FrontierPoint {
	pts := make([]FrontierPoint, 0, len(r.Steps)+1)
	pts = append(pts, FrontierPoint{Memory: 0, Cost: r.BaseCost})
	for _, s := range r.Steps {
		pts = append(pts, FrontierPoint{Memory: s.MemAfter, Cost: s.CostAfter})
	}
	return pts
}

// Select runs the strategy and returns its recommendation. With telemetry
// attached (WithTelemetry), the run records an advisor.select root span with
// strategy/budget/result attributes, child spans per Algorithm-1 step or
// CoPhy phase, and updates the selection counters and duration histogram in
// the metrics registry.
func (ad *Advisor) Select(s Strategy) (*Recommendation, error) {
	return ad.SelectContext(context.Background(), s)
}

// SelectContext is Select under a context: cancellation or a context deadline
// interrupts the run at the next strategy checkpoint and returns the best
// feasible recommendation found so far with Partial and StopReason set — an
// interrupted run is not an error. Extend's partial result is the
// bit-identical prefix of the unbounded construction trace; CoPhy degrades to its best incumbent (greedy at worst) with
// the root-relaxation gap as certificate; H1-H5 fill greedily over the
// candidates scored before the cut. A panic inside a strategy (e.g. a
// crashing cost source) is recovered and returned as a *WorkerPanicError.
func (ad *Advisor) SelectContext(ctx context.Context, s Strategy) (*Recommendation, error) {
	budget := ad.Budget()
	if budget <= 0 {
		return nil, fmt.Errorf("indexsel: budget must be positive (got %d)", budget)
	}
	start := time.Now()
	root := ad.tel.Trace().Start("advisor.select")
	root.SetStr("strategy", s.String())
	root.SetInt("budget_bytes", budget)
	var deadline time.Time
	if ctx != nil {
		deadline, _ = ctx.Deadline()
	}
	prog := telemetry.BeginProgress(telemetry.RunSection, nil, func(p *telemetry.ProgressState) {
		p.Active, p.Strategy, p.StartedAt, p.BudgetBytes, p.Deadline = true, s.String(), start, budget, deadline
	})

	rec, err := ad.runStrategy(ctx, s, budget, root, prog)
	elapsed := time.Since(start)
	mSelects.Inc()
	mSelectDur.Observe(elapsed.Seconds())
	if err != nil {
		mSelectErrs.Inc()
		finishRun(prog, "error", false)
		root.SetStr("error", err.Error())
		root.End()
		return nil, err
	}
	rec.Elapsed = elapsed
	if rec.Partial {
		mSelectPartial.Inc()
	}
	finishRun(prog, rec.StopReason.String(), rec.Partial)
	if ad.explain && !(ad.model != nil && ad.mode == MultiIndexCosts) {
		rec.Attribution = explain.Attribute(ad.w, ad.opt, rec.selection)
		root.SetAny("attribution", *rec.Attribution)
	}

	ws := ad.opt.Stats()
	root.SetFloat("cost", rec.Cost)
	root.SetFloat("base_cost", rec.BaseCost)
	root.SetInt("memory_bytes", rec.Memory)
	root.SetInt("indexes", int64(len(rec.Indexes)))
	root.SetInt("steps", int64(len(rec.Steps)))
	root.SetInt("whatif_calls", ws.Calls)
	root.SetInt("whatif_cache_hits", ws.CacheHits)
	root.SetStr("stop_reason", rec.StopReason.String())
	root.End()
	if lg := ad.tel.Log(); lg.Enabled(context.Background(), slog.LevelInfo) {
		lg.Info("selection complete",
			"strategy", s.String(), "budget_bytes", budget,
			"indexes", len(rec.Indexes), "cost", rec.Cost,
			"improvement", rec.Improvement(), "memory_bytes", rec.Memory,
			"elapsed", elapsed, "whatif_calls", ws.Calls,
			"whatif_cache_hits", ws.CacheHits)
	}
	return rec, nil
}

// finishRun marks the run section finished with its stop reason.
func finishRun(prog *telemetry.Progress, stopReason string, partial bool) {
	prog.Update(func(p *telemetry.ProgressState) {
		p.Active, p.Done, p.StopReason, p.Partial = false, true, stopReason, partial
	})
}

// runStrategy dispatches to the strategy implementation, threading the
// context and the root telemetry span into it. A panic escaping a strategy
// (they each carry their own recovery; this is the advisor-side backstop) is
// converted to a *WorkerPanicError.
func (ad *Advisor) runStrategy(ctx context.Context, s Strategy, budget int64, root *telemetry.Span, prog *telemetry.Progress) (rec *Recommendation, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fault.AsPanicError("indexsel.runStrategy", r)
		}
	}()
	rec = &Recommendation{Strategy: s, Budget: budget, StopReason: fault.StopConverged}

	switch s {
	case StrategyExtend:
		opts := ad.extendOpts
		opts.Budget = budget
		opts.Context = ctx
		if ad.model != nil && ad.mode == MultiIndexCosts {
			// The multi-index cost model is context-dependent; Algorithm 1
			// must evaluate whole selections (Remark 2) to stay consistent.
			opts.MultiIndex = true
		}
		opts.Span = root
		opts.Explain = opts.Explain || ad.explain
		opts.Progress = prog
		res, err := core.Select(ad.w, ad.opt, opts)
		if err != nil {
			return nil, err
		}
		rec.Indexes = res.Selection.Sorted()
		rec.selection = res.Selection
		rec.Cost = res.Cost
		rec.BaseCost = res.InitialCost
		rec.Memory = res.Memory
		rec.Steps = res.Steps
		rec.Evaluated = res.Evaluated
		rec.CacheServed = res.CacheServed
		rec.Pruned = res.Pruned
		rec.StopReason = res.StopReason
		rec.Partial = res.Partial
		if res.Provenance != nil {
			rec.Provenance = &RunProvenance{Strategy: s.String(), Steps: res.Provenance}
		}

	case StrategyCoPhy:
		cands, err := ad.candidateSet()
		if err != nil {
			return nil, err
		}
		res, err := cophy.Solve(ad.w, ad.opt, cands, cophy.Options{
			Budget:             budget,
			Gap:                ad.gap,
			TimeLimit:          ad.timeLimit,
			Context:            ctx,
			DominanceReduction: ad.dominance,
			Parallelism:        ad.parallelism,
			Span:               root,
			Explain:            ad.explain,
		})
		if err != nil {
			return nil, err
		}
		rec.Indexes = res.Selection.Sorted()
		rec.selection = res.Selection
		rec.Cost = res.Cost
		rec.BaseCost = ad.baseCost()
		rec.Memory = res.Memory
		rec.DNF = res.Stats.DNF
		rec.Gap = res.Stats.Gap
		if res.Provenance != nil {
			rec.Provenance = &RunProvenance{Strategy: s.String(), Solve: res.Provenance}
		}
		if res.Stats.DNF {
			// A DNF solve returned its incumbent: partial by the anytime
			// contract. The reason distinguishes caller cancellation from a
			// deadline (the advisor's TimeLimit or the context's).
			rec.Partial = true
			if ctx != nil && ctx.Err() == context.Canceled {
				rec.StopReason = fault.StopCancelled
			} else {
				rec.StopReason = fault.StopDeadline
			}
		}

	case StrategyH1, StrategyH2, StrategyH3, StrategyH4, StrategyH5:
		cands, err := ad.candidateSet()
		if err != nil {
			return nil, err
		}
		rule := map[Strategy]heuristics.Rule{
			StrategyH1: heuristics.H1, StrategyH2: heuristics.H2,
			StrategyH3: heuristics.H3, StrategyH4: heuristics.H4,
			StrategyH5: heuristics.H5,
		}[s]
		res, err := heuristics.Select(ad.w, ad.opt, cands, rule, heuristics.Options{
			Budget:  budget,
			Skyline: ad.skyline && s == StrategyH4,
			Span:    root,
			Context: ctx,
			Explain: ad.explain,
		})
		if err != nil {
			return nil, err
		}
		rec.Indexes = res.Selection.Sorted()
		rec.selection = res.Selection
		rec.Cost = res.Cost
		rec.BaseCost = ad.baseCost()
		rec.Memory = res.Memory
		rec.StopReason = res.StopReason
		rec.Partial = res.Partial
		if res.Provenance != nil {
			rec.Provenance = &RunProvenance{Strategy: s.String(), Heuristic: res.Provenance}
		}

	default:
		return nil, fmt.Errorf("indexsel: unknown strategy %d", int(s))
	}
	return rec, nil
}

func (ad *Advisor) candidateSet() ([]Index, error) {
	if ad.candidates != nil {
		return ad.candidates, nil
	}
	return AllCandidates(ad.w, 4)
}

func (ad *Advisor) baseCost() float64 {
	var total float64
	for _, q := range ad.w.Queries {
		total += float64(q.Freq) * ad.opt.BaseCost(q)
	}
	return total
}

// Evaluate returns the workload cost of an arbitrary selection under the
// advisor's cost source (single-index setting) and its memory footprint.
func (ad *Advisor) Evaluate(sel Selection) (cost float64, memory int64) {
	cost = heuristics.TotalCost(ad.w, ad.opt, sel)
	for _, k := range sel {
		memory += ad.opt.IndexSize(k)
	}
	return cost, memory
}
