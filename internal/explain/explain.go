// Package explain is the decision-provenance layer of the advisor stack:
// structured records of WHY each strategy chose what it chose, cheap enough
// to thread through the hot paths (nothing here is computed unless a caller
// opts in) and stable enough to journal, render, and diff across runs.
//
// Three record families cover the three strategy families:
//
//   - StepProvenance: one record per Extend construction step — the winning
//     candidate's exact gain decomposition (per-query benefit, maintenance
//     delta, memory delta), the runner-up margin, and the lazy (CELF) loop's
//     bucket-level prune ledger (which bounds excluded which buckets, at
//     which epoch, saving how many evaluations).
//   - SelectionProvenance: the heuristic (H1–H5) scoring prefix — the ranked
//     pool with per-candidate scores and the reason each was taken or
//     rejected.
//   - SolveProvenance: the CoPhy solve certificate — incumbent, proven
//     bound, MIP gap, node count, and the root LP's memory shadow price.
//
// The records are plain JSON-marshalable values. They ride inside the run
// journal (telemetry span attributes, see the journal parser in this
// package) and on the public Recommendation, so the same data backs the
// `indexadvisor explain` report, the `runcompare` diff tool, and CI gates.
//
// Unbounded lists are capped (MaxByQuery, MaxPruneLedger, MaxRanking,
// MaxAttributedQueries) but never silently: every capped list carries the
// untruncated totals alongside, so sums remain checkable.
package explain

// Caps on the variable-length provenance lists. Caps keep journal lines and
// JSON reports bounded on large workloads; the totals recorded next to each
// list keep the accounting exact despite truncation.
const (
	// MaxByQuery bounds StepProvenance.ByQuery (largest |delta| first).
	MaxByQuery = 32
	// MaxPruneLedger bounds StepProvenance.PruneLedger (highest bound first).
	MaxPruneLedger = 64
	// MaxRanking bounds SelectionProvenance.Ranking (rank order).
	MaxRanking = 64
	// MaxAttributedQueries bounds IndexAttribution.TopQueries per index
	// (largest benefit first).
	MaxAttributedQueries = 32
)

// QueryDelta is one query's frequency-weighted cost movement across a
// construction step. Delta = Freq*(After-Before): negative means the step
// improved the query.
type QueryDelta struct {
	Query  int     `json:"query"`
	Freq   int64   `json:"freq"`
	Before float64 `json:"before"` // per-execution cost before the step
	After  float64 `json:"after"`  // per-execution cost after the step
	Delta  float64 `json:"delta"`  // Freq*(After-Before)
}

// RunnerUp is the best rejected candidate of a construction step. Unlike
// Step.RunnerUp it is recorded whenever provenance is on, not only under
// TrackSecondBest. In lazy exact mode without TrackSecondBest the runner-up
// is the best among the candidates the bound loop actually evaluated — the
// true second-best may have been soundly pruned; with TrackSecondBest set
// the loop evaluates down to the second-best ratio and the record is exact.
type RunnerUp struct {
	Kind  string  `json:"kind"`
	Index string  `json:"index"`
	Ratio float64 `json:"ratio"`
}

// PrunedBucket is one lead-attribute bucket's entry in a step's prune
// ledger: candidates the lazy loop skipped because their sound upper bound
// could not beat the step's winner.
type PrunedBucket struct {
	// Lead is the bucket's leading attribute ID.
	Lead int `json:"lead"`
	// Bound is the highest remaining upper bound among the bucket's pruned
	// candidates (for an unopened bucket: its aggregate sentinel bound) —
	// the value the cut threshold beat.
	Bound float64 `json:"bound"`
	// Epoch is the bucket's extension epoch at the decision, tying the
	// ledger entry to the staleness state the bound was derived from.
	Epoch uint64 `json:"epoch"`
	// Entries is the bucket's total candidate count; Skipped of them were
	// pruned (neither evaluated nor served from cache) this step.
	Entries int `json:"entries"`
	Skipped int `json:"skipped"`
	// Opened is false when the whole bucket was pruned by its aggregate
	// sentinel bound without materializing a single candidate.
	Opened bool `json:"opened,omitempty"`
}

// StepProvenance explains one applied Extend construction step. When
// provenance is enabled the core selector records exactly one per Step
// (including drop steps), aligned by index.
type StepProvenance struct {
	// Step is the 0-based position in the construction trace.
	Step     int    `json:"step"`
	Kind     string `json:"kind"`
	Index    string `json:"index"`
	Replaced string `json:"replaced,omitempty"`

	// Gain is the step's total cost reduction (CostBefore-CostAfter). It
	// decomposes as Gain = ReadGain - MaintenanceDelta - ReconfigDelta.
	Gain float64 `json:"gain"`
	// ReadGain is the frequency-weighted read-cost reduction summed over
	// every affected query.
	ReadGain float64 `json:"read_gain"`
	// MaintenanceDelta is the change in the selection's write-maintenance
	// burden (positive: the step added maintenance cost).
	MaintenanceDelta float64 `json:"maintenance_delta"`
	// ReconfigDelta is the change in the reconfiguration term R(I); zero
	// unless a reconfiguration price (core.Options.Reconfig) is set.
	ReconfigDelta float64 `json:"reconfig_delta,omitempty"`
	// MemDeltaBytes is the step's memory growth (negative for drops).
	MemDeltaBytes int64 `json:"mem_delta_bytes"`
	// Ratio is the decided gain/memory ratio (zero for drop steps).
	Ratio float64 `json:"ratio,omitempty"`

	// RunnerUp is the best rejected candidate and Margin the winner's ratio
	// lead over it. Absent when the step had no viable alternative (and for
	// drop steps).
	RunnerUp *RunnerUp `json:"runner_up,omitempty"`
	Margin   float64   `json:"margin,omitempty"`

	// ByQuery lists the affected queries' cost movements, largest |Delta|
	// first, capped at MaxByQuery; QueriesChanged is the uncapped count and
	// ByQueryTruncated flags the cap. Sum of all (uncapped) deltas equals
	// -ReadGain; ReadGain keeps that total exact under truncation.
	ByQuery          []QueryDelta `json:"by_query,omitempty"`
	QueriesChanged   int          `json:"queries_changed"`
	ByQueryTruncated bool         `json:"by_query_truncated,omitempty"`

	// PruneLedger lists the buckets the lazy loop bound-skipped deciding
	// this step, highest bound first, capped at MaxPruneLedger.
	// LedgerBuckets/LedgerSkipped are the uncapped totals; LedgerSkipped
	// equals the step's Pruned count. Empty on the uncached sweep.
	PruneLedger     []PrunedBucket `json:"prune_ledger,omitempty"`
	LedgerBuckets   int            `json:"ledger_buckets,omitempty"`
	LedgerSkipped   int            `json:"ledger_skipped,omitempty"`
	LedgerTruncated bool           `json:"ledger_truncated,omitempty"`

	// Candidates = Evaluated + CacheServed + Pruned mirrors the Step's
	// accounting triple so a provenance record is self-describing.
	Candidates  int `json:"candidates"`
	Evaluated   int `json:"evaluated"`
	CacheServed int `json:"cache_served"`
	Pruned      int `json:"pruned"`
}

// RankedCandidate is one pool entry of a heuristic run, in rank order.
type RankedCandidate struct {
	Rank      int     `json:"rank"`
	Index     string  `json:"index"`
	Score     float64 `json:"score"`
	SizeBytes int64   `json:"size_bytes"`
	// Taken reports whether the greedy sweep selected the candidate;
	// Reason says why not ("duplicate", "non-positive-score",
	// "over-budget") or is empty when taken.
	Taken  bool   `json:"taken,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// SelectionProvenance explains a heuristic (H1–H5) run: the scored pool
// prefix and each candidate's fate in the budget sweep.
type SelectionProvenance struct {
	Rule string `json:"rule"`
	// PoolSize is the candidate count entering the ranking (after the
	// optional skyline filter); Scored of them were actually scored — a
	// proper prefix when the run was interrupted.
	PoolSize int `json:"pool_size"`
	Scored   int `json:"scored"`
	// SkylineBefore/SkylineAfter bracket the skyline filter when it ran.
	SkylineBefore int `json:"skyline_before,omitempty"`
	SkylineAfter  int `json:"skyline_after,omitempty"`
	// Ranking is the scored pool in rank order, capped at MaxRanking (every
	// taken candidate is always included, beyond the cap if needed).
	Ranking          []RankedCandidate `json:"ranking,omitempty"`
	RankingTruncated bool              `json:"ranking_truncated,omitempty"`
}

// SolveProvenance is the CoPhy path's optimality certificate.
type SolveProvenance struct {
	// Sifted is true when the MIP ran over the Lagrangian ascent's
	// restriction of a model too large to materialize whole.
	Sifted      bool `json:"sifted,omitempty"`
	Candidates  int  `json:"candidates"`
	Vars        int  `json:"vars"`
	Constraints int  `json:"constraints"`
	// Nodes counts MIP branch-and-bound nodes; zero when a bound certified
	// the greedy incumbent without the MIP.
	Nodes int `json:"nodes"`
	// Incumbent is the final selection's cost, Bound the proven lower bound
	// on any selection's cost, and Gap their normalized distance — the gap
	// certificate ((Incumbent-Bound)/|Incumbent|).
	Incumbent float64 `json:"incumbent"`
	Bound     float64 `json:"bound"`
	Gap       float64 `json:"gap"`
	DNF       bool    `json:"dnf,omitempty"`
	// RootObjective is the root LP relaxation's objective (total workload
	// cost scale) and BudgetDual the root's shadow price on the memory
	// budget row — the marginal cost reduction per byte of extra budget.
	// Zero when the solve ended before the MIP's root LP.
	RootObjective float64 `json:"root_objective,omitempty"`
	BudgetDual    float64 `json:"budget_dual,omitempty"`
}

// RunProvenance bundles a whole run's provenance: exactly one of the three
// strategy-family fields is populated.
type RunProvenance struct {
	Strategy  string               `json:"strategy"`
	Steps     []StepProvenance     `json:"steps,omitempty"`
	Heuristic *SelectionProvenance `json:"heuristic,omitempty"`
	Solve     *SolveProvenance     `json:"solve,omitempty"`
}
