// Package indexsel is a workload-driven multi-attribute index advisor: a
// full reproduction of Schlosser, Kossmann, Boissier, "Efficient Scalable
// Multi-Attribute Index Selection Using Recursive Strategies" (ICDE 2019).
//
// The primary strategy, StrategyExtend (the paper's Algorithm 1 / H6),
// constructs an index selection recursively: each step adds a new
// single-attribute index or appends one attribute to an existing index,
// maximizing additional performance per additional memory in the context of
// everything selected so far. The package also ships the paper's baselines:
// the CoPhy integer-linear-programming approach (with a from-scratch simplex
// and branch-and-bound solver) and the rule- and benefit-based heuristics
// H1-H5, plus candidate-set heuristics, the reproducible Appendix-B cost
// model, synthetic workload generators (Appendix C, TPC-C, an enterprise
// trace), and an in-memory column-store engine for measured (end-to-end)
// costs.
//
// Quick start:
//
//	w, _ := indexsel.GenerateWorkload(indexsel.DefaultGenConfig())
//	adv := indexsel.NewAdvisor(w, indexsel.WithBudgetShare(0.2))
//	rec, _ := adv.Select(indexsel.StrategyExtend)
//	for _, ix := range rec.Indexes {
//	    fmt.Println(ix, rec.Improvement())
//	}
package indexsel

import (
	"io"
	"log/slog"
	"net"
	"net/http"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/sqllog"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Re-exported workload model types. See package workload for full docs.
type (
	// Workload bundles tables, attributes and query templates.
	Workload = workload.Workload
	// Table is a relation with rows and attributes.
	Table = workload.Table
	// Attribute is one column with distinct count and value size.
	Attribute = workload.Attribute
	// Query is a conjunctive attribute-access template with a frequency.
	Query = workload.Query
	// Index is an ordered multi-attribute index key.
	Index = workload.Index
	// Selection is a set of indexes (the paper's I*).
	Selection = workload.Selection
	// GenConfig parameterizes the Appendix-C synthetic workload generator.
	GenConfig = workload.GenConfig
	// ERPConfig parameterizes the enterprise-trace generator (Section IV-A).
	ERPConfig = workload.ERPConfig
)

// NewWorkload validates and constructs a workload; see workload.New.
func NewWorkload(tables []Table, attrs []Attribute, queries []Query) (*Workload, error) {
	return workload.New(tables, attrs, queries)
}

// NewIndex builds an index over attributes of one table.
func NewIndex(w *Workload, attrs ...int) (Index, error) {
	return workload.NewIndex(w, attrs...)
}

// DefaultGenConfig returns the paper's Appendix-C generator parameters.
func DefaultGenConfig() GenConfig { return workload.DefaultGenConfig() }

// GenerateWorkload builds the reproducible synthetic workload of Appendix C.
func GenerateWorkload(cfg GenConfig) (*Workload, error) { return workload.Generate(cfg) }

// DefaultERPConfig returns the published enterprise-trace statistics
// (500 tables, 4204 attributes, 2271 templates, ~50M executions).
func DefaultERPConfig() ERPConfig { return workload.DefaultERPConfig() }

// GenerateERPWorkload builds the synthetic enterprise workload standing in
// for the paper's proprietary Fortune-Global-500 trace.
func GenerateERPWorkload(cfg ERPConfig) (*Workload, error) { return workload.GenerateERP(cfg) }

// TPCCWorkload builds the aggregated TPC-C template workload of Figure 1.
func TPCCWorkload(warehouses int64) (*Workload, error) { return workload.TPCC(warehouses) }

// ResampleQueries keeps w's schema but redraws its query templates — a model
// of workload drift for reconfiguration-aware re-tuning (the paper's future
// work). See workload.ResampleQueries.
func ResampleQueries(w *Workload, cfg GenConfig, seed int64) (*Workload, error) {
	return workload.ResampleQueries(w, cfg, seed)
}

// PerturbFrequencies returns a structural copy of w with every template
// frequency log-normally perturbed (freq' = round(freq * exp(skew*N(0,1))),
// clamped to >= 1). Structure — tables, attributes, templates — is
// untouched, so the result clusters with w in fleet mode; skew 0 is an
// exact copy.
func PerturbFrequencies(w *Workload, seed int64, skew float64) (*Workload, error) {
	return workload.PerturbFrequencies(w, seed, skew)
}

// TenantFamily builds n frequency-perturbed tenants from one base workload —
// a structural cluster for fleet mode. Member i uses seed+i, so each is
// reproducible in isolation.
func TenantFamily(base *Workload, n int, seed int64, skew float64) ([]*Workload, error) {
	return workload.TenantFamily(base, n, seed, skew)
}

// PerturbTemplates returns a copy of w with drop random templates removed and
// add synthesized templates appended (schema untouched) — a near-clone rather
// than a structural twin, the tenant shape fleet near-match sharing
// (FleetOptions.NearMatch) is built for.
func PerturbTemplates(w *Workload, seed int64, drop, add int) (*Workload, error) {
	return workload.PerturbTemplates(w, seed, drop, add)
}

// ReadWorkload parses the JSON interchange format.
func ReadWorkload(r io.Reader) (*Workload, error) { return workload.Read(r) }

// ParseSQL builds a workload from a schema script plus SQL query log
// (CREATE TABLE with ROWS/CARDINALITY annotations; SELECT/INSERT/UPDATE/
// DELETE with conjunctive predicates; identical templates aggregate, and
// "-- freq: N" comments weight the next statement). See package sqllog.
func ParseSQL(r io.Reader) (*Workload, error) { return sqllog.Parse(r) }

// WriteWorkload serializes a workload as JSON.
func WriteWorkload(w io.Writer, wl *Workload) error { return workload.Write(w, wl) }

// CandidateHeuristic selects how candidate sets are derived for the
// candidate-based strategies (Example 1 (iv)).
type CandidateHeuristic = candidates.Heuristic

// Candidate-set heuristics: by co-occurrence frequency (H1-M), combined
// selectivity (H2-M), or their ratio (H3-M).
const (
	CandidatesByFrequency   = candidates.H1M
	CandidatesBySelectivity = candidates.H2M
	CandidatesByRatio       = candidates.H3M
)

// AllCandidates enumerates the exhaustive candidate set I_max: one
// representative ordering (most-shared attribute leading) of every attribute
// combination up to maxWidth attributes (at most 4) co-occurring in at least
// one query. This matches the paper's exhaustive-set sizes (e.g. 2937 for
// the N=100, Q=100 end-to-end workload); AllPermutationCandidates expands
// every ordering instead.
func AllCandidates(w *Workload, maxWidth int) ([]Index, error) {
	set, err := candidates.Enumerate(w, maxWidth)
	if err != nil {
		return nil, err
	}
	return set.Representatives(w), nil
}

// AllPermutationCandidates expands every ordering of every co-occurring
// attribute combination — the unrestricted index universe. Its size grows
// with the factorial of the width bound; prefer AllCandidates.
func AllPermutationCandidates(w *Workload, maxWidth int) ([]Index, error) {
	combos, err := candidates.Combos(w, maxWidth)
	if err != nil {
		return nil, err
	}
	return candidates.Permutations(combos), nil
}

// CandidateSet applies a candidate heuristic to derive about total
// candidates (split evenly over widths 1..maxWidth).
func CandidateSet(w *Workload, h CandidateHeuristic, total, maxWidth int) ([]Index, error) {
	set, err := candidates.Enumerate(w, maxWidth)
	if err != nil {
		return nil, err
	}
	return set.Select(h, total)
}

// CostMode selects how many indexes one query may combine in the analytic
// cost model.
type CostMode = costmodel.Mode

const (
	// SingleIndexCosts is the paper's Example 1 (i) setting (one index per
	// query), used for all CoPhy comparisons.
	SingleIndexCosts = costmodel.SingleIndex
	// MultiIndexCosts follows Appendix B steps 3-4 (Remark 2).
	MultiIndexCosts = costmodel.MultiIndex
)

// Engine re-exports: build real data and measure execution costs instead of
// using the analytic model (the paper's end-to-end methodology).
type (
	// DB is an in-memory column store materialized for a workload.
	DB = engine.DB
	// MeasuredSource serves costs by executing queries on a DB.
	MeasuredSource = engine.MeasuredSource
)

// NewDB materializes deterministic column data for w.
func NewDB(w *Workload, seed int64) (*DB, error) { return engine.New(w, seed) }

// NewMeasuredSource instantiates executable queries over db.
func NewMeasuredSource(db *DB, seed int64) *MeasuredSource {
	return engine.NewMeasuredSource(db, seed)
}

// WhatIfSource is the cost-oracle interface all strategies consume.
type WhatIfSource = whatif.Source

// ConstructionStep re-exports one step of Algorithm 1's trace.
type ConstructionStep = core.Step

// ExtendOptions re-exports Algorithm 1's knobs (budget, max steps and the
// Remark 1 extensions); pass via
// WithExtendOptions. The advisor's budget options override the Budget
// field.
type ExtendOptions = core.Options

// FrontierPoint is a (memory, cost) combination of the Extend trace.
type FrontierPoint = core.FrontierPoint

// Explain re-exports: decision-provenance records returned on a
// Recommendation under WithExplain and journaled on the run's spans. See
// package internal/explain for field-level docs.
type (
	// RunProvenance bundles one run's provenance; exactly one of Steps
	// (Extend), Heuristic (H1-H5) or Solve (CoPhy) is populated.
	RunProvenance = explain.RunProvenance
	// StepProvenance explains one Extend construction step: exact gain
	// decomposition, runner-up margin, per-query deltas, prune ledger.
	StepProvenance = explain.StepProvenance
	// QueryDelta is one query's frequency-weighted cost movement in a step.
	QueryDelta = explain.QueryDelta
	// RunnerUp is the best rejected candidate of a step.
	RunnerUp = explain.RunnerUp
	// PrunedBucket is one bucket's entry in a lazy step's prune ledger.
	PrunedBucket = explain.PrunedBucket
	// SelectionProvenance explains a heuristic run's ranked pool.
	SelectionProvenance = explain.SelectionProvenance
	// RankedCandidate is one pool entry of a heuristic run with its fate.
	RankedCandidate = explain.RankedCandidate
	// SolveProvenance is the CoPhy optimality certificate.
	SolveProvenance = explain.SolveProvenance
	// Attribution maps recommended indexes to the queries they help; its
	// per-index net benefits partition BaseCost-Cost exactly.
	Attribution = explain.Attribution
	// IndexAttribution is one index's attribution row.
	IndexAttribution = explain.IndexAttribution
	// QueryAttribution is one query's share of an index's benefit.
	QueryAttribution = explain.QueryAttribution
	// ExplainedRun is a run reconstructed from a trace journal (the explain
	// and runcompare tools' input), with frontier and diff helpers.
	ExplainedRun = explain.Run
	// ProgressState is the live-run snapshot served by /progress.
	ProgressState = telemetry.ProgressState
)

// ReadRunJournal reconstructs the most recent selection run from a JSONL
// trace journal (a -trace-out file): the construction trace, final
// objective, and — when the run had WithExplain on — provenance and
// attribution. See explain.ReadJournal.
func ReadRunJournal(r io.Reader) (*ExplainedRun, error) { return explain.ReadJournal(r) }

// WriteRunReport renders a journal-reconstructed run as the human-readable
// explain report (`indexadvisor explain` output): headline outcome, each
// step's decision rationale, strategy certificates, and the attribution
// table.
func WriteRunReport(w io.Writer, run *ExplainedRun) error { return explain.WriteReport(w, run) }

// StopReason says how a selection run ended; see Recommendation.StopReason
// and SelectContext for the anytime contract.
type StopReason = fault.StopReason

// Stop reasons a Recommendation can carry. StopDeadline and StopCancelled
// mark interrupted (Partial) runs; the others are natural terminations.
const (
	// StopConverged: the strategy finished on its own terms.
	StopConverged = fault.StopConverged
	// StopMaxSteps: Extend hit ExtendOptions.MaxSteps.
	StopMaxSteps = fault.StopMaxSteps
	// StopBudget: viable candidates remained but none fit the memory budget.
	StopBudget = fault.StopBudget
	// StopDeadline: the context's deadline expired mid-run.
	StopDeadline = fault.StopDeadline
	// StopCancelled: the context was cancelled mid-run.
	StopCancelled = fault.StopCancelled
)

// WorkerPanicError is a panic recovered inside a selection strategy (for
// example a crashing cost source) and returned as an error, with the original
// panic value and goroutine stack preserved. One bad candidate evaluation
// fails the Select call instead of the process; concurrent workers drain
// cleanly and the first panic wins.
type WorkerPanicError = fault.WorkerPanicError

// WhatIfStats reports what-if optimizer call accounting.
type WhatIfStats = whatif.Stats

// Telemetry re-exports: metrics registry, span tracer and structured-logging
// hook of package internal/telemetry. Attach a bundle to an advisor with
// WithTelemetry; serve the process-wide registry with ServeMetrics.
type (
	// Telemetry bundles the tracer, metrics registry and logger handed to an
	// advisor. Zero value / nil fields fall back to the process-wide defaults
	// (default registry, discard logger, no tracing).
	Telemetry = telemetry.Telemetry
	// Tracer records selection-lifecycle spans into a ring buffer and an
	// optional JSONL journal writer.
	Tracer = telemetry.Tracer
	// Span is one traced operation; nil spans are safe no-ops.
	Span = telemetry.Span
	// MetricsRegistry holds named counters, gauges and histograms and writes
	// Prometheus text exposition; see DefaultRegistry.
	MetricsRegistry = telemetry.Registry
	// TraceRecord is one completed span as stored in the ring and journal.
	TraceRecord = telemetry.Record
	// RotatingTraceWriter is a size-capped JSONL journal sink that rotates
	// between whole record lines, so even a journal cut short by
	// cancellation holds only complete JSON lines; see NewRotatingTraceWriter.
	RotatingTraceWriter = telemetry.RotatingWriter
)

// NewTracer builds a span tracer keeping the last ringCap completed spans in
// memory and, when w is non-nil, appending each as a JSON line to w.
func NewTracer(ringCap int, w io.Writer) *Tracer { return telemetry.NewTracer(ringCap, w) }

// NewRotatingTraceWriter opens (truncating) a rotating journal at path for
// use as a NewTracer sink: the live file rotates to path.1 ... path.<keep>
// once a record would push it past maxBytes (0 disables rotation). Rotation
// only ever happens between records — each journal file always holds whole
// JSON lines.
func NewRotatingTraceWriter(path string, maxBytes int64, keep int) (*RotatingTraceWriter, error) {
	return telemetry.NewRotatingWriter(path, maxBytes, keep)
}

// DefaultRegistry returns the process-wide metrics registry every package in
// the advisor stack reports into. It is mirrored under the expvar key
// "indexsel" and served by ServeMetrics.
func DefaultRegistry() *MetricsRegistry { return telemetry.Default() }

// ServeMetrics starts an HTTP server on addr exposing Prometheus text
// exposition at /metrics plus expvar (/debug/vars) and pprof (/debug/pprof/)
// from the default registry. It returns the server (for Shutdown/Close) and
// the bound address, useful with ":0".
func ServeMetrics(addr string) (*http.Server, net.Addr, error) {
	return telemetry.Serve(addr, telemetry.Default())
}

// SetLogger installs l as the advisor stack's structured logger; nil restores
// the default discard logger. Packages log selection, solve and index-build
// events at Debug/Info level; when no logger is set the call sites pay only a
// disabled-level check.
func SetLogger(l *slog.Logger) { telemetry.SetLogger(l) }
