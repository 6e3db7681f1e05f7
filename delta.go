package indexsel

import (
	"context"
	"time"

	"repro/internal/drift"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Online-tuning re-exports: the windowed observation model, drift scoring,
// guardrailed delta planning (this file's PlanDelta) and the tuning daemon.
// See internal/drift and internal/service for field-level docs.
type (
	// Observation is one aggregated query-template observation streamed to
	// the tuning daemon (POST /observe wire format).
	Observation = drift.Observation
	// ObservationWindow is the bounded, decay-weighted workload accumulator.
	ObservationWindow = drift.Window
	// WindowConfig sizes an ObservationWindow (half-life, template cap).
	WindowConfig = drift.WindowConfig
	// WorkloadProfile is the per-template cost-share summary drift scoring
	// compares.
	WorkloadProfile = drift.Profile
	// DriftScore quantifies drift between two profiles (fingerprint
	// distance + cost-mass shift).
	DriftScore = drift.Score
	// DeltaOptions parameterizes PlanDelta (guardrail epsilon, heavy-K,
	// reconfiguration bias). A zero Budget uses the advisor's budget.
	DeltaOptions = drift.PlanOptions
	// DeltaPlan is a guardrailed creates/drops plan against a deployed
	// selection, with per-heavy-query evidence.
	DeltaPlan = drift.Plan
	// DeltaGuardrailReport is the per-heavy-query never-regress evidence.
	DeltaGuardrailReport = drift.GuardrailReport
	// HeavyQuery is one guardrail-protected query's before/after cost.
	HeavyQuery = drift.HeavyQuery

	// DaemonConfig configures the online tuning daemon.
	DaemonConfig = service.Config
	// TuningDaemon is the long-running observe/drift/retune service.
	TuningDaemon = service.Daemon
	// TuningStatus is the daemon's /status payload: the daemon section of
	// the /progress snapshot.
	TuningStatus = telemetry.DaemonState
	// JournalRecord is one entry of the daemon's crash-safe rollback
	// journal.
	JournalRecord = service.Record
	// RecoveryReport summarizes a journal recovery (serve -resume).
	RecoveryReport = service.RecoveryReport
)

// NewObservationWindow builds a bounded decay-weighted window over the
// schema's tables and attributes.
func NewObservationWindow(schema *Workload, cfg WindowConfig) *ObservationWindow {
	return drift.NewWindow(schema, cfg)
}

// NewWorkloadProfile summarizes a workload for drift scoring; cost prices
// one execution of a query (nil weights by frequency alone).
func NewWorkloadProfile(w *Workload, cost func(Query) float64) *WorkloadProfile {
	return drift.NewProfile(w, cost)
}

// CompareProfiles scores the drift from a tuned baseline to the current
// window profile.
func CompareProfiles(baseline, current *WorkloadProfile) DriftScore {
	return drift.Compare(baseline, current)
}

// NewTuningDaemon builds (but does not start) the online tuning daemon; see
// service.Config. Callers must Resume() before Start().
func NewTuningDaemon(cfg DaemonConfig) (*TuningDaemon, error) { return service.New(cfg) }

// PlanDelta selects an index configuration for the advisor's workload (the
// current observation-window snapshot) and diffs it against the deployed
// selection, returning a creates/drops delta plan with a never-regress
// guardrail report: the plan is Accepted only if no heavy query (top-K by
// frequency·base-cost) regresses beyond (1+Epsilon) of its deployed cost.
//
// A zero o.Budget uses the advisor's budget; the advisor's approximation
// setting applies unless overridden in o. Context carries the
// anytime contract of SelectContext: a deadline yields a partial but valid,
// guardrail-checked plan, never an error.
func (ad *Advisor) PlanDelta(ctx context.Context, deployed Selection, o DeltaOptions) (*DeltaPlan, error) {
	if o.Budget <= 0 {
		o.Budget = ad.Budget()
	}
	if o.Approximate == 0 {
		o.Approximate = ad.approximate
	}
	start := time.Now()
	plan, err := drift.PlanDelta(ctx, ad.w, ad.opt, deployed, o)
	mSelectDur.Observe(time.Since(start).Seconds())
	if err != nil {
		mSelectErrs.Inc()
		return nil, err
	}
	mSelects.Inc()
	if plan.Partial {
		mSelectPartial.Inc()
	}
	return plan, nil
}

// ApplyDeltaPlan reconciles a deployed selection with an accepted plan,
// returning the new deployed set (pure function; persistence is the
// daemon's job). It refuses rejected plans.
func ApplyDeltaPlan(deployed Selection, plan *DeltaPlan) (Selection, bool) {
	if plan == nil || !plan.Accepted {
		return deployed, false
	}
	next := deployed.Clone()
	for _, k := range plan.Drops {
		next.Remove(k)
	}
	for _, k := range plan.Creates {
		next.Add(k)
	}
	return next, true
}

// ParseIndexKey resolves a canonical index key (comma-joined attribute IDs,
// as stored in the daemon's journal) against a workload's schema.
func ParseIndexKey(w *Workload, key string) (Index, error) {
	return workload.ParseIndexKey(w, key)
}
