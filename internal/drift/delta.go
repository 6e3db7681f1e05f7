package drift

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// PlanOptions configures guardrailed delta planning.
type PlanOptions struct {
	// Budget is the memory budget in bytes for the target selection.
	Budget int64
	// Epsilon is the guardrail slack: a delta is rejected if any heavy
	// query's what-if cost under the target selection exceeds its cost
	// under the deployed selection by more than a (1+Epsilon) factor.
	// <= 0 means 0.05.
	Epsilon float64
	// HeavyK is how many queries (top by frequency·base-cost) the guardrail
	// protects; <= 0 means 10. Ties break by query ID.
	HeavyK int
	// ReconfigPerByte, when > 0, charges the selection a reconfiguration
	// cost of ReconfigPerByte per byte of index created relative to the
	// deployed set (core.Options.Reconfig), biasing the search toward
	// low-churn deltas. It must be finite and non-negative; 0 means free.
	ReconfigPerByte float64
	// MaxSteps bounds construction steps; 0 means unlimited.
	MaxSteps int
}

// HeavyQuery is one guardrail-protected query with its costs under the
// deployed and planned selections (per execution, maintenance included for
// writes).
type HeavyQuery struct {
	Query    int     `json:"query"`
	Freq     int64   `json:"freq"`
	Deployed float64 `json:"deployed_cost"`
	Planned  float64 `json:"planned_cost"`
	// Ratio is Planned/Deployed (1 means unchanged; > 1+epsilon violates).
	Ratio float64 `json:"ratio"`
	// Violation marks the queries that breached the guardrail.
	Violation bool `json:"violation,omitempty"`
	// Sig is the template signature, for journaled evidence.
	Sig string `json:"sig"`
}

// GuardrailReport is the evidence the guardrail produced for a plan —
// journaled verbatim whether the delta was accepted or rejected.
type GuardrailReport struct {
	Epsilon    float64      `json:"epsilon"`
	HeavyK     int          `json:"heavy_k"`
	Queries    []HeavyQuery `json:"queries"`
	Violations []int        `json:"violations,omitempty"` // query IDs, sorted
}

// Plan is a guardrailed delta between a deployed selection and a freshly
// selected target for the current window.
type Plan struct {
	// Deployed and Target are the before/after selections.
	Deployed workload.Selection
	Target   workload.Selection
	// Creates and Drops are the delta, sorted by index key.
	Creates []workload.Index
	Drops   []workload.Index
	// Accepted is false when the guardrail rejected the delta; the caller
	// must not apply Creates/Drops in that case.
	Accepted bool
	// Guardrail is the per-heavy-query evidence.
	Guardrail *GuardrailReport
	// Cost and BaseCost are the window workload's cost under Target and
	// under no indexes; Memory is Target's footprint.
	Cost     float64
	BaseCost float64
	Memory   int64
	// Partial and StopReason report anytime termination of the underlying
	// selection (deadline, cancellation) — a partial result is still a
	// valid, guardrail-checked plan.
	Partial    bool
	StopReason fault.StopReason
	// Elapsed is the wall time the selection took.
	Elapsed time.Duration
}

// Empty reports whether the plan changes nothing.
func (p *Plan) Empty() bool { return len(p.Creates) == 0 && len(p.Drops) == 0 }

// PlanDelta selects an index configuration for window workload w under the
// given budget and diffs it against the deployed selection, then checks the
// never-regress guardrail: the per-execution what-if cost of each heavy
// query (top HeavyK by frequency·base-cost) under the target must not
// exceed its cost under the deployed selection by more than (1+Epsilon).
//
// Selection honors ctx with anytime semantics (a deadline yields a partial
// but valid plan); a selection failure — including worker panics surfaced
// as *fault.WorkerPanicError — returns a nil plan and the error, leaving
// the caller's deployed configuration untouched.
func PlanDelta(ctx context.Context, w *workload.Workload, opt *whatif.Optimizer, deployed workload.Selection, o PlanOptions) (*Plan, error) {
	if w == nil {
		return nil, fmt.Errorf("drift: nil window workload")
	}
	if o.Budget <= 0 {
		return nil, fmt.Errorf("drift: budget must be positive, got %d", o.Budget)
	}
	if p := o.ReconfigPerByte; !(p >= 0) || math.IsInf(p, 1) {
		return nil, fmt.Errorf("drift: ReconfigPerByte must be finite and non-negative, got %v", p)
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 0.05
	}
	if o.HeavyK <= 0 {
		o.HeavyK = 10
	}
	start := time.Now()
	copts := core.Options{
		Budget:   o.Budget,
		MaxSteps: o.MaxSteps,
		Reconfig: core.Reconfig{Deployed: deployed, CreatePerByte: o.ReconfigPerByte},
		Context:  ctx,
	}
	res, err := core.Select(w, opt, copts)
	if err != nil {
		return nil, err
	}
	target := res.Selection
	plan := &Plan{
		Deployed:   deployed.Clone(),
		Target:     target.Clone(),
		Cost:       res.Cost,
		BaseCost:   res.InitialCost,
		Memory:     res.Memory,
		Partial:    res.Partial,
		StopReason: res.StopReason,
	}
	for _, k := range target.Sorted() {
		if !deployed.Has(k) {
			plan.Creates = append(plan.Creates, k)
		}
	}
	for _, k := range deployed.Sorted() {
		if !target.Has(k) {
			plan.Drops = append(plan.Drops, k)
		}
	}
	plan.Guardrail = guardrail(w, opt, deployed, target, o)
	plan.Accepted = len(plan.Guardrail.Violations) == 0
	plan.Elapsed = time.Since(start)
	return plan, nil
}

// queryCost prices one execution of q under sel, mirroring the per-query
// term of heuristics.TotalCost: the best applicable index (or the base
// cost), plus maintenance against every selected index for writes. sel must
// be in canonical key order (Selection.Sorted): the maintenance sum follows
// it, and a map's random order would make the sum irreproducible.
func queryCost(opt *whatif.Optimizer, q workload.Query, sel []workload.Index) float64 {
	best := opt.BaseCost(q)
	for _, k := range sel {
		if !workload.Applicable(q, k) {
			continue
		}
		if c := opt.CostWithIndex(q, k); c < best {
			best = c
		}
	}
	if q.IsWrite() {
		for _, k := range sel {
			best += opt.MaintenanceCost(q, k)
		}
	}
	return best
}

// guardrail evaluates the never-regress check over the heavy queries.
func guardrail(w *workload.Workload, opt *whatif.Optimizer, deployed, target workload.Selection, o PlanOptions) *GuardrailReport {
	type weighted struct {
		q    workload.Query
		mass float64
	}
	heavy := make([]weighted, 0, len(w.Queries))
	for _, q := range w.Queries {
		base := opt.BaseCost(q)
		if !(base > 0) || math.IsInf(base, 1) {
			base = 1
		}
		heavy = append(heavy, weighted{q, float64(q.Freq) * base})
	}
	sort.Slice(heavy, func(i, j int) bool {
		if heavy[i].mass != heavy[j].mass {
			return heavy[i].mass > heavy[j].mass
		}
		return heavy[i].q.ID < heavy[j].q.ID
	})
	if len(heavy) > o.HeavyK {
		heavy = heavy[:o.HeavyK]
	}
	rep := &GuardrailReport{Epsilon: o.Epsilon, HeavyK: o.HeavyK}
	depSorted, targetSorted := deployed.Sorted(), target.Sorted()
	for _, h := range heavy {
		dep := queryCost(opt, h.q, depSorted)
		plc := queryCost(opt, h.q, targetSorted)
		hq := HeavyQuery{
			Query:    h.q.ID,
			Freq:     h.q.Freq,
			Deployed: dep,
			Planned:  plc,
			Sig:      compress.TemplateSignature(h.q),
		}
		if dep > 0 {
			hq.Ratio = plc / dep
		} else if plc > 0 {
			hq.Ratio = math.Inf(1)
		} else {
			hq.Ratio = 1
		}
		// Absolute slack keeps float noise on near-zero costs from
		// tripping the relative check.
		if plc > dep*(1+o.Epsilon)+1e-9*math.Max(1, dep) {
			hq.Violation = true
			rep.Violations = append(rep.Violations, h.q.ID)
		}
		rep.Queries = append(rep.Queries, hq)
	}
	sort.Ints(rep.Violations)
	return rep
}
