// Package fleet implements the multi-tenant batch scheduler of fleet mode: a
// bounded worker pool running one selection per tenant with weighted-fair
// dispatch, per-tenant deadlines, and per-tenant fault isolation. It is the
// service-shaped layer the ROADMAP's north star calls for — AIM-style fleet
// tuning where one process multiplexes index selection across many databases
// under strict resource budgets.
//
// The scheduler is deliberately generic: a tenant's work is an opaque Runner
// callback, so the package depends only on the fault primitives and can be
// unit-tested with stub runners. The root package's TuneFleet wires Runners
// that execute Advisor.SelectContext with cross-tenant sharing (clustered
// what-if caches, shared candidate enumeration) and a global table budget
// (TableBudget in this package).
//
// Scheduling policy: tenants are dispatched in ascending EstWork/Weight order
// (weighted shortest-job-first, ties broken by input position), so small
// tenants are not starved behind a huge one and a higher Weight moves a
// tenant earlier. With a bounded pool a pathological tenant occupies exactly
// one worker; its deadline — not the scheduler — bounds the damage. Dispatch
// order is deterministic for a given input; results are returned in input
// order with the completion sequence recorded per tenant.
package fleet

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// Tenant is one unit of fleet work: an identifier plus scheduling hints.
// The actual workload lives in the Runner's closure (the root package maps
// tenant IDs to workloads); the scheduler needs only enough to order and
// bound the work.
type Tenant struct {
	// ID names the tenant in results and progress reporting. IDs should be
	// unique; the scheduler does not enforce it.
	ID string
	// Weight scales the tenant's fairness share; <= 0 means 1. A tenant with
	// twice the weight is dispatched as if its work were half the size.
	Weight float64
	// EstWork estimates the tenant's work in arbitrary units (query count,
	// workload bytes); <= 0 means 1. Only ratios matter.
	EstWork float64
	// Deadline bounds this tenant's run; 0 falls back to
	// Options.TenantDeadline, and 0 there means unbounded.
	Deadline time.Duration
	// Payload carries caller state (e.g. the tenant's prepared advisor) into
	// the Runner; the scheduler never touches it.
	Payload any
}

// Runner executes one tenant's work under ctx. The anytime contract of the
// selection strategies applies: a runner interrupted by ctx returns its
// best-so-far value (a Partial result), not an error. Errors are reserved for
// genuine failures; panics are recovered by the scheduler and converted to
// *fault.WorkerPanicError.
type Runner func(ctx context.Context, t Tenant) (any, error)

// Options configures an Advisor.
type Options struct {
	// Workers bounds the pool; <= 0 means 1. Deterministic end-to-end
	// behavior for tests requires Workers = 1 (dispatch order is always
	// deterministic, completion order only then).
	Workers int
	// TenantDeadline is the default per-tenant run bound (0 = none),
	// overridden per tenant by Tenant.Deadline.
	TenantDeadline time.Duration
	// OnStart, if set, is called as each tenant begins running (from the
	// worker goroutine; must be safe for concurrent use).
	OnStart func(t Tenant)
	// OnDone, if set, is called as each tenant finishes, with its result.
	OnDone func(r Result)
}

// Result is one tenant's outcome. Value holds whatever the Runner returned
// (possibly a partial result under deadline); Err is non-nil only for genuine
// failures — a recovered panic surfaces here as *fault.WorkerPanicError, and
// one tenant's Err never affects its neighbors.
type Result struct {
	Tenant Tenant
	// Seq is the completion sequence (0-based): the order in which tenants
	// finished, as opposed to the input order the result slice follows.
	Seq int
	// Value is the Runner's return value; nil when Err is set by a panic.
	Value any
	// Err is the Runner's error, or the recovered panic.
	Err error
	// Elapsed is the tenant's wall-clock run time.
	Elapsed time.Duration
}

// Advisor is the fleet scheduler. The zero value is unusable; construct with
// NewAdvisor.
type Advisor struct {
	opts Options
}

// NewAdvisor builds a scheduler with the given options.
func NewAdvisor(opts Options) *Advisor {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	return &Advisor{opts: opts}
}

// Run executes all tenants over the worker pool and returns their results in
// input order. Fleet-level cancellation (ctx) does not abort queued tenants:
// each still passes through its Runner, which observes the cancelled context
// and returns its best-so-far value — so a cancelled fleet yields a complete,
// partial-per-tenant result set rather than holes.
func (a *Advisor) Run(ctx context.Context, tenants []Tenant, run Runner) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(tenants))
	order := dispatchOrder(tenants)

	var next atomic.Int64 // index into order
	var seq atomic.Int64  // completion sequence
	var wg sync.WaitGroup
	workers := a.opts.Workers
	if workers > len(tenants) {
		workers = len(tenants)
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				pos := order[i]
				results[pos] = a.runOne(ctx, tenants[pos], run)
				results[pos].Seq = int(seq.Add(1)) - 1
				if a.opts.OnDone != nil {
					a.opts.OnDone(results[pos])
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// runOne executes a single tenant with deadline and panic isolation.
func (a *Advisor) runOne(ctx context.Context, t Tenant, run Runner) (res Result) {
	res.Tenant = t
	d := t.Deadline
	if d == 0 {
		d = a.opts.TenantDeadline
	}
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if a.opts.OnStart != nil {
		a.opts.OnStart(t)
	}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			res.Value = nil
			res.Err = fault.AsPanicError("fleet.tenant "+t.ID, r)
		}
	}()
	res.Value, res.Err = run(ctx, t)
	return res
}

// dispatchOrder returns tenant positions in weighted shortest-job-first
// order: ascending EstWork/Weight, input position breaking ties.
func dispatchOrder(tenants []Tenant) []int {
	type keyed struct {
		pos int
		key float64
	}
	ks := make([]keyed, len(tenants))
	for i, t := range tenants {
		w, est := t.Weight, t.EstWork
		if w <= 0 {
			w = 1
		}
		if est <= 0 {
			est = 1
		}
		ks[i] = keyed{pos: i, key: est / w}
	}
	// Stable sort by key; stability provides the input-position tie-break.
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	order := make([]int, len(ks))
	for i, k := range ks {
		order[i] = k.pos
	}
	return order
}
