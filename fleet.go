package indexsel

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Fleet mode: one process tuning many tenant databases (the ROADMAP's
// AIM-shaped north star). TuneFleet schedules one SelectContext per tenant
// over internal/fleet's bounded worker pool and adds the cross-tenant levers
// this layer is uniquely positioned to pull. Every fleet runs one two-pass
// pipeline, whether its tenants hold their workloads in memory or load them
// lazily.
//
// Pass 1 (cluster). Each workload is loaded once and fed to the online
// near-match clusterer (compress.NearMatcher, which retains only per-cluster
// skeletons — schema copies, union templates, signature indexes); its query
// count becomes the scheduling estimate. Tenants with an identical schema
// whose template sets overlap by at least the threshold form one cluster
// keyed on the union template superset: NearMatchOverlap under NearMatch,
// 1.0 (identical template-signature sets) otherwise, and an unreachable 2.0
// when sharing is off, so every tenant is its own singleton cluster.
//
// Sharing. Per-execution what-if costs never read frequencies (the cost
// model and the measured engine price one execution; frequencies enter only
// as linear weights of the objective), so one what-if optimizer per cluster
// and cost source, built over the superset, is an exact read-through
// (template, index) cost cache. Each member probes it through a subset view
// (whatif.Optimizer.View) that re-keys its queries to superset template IDs,
// so every tenant's selection is bit-identical to what it computes alone.
// Templates are matched by (signature, occurrence), so a cluster's first
// member — every singleton, and every exact twin listing its templates in
// the same order — gets the identity map, while a near-clone's templates
// take other superset IDs. A source that answers by query ID can therefore
// only be shared if it can be rebound to the superset: the analytic model
// (rebuilt over it) and *MeasuredSource (ForWorkload, whose identity-mapped
// members measure exactly their standalone point queries). Every other
// custom Source runs privately, one cluster per tenant, probed directly.
//
// Pass 2 (run). Each worker loads the tenant it dispatches inside the
// scheduler's runner and drops it after the result — load-on-dispatch,
// release-after-result — so at most Workers Load tenants' workloads are
// resident at any instant, and a failing or panicking load is that tenant's
// error under the scheduler's recover and deadline.
//
// Memory. All cluster caches are registered with one fleet.TableBudget:
// while a tenant runs, its cluster's tables are pinned working memory; once
// idle they join an LRU pool bounded by TableBudgetBytes, and evicted
// clusters rebuild on demand (or restore from SpillDir), trading repeated
// what-if calls for bounded resident bytes.

// FleetTenant is one tenant database in a fleet run.
type FleetTenant struct {
	// ID names the tenant in results and logs; empty IDs are synthesized
	// from the position.
	ID string
	// Workload is the tenant's query workload, held by the caller for the
	// whole run. Exactly one of Workload and Load must be set.
	Workload *Workload
	// Load materializes the tenant's workload on demand, so a large manifest
	// needs only O(workers) workloads in memory. It is called twice — once
	// to cluster, once at dispatch — and MUST return the same workload both
	// times, or the clustering's query mapping is invalid and the tenant's
	// run errors. Dispatch-time calls for different tenants run concurrently
	// on the fleet's workers. A first-call error or nil workload fails the
	// fleet; a dispatch-time error, nil workload or panic fails only this
	// tenant.
	Load func() (*Workload, error)
	// Weight scales the tenant's scheduling share (<= 0 means 1); heavier
	// tenants are dispatched earlier relative to their size.
	Weight float64
	// Deadline bounds this tenant's selection (0 = FleetOptions.TenantDeadline).
	Deadline time.Duration
	// BudgetBytes fixes the tenant's index memory budget A; 0 uses
	// BudgetShare.
	BudgetBytes int64
	// BudgetShare is the budget as a share of the tenant's total
	// single-attribute index memory (eq. (10)); 0 uses the advisor default.
	BudgetShare float64
	// Source optionally serves this tenant's costs (e.g. a measured engine
	// source). Cluster members naming the same *MeasuredSource share one
	// cache over its superset rebinding; nil-Source members share an
	// analytic model over the superset; any other Source runs privately.
	Source WhatIfSource
}

// FleetOptions configures TuneFleet.
type FleetOptions struct {
	// Strategy for every tenant's selection; default StrategyExtend.
	Strategy Strategy
	// Workers bounds the scheduler pool (default 1; deterministic completion
	// order requires 1).
	Workers int
	// TenantDeadline is the default per-tenant wall-clock bound (0 = none).
	TenantDeadline time.Duration
	// TableBudgetBytes bounds the retained (idle) what-if table bytes across
	// all cluster caches; 0 = unlimited (accounting only).
	TableBudgetBytes int64
	// CostMode selects the analytic model mode for nil-Source tenants.
	CostMode CostMode
	// Parallelism is each tenant's CoPhy branch-and-bound node pool size
	// (WithParallelism); 0 splits the cores among the tenant workers,
	// max(1, GOMAXPROCS/Workers). Only StrategyCoPhy runs in parallel inside
	// a tenant: a GOMAXPROCS node pool nested in each of 2 CoPhy tenant
	// workers on 2 cores was no faster than serial node solves, while one
	// tenant worker leaves the cores to the node pool (DESIGN.md §6, "Where
	// parallelism lives").
	Parallelism int
	// DisableSharing forces per-tenant caches even for structural twins
	// (the fleet benchmark's pooled-unshared arm; also a safety valve).
	DisableSharing bool
	// NearMatch widens sharing from exact template-set twins (overlap 1.0)
	// to near-clones: tenants with an identical schema whose template sets
	// overlap by at least NearMatchOverlap share one cache keyed on the
	// union template superset. See DESIGN.md §15.
	NearMatch bool
	// NearMatchOverlap is the minimum Jaccard template-set overlap for
	// near-match clustering (0 = compress.DefaultNearMatchOverlap).
	NearMatchOverlap float64
	// SpillDir, when non-empty, turns budget evictions into spills: evicted
	// cluster cost tables are serialized to compact binary files under this
	// directory and restored — bit-identically — when the cluster is next
	// pinned, instead of rebuilding from the what-if source. The directory
	// is created if missing; files are process-local and consumed on restore.
	SpillDir string
}

// FleetTenantResult is one tenant's outcome within a fleet run.
type FleetTenantResult struct {
	// ID echoes the tenant; Cluster is its index in FleetResult's cluster
	// numbering (with sharing disabled every tenant is its own singleton
	// cluster, numbered in input order).
	ID      string
	Cluster int
	// Rec is the tenant's recommendation (possibly Partial under its
	// deadline); nil when Err is set.
	Rec *Recommendation
	// Err is a genuine failure (e.g. a *WorkerPanicError from a crashing
	// cost source); it never affects other tenants.
	Err error
	// Seq is the completion sequence within the fleet; Elapsed the tenant's
	// wall-clock time including queueing-free run time only.
	Seq     int
	Elapsed time.Duration
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	// Tenants holds per-tenant results in input order.
	Tenants []FleetTenantResult
	// Clusters is the number of shared-cache clusters the fleet resolved to
	// (== len(Tenants) when sharing is disabled).
	Clusters int
	// SharedCalls/SharedHits aggregate what-if accounting across all cluster
	// caches; HitRate = hits/(hits+calls).
	SharedCalls, SharedHits int64
	// ResidentBytes/MaxResidentBytes/Evictions report the table budget's
	// accounting: retained bytes at completion, the post-eviction high-water
	// mark, and how many cluster caches were evicted.
	ResidentBytes, MaxResidentBytes, Evictions int64
	// Spills/Restores count cost tables serialized to disk on eviction and
	// restored from disk on re-pin (SpillDir mode only).
	Spills, Restores int64
	// WorkloadPeakResident/WorkloadPeakBytes report the high-water marks of
	// the tenant workloads (and their estimated bytes) the workers held at
	// once, between dispatch-time load and result. Each worker holds one, so
	// both are set for every run and the count never exceeds Workers. For
	// Load tenants that bounds the workloads resident in memory; Workload
	// tenants are held by the caller throughout, so for them it measures
	// only the running set.
	WorkloadPeakResident int
	WorkloadPeakBytes    int64
	// Elapsed is the whole fleet's wall-clock time.
	Elapsed time.Duration
}

// HitRate returns the fleet-wide shared what-if cache hit rate in [0, 1].
func (r *FleetResult) HitRate() float64 {
	if tot := r.SharedCalls + r.SharedHits; tot > 0 {
		return float64(r.SharedHits) / float64(tot)
	}
	return 0
}

// Failed returns the number of tenants whose run errored.
func (r *FleetResult) Failed() int {
	n := 0
	for _, t := range r.Tenants {
		if t.Err != nil {
			n++
		}
	}
	return n
}

// TuneFleet runs one selection per tenant over a bounded worker pool with
// cross-tenant what-if sharing and a global table memory budget, returning
// per-tenant results in input order. See the package comment above for the
// two-pass pipeline. Tenant failures (panics, crashing sources, failing or
// panicking dispatch-time loads) and deadline-bounded partial results are
// isolated per tenant; the fleet itself only errors on invalid input,
// including a failed clustering load. Fleet-level progress (tenants
// queued/running/done, shared hit rate, budget accounting) is published to
// the /progress endpoint for the duration of the run.
func TuneFleet(ctx context.Context, tenants []FleetTenant, opts FleetOptions) (*FleetResult, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("indexsel: fleet has no tenants")
	}
	loads := make([]func() (*Workload, error), len(tenants))
	for i, t := range tenants {
		switch {
		case (t.Workload == nil) == (t.Load == nil):
			return nil, fmt.Errorf("indexsel: fleet tenant %d (%q) must give exactly one of Workload and Load", i, t.ID)
		case t.Workload != nil:
			w := t.Workload
			loads[i] = func() (*Workload, error) { return w, nil }
		default:
			loads[i] = t.Load
		}
	}
	strategy := opts.Strategy
	if strategy == 0 {
		strategy = StrategyExtend
	}
	start := time.Now()

	plan, err := planFleet(tenants, loads, opts)
	if err != nil {
		return nil, err
	}

	budget := fleet.NewTableBudget(opts.TableBudgetBytes)
	if opts.SpillDir != "" {
		if err := os.MkdirAll(opts.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("indexsel: creating fleet spill dir: %w", err)
		}
		budget.SpillTo(opts.SpillDir)
	}

	// Pass 2: schedule. Each worker loads the tenant it dispatches and
	// drops it after the result, so at most Workers workloads are held.
	ftenants := make([]fleet.Tenant, len(tenants))
	for i, t := range tenants {
		id := t.ID
		if id == "" {
			id = fmt.Sprintf("tenant-%03d", i)
		}
		ftenants[i] = fleet.Tenant{
			ID:       id,
			Weight:   t.Weight,
			EstWork:  float64(len(plan.qmaps[i])),
			Deadline: t.Deadline,
			Payload:  i,
		}
	}
	var held residency

	prog := telemetry.BeginProgress(telemetry.FleetSection, nil, func(p *telemetry.ProgressState) {
		*p.Fleet = telemetry.FleetState{Active: true, StartedAt: start,
			Tenants: len(tenants), Clusters: len(plan.caches), Queued: len(tenants)}
	})
	// publish applies edit to the fleet section and refreshes its sharing,
	// memory and workload accounting, read before taking the cell's lock.
	publish := func(edit func(f *telemetry.FleetState)) {
		calls, hits := plan.stats()
		resident, _, evictions := budget.Stats()
		spills, restores, _ := budget.SpillStats()
		workloads, workloadBytes := held.now()
		prog.Update(func(p *telemetry.ProgressState) {
			f := p.Fleet
			edit(f)
			f.SharedCalls, f.SharedHits, f.ResidentBytes, f.Evictions = calls, hits, resident, evictions
			f.Spills, f.Restores, f.WorkloadsResident, f.WorkloadBytes = spills, restores, workloads, workloadBytes
		})
	}

	sched := fleet.NewAdvisor(fleet.Options{
		Workers:        opts.Workers,
		TenantDeadline: opts.TenantDeadline,
		OnStart: func(fleet.Tenant) {
			prog.Update(func(p *telemetry.ProgressState) { p.Fleet.Queued--; p.Fleet.Running++ })
		},
		OnDone: func(r fleet.Result) {
			publish(func(f *telemetry.FleetState) {
				f.Running--
				f.Completed++
				if r.Err != nil {
					f.Failed++
				}
			})
		},
	})

	results := sched.Run(ctx, ftenants, func(ctx context.Context, t fleet.Tenant) (any, error) {
		pos := t.Payload.(int)
		w, err := loads[pos]()
		if err != nil {
			return nil, fmt.Errorf("indexsel: fleet tenant %q load: %w", t.ID, err)
		}
		if w == nil {
			return nil, fmt.Errorf("indexsel: fleet tenant %q loaded a nil workload", t.ID)
		}
		bytes := w.FootprintBytes()
		held.add(1, bytes)
		defer held.add(-1, -bytes)
		ad, opt, err := plan.advisor(pos, t.ID, w)
		if err != nil {
			return nil, err
		}
		budget.Pin(opt)
		defer budget.Unpin(opt)
		return ad.SelectContext(ctx, strategy)
	})

	out := &FleetResult{
		Tenants:  make([]FleetTenantResult, len(tenants)),
		Clusters: len(plan.caches),
	}
	for i, r := range results {
		tr := FleetTenantResult{
			ID:      r.Tenant.ID,
			Cluster: plan.cluster[i],
			Err:     r.Err,
			Seq:     r.Seq,
			Elapsed: r.Elapsed,
		}
		if rec, ok := r.Value.(*Recommendation); ok {
			tr.Rec = rec
		}
		out.Tenants[i] = tr
	}
	out.SharedCalls, out.SharedHits = plan.stats()
	out.ResidentBytes, out.MaxResidentBytes, out.Evictions = budget.Stats()
	out.Spills, out.Restores, _ = budget.SpillStats()
	out.WorkloadPeakResident, out.WorkloadPeakBytes = held.peak()
	out.Elapsed = time.Since(start)
	publish(func(f *telemetry.FleetState) { f.Active, f.Done = false, true })
	return out, nil
}

var (
	mWorkloadsResident = telemetry.Default().Gauge("indexsel_fleet_workloads_resident",
		"Tenant workloads currently held in memory by running fleet workers.")
	mWorkloadBytes = telemetry.Default().Gauge("indexsel_fleet_workload_resident_bytes",
		"Estimated bytes of tenant workloads currently held by running fleet workers.")
)

// residency counts the tenant workloads the fleet's workers hold between
// dispatch-time load and result, now and at peak, and feeds the gauges.
type residency struct {
	mu                   sync.Mutex
	held, peakHeld       int
	heldBytes, peakBytes int64
}

// add changes the held count and bytes by n and bytes (negative to drop).
func (r *residency) add(n int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held += n
	r.heldBytes += bytes
	r.peakHeld = max(r.peakHeld, r.held)
	r.peakBytes = max(r.peakBytes, r.heldBytes)
	mWorkloadsResident.Set(float64(r.held))
	mWorkloadBytes.Set(float64(r.heldBytes))
}

func (r *residency) now() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held, r.heldBytes
}

func (r *residency) peak() (int, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peakHeld, r.peakBytes
}

// fleetPlan is what pass 1 leaves for pass 2: one cache per cluster, and
// each tenant's cluster and query map into that cluster's superset.
type fleetPlan struct {
	tenants     []FleetTenant
	mode        CostMode
	parallelism int

	// caches[c] is cluster c's what-if cache; supersets[c] its template
	// space, nil for a private custom-source cluster probed directly.
	caches    []*whatif.Optimizer
	supersets []*workload.Workload
	cluster   []int     // input position -> cluster
	qmaps     [][]int32 // input position -> local query ID -> superset ID
}

// planFleet is pass 1: load each workload once, cluster it, release it, then
// build one cache per (near-match cluster, cost source) group.
func planFleet(tenants []FleetTenant, loads []func() (*Workload, error), opts FleetOptions) (*fleetPlan, error) {
	threshold := 2.0
	if !opts.DisableSharing {
		threshold = 1.0
		if opts.NearMatch {
			threshold = opts.NearMatchOverlap
			if threshold == 0 {
				threshold = compress.DefaultNearMatchOverlap
			}
		}
	}
	matcher := compress.NewNearMatcher(threshold)
	for i, load := range loads {
		w, err := load()
		if err != nil {
			return nil, fmt.Errorf("indexsel: fleet tenant %d (%q) load: %w", i, tenants[i].ID, err)
		}
		if w == nil {
			return nil, fmt.Errorf("indexsel: fleet tenant %d (%q) loaded a nil workload", i, tenants[i].ID)
		}
		matcher.Add(i, w)
	}

	parallelism := opts.Parallelism
	if parallelism <= 0 {
		parallelism = max(1, runtime.GOMAXPROCS(0)/max(opts.Workers, 1))
	}
	p := &fleetPlan{
		tenants:     tenants,
		mode:        opts.CostMode,
		parallelism: parallelism,
		cluster:     make([]int, len(tenants)),
		qmaps:       make([][]int32, len(tenants)),
	}
	for _, nc := range matcher.Clusters() {
		var superset *workload.Workload
		for _, members := range sourceGroups(tenants, nc.Members) {
			var opt *whatif.Optimizer
			var sup *workload.Workload
			switch src := tenants[members[0].Pos].Source.(type) {
			case nil, *MeasuredSource:
				if superset == nil {
					var err error
					if superset, err = nc.SupersetWorkload(); err != nil {
						return nil, fmt.Errorf("indexsel: building fleet cluster superset: %w", err)
					}
				}
				sup = superset
				if ms, ok := src.(*MeasuredSource); ok {
					// Rebind the shared engine source to the superset template
					// space so its point queries line up with superset IDs; the
					// built-index cache stays shared with the original.
					opt = whatif.New(ms.ForWorkload(superset))
				} else {
					opt = whatif.New(costmodel.New(superset, p.mode))
				}
			default:
				opt = whatif.New(src)
			}
			for _, m := range members {
				p.cluster[m.Pos] = len(p.caches)
				p.qmaps[m.Pos] = m.QueryMap
			}
			p.caches = append(p.caches, opt)
			p.supersets = append(p.supersets, sup)
		}
	}
	return p, nil
}

// sourceGroups splits a near-match cluster's members by cost source: all
// nil-Source members form one group, members naming the same *MeasuredSource
// another, and every member with any other Source a group of its own.
func sourceGroups(tenants []FleetTenant, members []compress.NearMember) [][]compress.NearMember {
	var groups [][]compress.NearMember
	shared := make(map[WhatIfSource]int) // nil or *MeasuredSource -> group
	for _, m := range members {
		src := tenants[m.Pos].Source
		switch src.(type) {
		case nil, *MeasuredSource:
			if gi, ok := shared[src]; ok {
				groups[gi] = append(groups[gi], m)
				continue
			}
			shared[src] = len(groups)
		}
		groups = append(groups, []compress.NearMember{m})
	}
	return groups
}

// advisor builds tenant pos's advisor over its dispatch-time workload w,
// probing its cluster's cache, and returns that cache for pinning.
func (p *fleetPlan) advisor(pos int, id string, w *Workload) (*Advisor, *whatif.Optimizer, error) {
	qmap := p.qmaps[pos]
	if len(w.Queries) != len(qmap) {
		return nil, nil, fmt.Errorf("indexsel: tenant %q Load is not deterministic: %d queries at dispatch, %d at clustering",
			id, len(w.Queries), len(qmap))
	}
	t := p.tenants[pos]
	advOpts := []Option{WithCostMode(p.mode), WithParallelism(p.parallelism)}
	if t.BudgetBytes > 0 {
		advOpts = append(advOpts, WithBudgetBytes(t.BudgetBytes))
	}
	if t.BudgetShare > 0 {
		advOpts = append(advOpts, WithBudgetShare(t.BudgetShare))
	}
	if ms, ok := t.Source.(*MeasuredSource); ok {
		advOpts = append(advOpts, WithMeasuredSource(ms))
	}
	ad := NewAdvisor(w, advOpts...)
	// Swap in the cluster's cache. A private custom source is probed
	// directly — exactly the standalone construction, with the analytic
	// model NewAdvisor built still providing the budget rule. Everyone else
	// probes through a subset view that canonicalizes each query to its
	// superset template first.
	c := p.cluster[pos]
	opt := p.caches[c]
	ad.opt = opt
	if sup := p.supersets[c]; sup != nil {
		canon := make([]workload.Query, len(qmap))
		for j, sid := range qmap {
			canon[j] = sup.Queries[sid]
		}
		ad.opt = opt.View(canon)
	}
	return ad, opt, nil
}

// stats sums what-if calls and cache hits over every cluster cache.
func (p *fleetPlan) stats() (calls, hits int64) {
	for _, opt := range p.caches {
		s := opt.Stats()
		calls += s.Calls
		hits += s.CacheHits
	}
	return calls, hits
}
