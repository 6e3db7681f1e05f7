package indexsel

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"repro/internal/candidates"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Fleet mode: one process tuning many tenant databases (the ROADMAP's
// AIM-shaped north star). TuneFleet schedules one SelectContext per tenant
// over internal/fleet's bounded worker pool and adds the two cross-tenant
// levers this layer is uniquely positioned to pull:
//
// Sharing. Tenants are clustered by structural fingerprint
// (compress.Cluster): same tables, attributes and query templates — only
// frequencies and names may differ. Per-execution what-if costs never read
// frequencies (the cost model and the measured engine price one execution;
// frequencies enter only as linear weights of the objective), so one shared
// what-if optimizer per cluster is an exact read-through (template, index)
// cost cache: the first tenant's misses are its cluster-mates' hits, and
// every tenant's selection is bit-identical to what it would compute alone.
// The candidate subset enumeration (candidates.Combos) is likewise
// structural and shared per cluster; the representative ordering, which
// weighs per-tenant frequencies, stays per-tenant. Tenants with a custom
// Source share only when they name the same Source value; MultiIndexCosts
// runs unshared (its context-dependent costs invalidate cache entries
// mid-run, which must not cross tenants).
//
// Memory. All cluster caches are registered with one fleet.TableBudget:
// while a tenant runs, its cluster's tables are pinned working memory; once
// idle they join an LRU pool bounded by TableBudgetBytes, and evicted
// clusters rebuild on demand (deterministic sources), trading repeated
// what-if calls for bounded resident bytes.

// FleetTenant is one tenant database in a fleet run.
type FleetTenant struct {
	// ID names the tenant in results and logs; empty IDs are synthesized
	// from the position.
	ID string
	// Workload is the tenant's query workload (required).
	Workload *Workload
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
	// source). Tenants naming the same Source value and structure share a
	// cache; nil-Source tenants share a per-cluster analytic model.
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
	// MultiIndexCosts disables cross-tenant sharing (see package comment).
	CostMode CostMode
	// Parallelism is each tenant's CoPhy branch-and-bound node pool size
	// (WithParallelism; 0 = GOMAXPROCS). Only StrategyCoPhy runs in
	// parallel inside a tenant; Extend and H1-H5 tenants are serial and the
	// scheduler pool (Workers) owns the cores. CoPhy fleets usually want 1.
	Parallelism int
	// DisableSharing forces per-tenant caches even for structural twins
	// (the fleet benchmark's pooled-unshared arm; also a safety valve).
	DisableSharing bool
	// NearMatch widens sharing from exact structural twins to near-clones:
	// tenants with an identical schema whose template sets overlap by at
	// least NearMatchOverlap share one cache keyed on the union template
	// superset, each tenant probing through a subset view
	// (whatif.Optimizer.View). Exact for nil-Source tenants and for tenants
	// sharing one *MeasuredSource; other custom sources keep exact-twin
	// sharing only. See DESIGN.md §15.
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
	// ID echoes the tenant; Cluster is its position in FleetResult's cluster
	// numbering (-1 when sharing is disabled).
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
	// WorkloadPeakResident/WorkloadPeakBytes report the streaming
	// prefetcher's high-water marks: the most tenant workloads (and their
	// estimated bytes) resident at once. Zero outside TuneFleetStream.
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

// tenantState is the per-tenant prepared work a fleet Runner executes.
type tenantState struct {
	ad      *Advisor
	opt     *whatif.Optimizer // the (possibly shared) cache to pin
	cluster int
}

// TuneFleet runs one selection per tenant over a bounded worker pool with
// cross-tenant what-if sharing and a global table memory budget, returning
// per-tenant results in input order. Tenant failures (panics, crashing
// sources) and deadline-bounded partial results are isolated per tenant; the
// fleet itself only errors on invalid input. Fleet-level progress (tenants
// queued/running/done, shared hit rate, budget accounting) is published to
// the /progress endpoint for the duration of the run.
func TuneFleet(ctx context.Context, tenants []FleetTenant, opts FleetOptions) (*FleetResult, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("indexsel: fleet has no tenants")
	}
	for i := range tenants {
		if tenants[i].Workload == nil {
			return nil, fmt.Errorf("indexsel: fleet tenant %d (%q) has no workload", i, tenants[i].ID)
		}
	}
	strategy := opts.Strategy
	if strategy == 0 {
		strategy = StrategyExtend
	}
	start := time.Now()

	states, nclusters, sharedOpts, err := prepareFleet(tenants, strategy, opts)
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
	prog := telemetry.BeginFleetProgress(len(tenants), nclusters)
	publish := func() {
		var calls, hits int64
		for _, opt := range sharedOpts {
			s := opt.Stats()
			calls += s.Calls
			hits += s.CacheHits
		}
		prog.SetSharing(calls, hits)
		resident, _, evictions := budget.Stats()
		prog.SetMemory(resident, evictions)
		spills, restores, _ := budget.SpillStats()
		prog.SetSpill(spills, restores)
	}

	sched := fleet.NewAdvisor(fleet.Options{
		Workers:        opts.Workers,
		TenantDeadline: opts.TenantDeadline,
		OnStart:        func(fleet.Tenant) { prog.TenantStarted() },
		OnDone: func(r fleet.Result) {
			prog.TenantDone(r.Err != nil)
			publish()
		},
	})

	ftenants := make([]fleet.Tenant, len(tenants))
	for i, t := range tenants {
		id := t.ID
		if id == "" {
			id = fmt.Sprintf("tenant-%03d", i)
		}
		ftenants[i] = fleet.Tenant{
			ID:       id,
			Weight:   t.Weight,
			EstWork:  float64(t.Workload.NumQueries()),
			Deadline: t.Deadline,
			Payload:  states[i],
		}
	}

	results := sched.Run(ctx, ftenants, func(ctx context.Context, t fleet.Tenant) (any, error) {
		st := t.Payload.(*tenantState)
		budget.Pin(st.opt)
		defer budget.Unpin(st.opt)
		return st.ad.SelectContext(ctx, strategy)
	})

	out := &FleetResult{
		Tenants:  make([]FleetTenantResult, len(tenants)),
		Clusters: nclusters,
	}
	for i, r := range results {
		tr := FleetTenantResult{
			ID:      r.Tenant.ID,
			Cluster: states[i].cluster,
			Err:     r.Err,
			Seq:     r.Seq,
			Elapsed: r.Elapsed,
		}
		if rec, ok := r.Value.(*Recommendation); ok {
			tr.Rec = rec
		}
		out.Tenants[i] = tr
	}
	for _, opt := range sharedOpts {
		s := opt.Stats()
		out.SharedCalls += s.Calls
		out.SharedHits += s.CacheHits
	}
	out.ResidentBytes, out.MaxResidentBytes, out.Evictions = budget.Stats()
	out.Spills, out.Restores, _ = budget.SpillStats()
	out.Elapsed = time.Since(start)
	publish()
	prog.Finish()
	return out, nil
}

// fleetGroup is one set of tenants sharing a single what-if cache. In exact
// mode superset/qmaps are nil and every member probes the cache directly; in
// near-match mode superset is the cluster's union-template workload and
// qmaps[i] maps member i's local query IDs into it (each member then probes
// through a whatif View).
type fleetGroup struct {
	members  []int
	superset *workload.Workload
	qmaps    [][]int32
}

// groupBySource splits cluster member positions into subgroups that serve
// costs the same way: all from the analytic model (nil Source), or from the
// very same Source value. Sources whose dynamic type is not comparable cannot
// be identity-checked and stay unshared.
func groupBySource(tenants []FleetTenant, members []int) [][]int {
	type srcGroup struct {
		src     WhatIfSource
		members []int
	}
	var sg []srcGroup
	for _, pos := range members {
		src := tenants[pos].Source
		if src != nil && !reflect.TypeOf(src).Comparable() {
			sg = append(sg, srcGroup{src: src, members: []int{pos}})
			continue
		}
		found := false
		for gi := range sg {
			if sg[gi].src == nil && src == nil ||
				sg[gi].src != nil && src != nil &&
					reflect.TypeOf(sg[gi].src).Comparable() && sg[gi].src == src {
				sg[gi].members = append(sg[gi].members, pos)
				found = true
				break
			}
		}
		if !found {
			sg = append(sg, srcGroup{src: src, members: []int{pos}})
		}
	}
	out := make([][]int, len(sg))
	for i, g := range sg {
		out[i] = g.members
	}
	return out
}

// nearMatchGroups clusters tenants across near-clones (compress.ClusterNear):
// tenants with identical schemas whose template sets overlap by >= overlap
// share one cache keyed on the union template superset, each member probing
// through a subset view. Sharing across differing template sets is only sound
// for sources this layer can rebind to the superset template space — the
// analytic model (rebuilt over the superset) and *MeasuredSource (rebound via
// ForWorkload). Subgroups with any other source fall back to exact-twin
// clustering among themselves.
func nearMatchGroups(tenants []FleetTenant, ws []*workload.Workload, overlap float64) ([]fleetGroup, error) {
	if overlap == 0 {
		overlap = compress.DefaultNearMatchOverlap
	}
	var groups []fleetGroup
	for _, nc := range compress.ClusterNear(ws, overlap) {
		qmapOf := make(map[int][]int32, len(nc.Members))
		var positions []int
		for _, m := range nc.Members {
			qmapOf[m.Pos] = m.QueryMap
			positions = append(positions, m.Pos)
		}
		for _, members := range groupBySource(tenants, positions) {
			switch tenants[members[0]].Source.(type) {
			case nil, *MeasuredSource:
				superset, err := nc.SupersetWorkload()
				if err != nil {
					return nil, fmt.Errorf("indexsel: building near-match superset: %w", err)
				}
				g := fleetGroup{members: members, superset: superset}
				for _, pos := range members {
					g.qmaps = append(g.qmaps, qmapOf[pos])
				}
				groups = append(groups, g)
			default:
				// Custom sources cannot be rebound to the superset: keep
				// PR 8 semantics (share only across exact structural twins).
				sub := make([]*workload.Workload, len(members))
				for i, pos := range members {
					sub[i] = tenants[pos].Workload
				}
				for _, sc := range compress.Cluster(sub) {
					g := fleetGroup{}
					for _, si := range sc.Members {
						g.members = append(g.members, members[si])
					}
					groups = append(groups, g)
				}
			}
		}
	}
	return groups, nil
}

// prepareFleet clusters the tenants and builds one prepared advisor per
// tenant, wiring shared caches and shared candidate enumeration per cluster.
func prepareFleet(tenants []FleetTenant, strategy Strategy, opts FleetOptions) ([]*tenantState, int, []*whatif.Optimizer, error) {
	states := make([]*tenantState, len(tenants))

	mode := opts.CostMode
	// MultiIndexCosts invalidates cache entries mid-run (Remark 2), which
	// must not leak across tenants: fall back to unshared caches.
	share := !opts.DisableSharing && mode != MultiIndexCosts

	ws := make([]*workload.Workload, len(tenants))
	for i := range tenants {
		ws[i] = tenants[i].Workload
	}
	var groups []fleetGroup
	switch {
	case share && opts.NearMatch:
		var err error
		groups, err = nearMatchGroups(tenants, ws, opts.NearMatchOverlap)
		if err != nil {
			return nil, 0, nil, err
		}
	case share:
		for _, c := range compress.Cluster(ws) {
			for _, members := range groupBySource(tenants, c.Members) {
				groups = append(groups, fleetGroup{members: members})
			}
		}
	default:
		for i := range tenants {
			groups = append(groups, fleetGroup{members: []int{i}})
		}
	}

	sharedOpts := make([]*whatif.Optimizer, 0, len(groups))
	for ci, g := range groups {
		rep := tenants[g.members[0]]
		// The cache's template space: the union superset under near-match,
		// the representative's own workload otherwise (all members are then
		// structural twins of it).
		cacheW := rep.Workload
		if g.superset != nil {
			cacheW = g.superset
		}
		var opt *whatif.Optimizer
		var repMeasured *MeasuredSource
		switch src := rep.Source.(type) {
		case nil:
			// One analytic model over the cache's template space serves the
			// whole cluster: per-execution costs are structural.
			opt = whatif.New(costmodel.New(cacheW, mode))
		case *MeasuredSource:
			repMeasured = src
			if g.superset != nil {
				// Rebind the shared engine source to the superset template
				// space so its point queries line up with superset IDs; the
				// built-index cache stays shared with the original.
				opt = whatif.New(src.ForWorkload(g.superset))
			} else {
				opt = whatif.New(src)
			}
		default:
			opt = whatif.New(src)
		}
		sharedOpts = append(sharedOpts, opt)

		// Candidate strategies share the cluster's subset enumeration; the
		// frequency-weighted representative ordering stays per-tenant, so
		// each tenant's candidate set is bit-identical to standalone. Under
		// near-match the members' template sets differ, so enumeration stays
		// per-tenant (the advisor's default path) — likewise bit-identical
		// to standalone, just not shared.
		var combos []candidates.Combo
		if strategy != StrategyExtend && g.superset == nil {
			var err error
			combos, err = candidates.Combos(rep.Workload, 4)
			if err != nil {
				return nil, 0, nil, fmt.Errorf("indexsel: fleet candidate enumeration (tenant %q): %w", rep.ID, err)
			}
		}

		for mi, pos := range g.members {
			t := tenants[pos]
			var advOpts []Option
			advOpts = append(advOpts, WithCostMode(mode))
			if t.BudgetBytes > 0 {
				advOpts = append(advOpts, WithBudgetBytes(t.BudgetBytes))
			}
			if t.BudgetShare > 0 {
				advOpts = append(advOpts, WithBudgetShare(t.BudgetShare))
			}
			if opts.Parallelism != 0 {
				advOpts = append(advOpts, WithParallelism(opts.Parallelism))
			}
			if ms, ok := t.Source.(*MeasuredSource); ok && ms == repMeasured {
				advOpts = append(advOpts, WithMeasuredSource(ms))
			}
			if combos != nil {
				advOpts = append(advOpts, WithCandidates(candidates.Representatives(t.Workload, combos)))
			}
			ad := NewAdvisor(t.Workload, advOpts...)
			// Swap in the cluster's shared cache (it wraps this tenant's own
			// source, or the cluster-representative model — structurally
			// identical either way). For a cluster of one this is exactly the
			// standalone construction: an optimizer over the tenant's own
			// source/model. For generic custom sources the analytic model
			// built by NewAdvisor still provides the budget rule. Under
			// near-match the tenant gets a subset view over the shared cache:
			// every probe is canonicalized to the superset template first.
			if g.superset != nil {
				qmap := g.qmaps[mi]
				canon := make([]workload.Query, len(qmap))
				for j, sid := range qmap {
					canon[j] = g.superset.Queries[sid]
				}
				ad.opt = opt.View(canon)
			} else {
				ad.opt = opt
			}
			states[pos] = &tenantState{ad: ad, opt: opt, cluster: ci}
		}
	}
	return states, len(groups), sharedOpts, nil
}
