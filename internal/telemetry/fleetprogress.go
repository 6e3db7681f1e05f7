package telemetry

import (
	"sync"
	"time"
)

// FleetState is the fleet-level progress snapshot served alongside the
// per-run ProgressState: how many tenants are queued/running/done, how well
// cross-tenant sharing is working (shared what-if cache hit rate), and the
// memory budget's accounting. During a fleet run the per-run fields of
// ProgressState keep tracking whichever tenant selection is currently live;
// this struct is the aggregate view.
type FleetState struct {
	// Active is true while a fleet run is in flight; Done once at least one
	// fleet has finished since process start.
	Active bool `json:"active"`
	Done   bool `json:"done"`

	StartedAt time.Time `json:"started_at,omitempty"`

	// Tenants is the fleet size; Clusters the number of structural clusters
	// sharing what-if caches (0 when sharing is disabled).
	Tenants  int `json:"tenants"`
	Clusters int `json:"clusters,omitempty"`

	// Queued/Running/Completed/Failed partition the tenants at snapshot
	// time. Failed counts tenants whose run returned an error (panic,
	// infrastructure failure) — deadline-bounded partial results count as
	// Completed, per the anytime contract.
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`

	// SharedCalls/SharedHits aggregate the cluster caches' what-if
	// accounting; SharedHitRate = hits / (hits + calls) at snapshot time.
	SharedCalls   int64   `json:"shared_calls"`
	SharedHits    int64   `json:"shared_hits"`
	SharedHitRate float64 `json:"shared_hit_rate"`

	// ResidentBytes and Evictions mirror the table budget's accounting.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
	Evictions     int64 `json:"evictions,omitempty"`

	// Spills/Restores count cost tables serialized to disk on eviction and
	// restored from disk on re-pin (spill-to-disk mode only).
	Spills   int64 `json:"spills,omitempty"`
	Restores int64 `json:"restores,omitempty"`

	// WorkloadsResident/WorkloadBytes report the tenant workloads the
	// fleet's workers currently hold between dispatch-time load and result.
	WorkloadsResident int   `json:"workloads_resident,omitempty"`
	WorkloadBytes     int64 `json:"workload_bytes,omitempty"`
}

// fleetTracker is the process-wide fleet-progress cell, generation-fenced
// like progressTracker so a stale handle cannot clobber a newer fleet run.
type fleetTracker struct {
	mu    sync.Mutex
	gen   uint64
	begun bool
	st    FleetState
}

var fleetProgress fleetTracker

// FleetRun is the writer handle for one fleet run. All methods are nil-safe
// no-ops so callers need no feature gates.
type FleetRun struct {
	gen uint64
}

// BeginFleetProgress marks a new fleet run as live. clusters may be 0 when
// sharing is disabled.
func BeginFleetProgress(tenants, clusters int) *FleetRun {
	fleetProgress.mu.Lock()
	defer fleetProgress.mu.Unlock()
	fleetProgress.gen++
	fleetProgress.begun = true
	fleetProgress.st = FleetState{
		Active:    true,
		StartedAt: time.Now(),
		Tenants:   tenants,
		Clusters:  clusters,
		Queued:    tenants,
	}
	return &FleetRun{gen: fleetProgress.gen}
}

// update applies f under the tracker lock if this handle is still current.
func (p *FleetRun) update(f func(st *FleetState)) {
	if p == nil {
		return
	}
	fleetProgress.mu.Lock()
	defer fleetProgress.mu.Unlock()
	if p.gen != fleetProgress.gen {
		return
	}
	f(&fleetProgress.st)
}

// TenantStarted moves one tenant from queued to running.
func (p *FleetRun) TenantStarted() {
	p.update(func(st *FleetState) {
		st.Queued--
		st.Running++
	})
}

// TenantDone moves one tenant from running to completed (or failed).
func (p *FleetRun) TenantDone(failed bool) {
	p.update(func(st *FleetState) {
		st.Running--
		st.Completed++
		if failed {
			st.Failed++
		}
	})
}

// SetSharing publishes the aggregate shared-cache accounting (underlying
// source calls vs cache hits across all cluster caches).
func (p *FleetRun) SetSharing(calls, hits int64) {
	p.update(func(st *FleetState) {
		st.SharedCalls = calls
		st.SharedHits = hits
	})
}

// SetMemory publishes the table budget's resident bytes and eviction count.
func (p *FleetRun) SetMemory(residentBytes, evictions int64) {
	p.update(func(st *FleetState) {
		st.ResidentBytes = residentBytes
		st.Evictions = evictions
	})
}

// SetSpill publishes the table budget's spill-to-disk accounting.
func (p *FleetRun) SetSpill(spills, restores int64) {
	p.update(func(st *FleetState) {
		st.Spills = spills
		st.Restores = restores
	})
}

// SetWorkloads publishes the count and estimated bytes of the tenant
// workloads the fleet's workers currently hold.
func (p *FleetRun) SetWorkloads(resident int, bytes int64) {
	p.update(func(st *FleetState) {
		st.WorkloadsResident = resident
		st.WorkloadBytes = bytes
	})
}

// Finish marks the fleet run complete.
func (p *FleetRun) Finish() {
	p.update(func(st *FleetState) {
		st.Active = false
		st.Done = true
	})
}

// FleetSnapshot returns the live fleet state and whether any fleet run has
// begun since process start; the hit rate is computed at snapshot time.
func FleetSnapshot() (FleetState, bool) {
	fleetProgress.mu.Lock()
	st := fleetProgress.st
	ok := fleetProgress.begun
	fleetProgress.mu.Unlock()
	if tot := st.SharedCalls + st.SharedHits; tot > 0 {
		st.SharedHitRate = float64(st.SharedHits) / float64(tot)
	}
	return st, ok
}
