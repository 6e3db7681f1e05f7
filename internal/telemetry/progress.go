package telemetry

import (
	"sync"
	"time"
)

// ProgressState is the process's one progress snapshot, served at
// /progress and, its daemon section, at the tuning daemon's /status. Each
// of its three sections has one live writer at a time:
//
//   - run: the most recent selection run, published once per construction
//     step by core and the advisor. Its fields sit at the top level of the
//     JSON document.
//   - fleet: the fleet-run aggregate, published by TuneFleet.
//   - daemon: the tuning daemon's state, published by its loop after every
//     batch and retune check.
type ProgressState struct {
	RunState

	// Fleet is the fleet aggregate once a fleet run has begun since process
	// start; nil otherwise. During a fleet run the run section tracks
	// whichever tenant selection began last.
	Fleet *FleetState `json:"fleet,omitempty"`
	// Daemon is the tuning daemon's state once one has been built in this
	// process; nil otherwise.
	Daemon *DaemonState `json:"daemon,omitempty"`
}

// RunState is the run section: the live selection's current step,
// best-so-far objective, deadline remaining, and the lazy loop's prune
// counters.
type RunState struct {
	// Active is true while a selection is running; Done is true once at
	// least one run has finished since process start.
	Active   bool   `json:"active"`
	Done     bool   `json:"done"`
	Strategy string `json:"strategy,omitempty"`

	StartedAt   time.Time `json:"started_at,omitempty"`
	BudgetBytes int64     `json:"budget_bytes,omitempty"`
	// Deadline is the run's absolute wall-clock bound (zero when none);
	// DeadlineRemainingSeconds is computed at snapshot time and negative
	// once the deadline has passed.
	Deadline                 time.Time `json:"deadline,omitempty"`
	DeadlineRemainingSeconds float64   `json:"deadline_remaining_seconds,omitempty"`

	// Step is the number of applied construction steps so far; BestCost the
	// best-so-far objective (InitialCost until the first step lands).
	Step        int     `json:"step"`
	InitialCost float64 `json:"initial_cost"`
	BestCost    float64 `json:"best_cost"`
	MemoryBytes int64   `json:"memory_bytes"`

	// Evaluated/CacheServed/Pruned mirror the run's candidate accounting.
	Evaluated   int64 `json:"evaluated"`
	CacheServed int64 `json:"cache_served"`
	Pruned      int64 `json:"pruned"`

	StopReason string `json:"stop_reason,omitempty"`
	Partial    bool   `json:"partial,omitempty"`
}

// FleetState is the fleet section: how many tenants are
// queued/running/done, how well cross-tenant sharing is working (shared
// what-if cache hit rate), and the memory budget's accounting.
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

// DaemonState is the daemon section, and the body of the daemon's /status:
// the deployed set, the observation window, and the retune decision state.
type DaemonState struct {
	// Deployed is the deployed set's sorted index keys. The daemon replaces
	// the slice when the set changes and never mutates it, so snapshots
	// share it.
	Deployed  []string `json:"deployed"`
	Window    int      `json:"window_templates"`
	Weight    float64  `json:"window_weight"`
	Observed  int64    `json:"observations"`
	Malformed int64    `json:"malformed"`
	// Baseline is true once a tuned baseline profile exists; DriftScore is
	// the latest drift check against it.
	Baseline   bool       `json:"baseline"`
	DriftScore DriftScore `json:"drift_score"`
	Failures   int        `json:"consecutive_failures"`
	// NextTryAt is the end of the retry backoff, rendered at snapshot time
	// from NextTry and only while the daemon's clock is still before it.
	NextTryAt string `json:"next_try_at,omitempty"`
	// Retuning is true while a retune (re-selection, guardrail, apply) is
	// in flight.
	Retuning bool `json:"retuning,omitempty"`

	// NextTry is the scheduled retry time NextTryAt is rendered from.
	NextTry time.Time `json:"-"`
}

// DriftScore quantifies drift between two workload profiles. It is defined
// here, where the daemon section reports it, and drift.Score aliases it.
type DriftScore struct {
	// Fingerprint is the Jaccard distance between the template sets:
	// 1 - |A∩B| / |A∪B|. It reacts to templates appearing or vanishing.
	Fingerprint float64 `json:"fingerprint"`
	// CostShift is half the L1 distance (total variation) between the
	// cost-share distributions — 0 for identical mixes, 1 for disjoint.
	// It reacts to mass moving between templates even when the sets match.
	CostShift float64 `json:"cost_shift"`
	// Score is max(Fingerprint, CostShift): the trigger value compared to
	// the daemon's drift threshold.
	Score float64 `json:"score"`
}

// Section names one of ProgressState's writer-owned sections.
type Section int

const (
	RunSection Section = iota
	FleetSection
	DaemonSection
	numSections
)

// progressCell is the process-wide progress cell: the writer of each
// section that began last. Every writer edits its own copy of its section,
// so a handle left over from an earlier (abandoned or still running) run,
// fleet or daemon can neither clobber the state of the one that superseded
// it nor lose its own.
type progressCell struct {
	mu   sync.Mutex // guards live and every writer's state
	live [numSections]*Progress
}

var progress progressCell

// Progress is the writer handle for one section. All methods are nil-safe
// no-ops, so instrumented code needs no feature gates.
type Progress struct {
	sec   Section
	clock func() time.Time
	st    ProgressState // this writer's section; the others stay zero
}

// BeginProgress makes a new writer the live owner of section sec: it
// applies init to the writer's fresh section under the cell's lock and
// returns the writer's handle. clock is the writer's time, against which
// snapshots evaluate the section's time-derived fields; nil means
// time.Now. Writers that began sec earlier leave /progress but keep their
// own state.
func BeginProgress(sec Section, clock func() time.Time, init func(*ProgressState)) *Progress {
	if clock == nil {
		clock = time.Now
	}
	p := &Progress{sec: sec, clock: clock}
	switch sec {
	case FleetSection:
		p.st.Fleet = new(FleetState)
	case DaemonSection:
		p.st.Daemon = new(DaemonState)
	}
	progress.mu.Lock()
	defer progress.mu.Unlock()
	init(&p.st)
	progress.live[sec] = p
	return p
}

// Update edits the writer's section in place under the cell's lock. An
// edit copies no slice, so a call allocates nothing: cheap enough for
// every construction step and every daemon batch, though never per
// candidate.
func (p *Progress) Update(edit func(*ProgressState)) {
	if p == nil {
		return
	}
	progress.mu.Lock()
	defer progress.mu.Unlock()
	edit(&p.st)
}

// Snapshot returns the writer's own section, live or superseded, with its
// time-derived fields evaluated at the writer's clock.
func (p *Progress) Snapshot() ProgressState { return snapshot(p) }

// ProgressSnapshot returns the live writers' sections with their
// time-derived fields (deadline remaining, shared hit rate, backoff end)
// evaluated at each writer's clock.
func ProgressSnapshot() ProgressState { return snapshot(nil) }

// snapshot copies own's section, or every live section when own is nil.
func snapshot(own *Progress) ProgressState {
	var st ProgressState
	var runClock, daemonClock func() time.Time
	progress.mu.Lock()
	writers := progress.live
	if own != nil {
		writers = [numSections]*Progress{own}
	}
	for _, p := range writers {
		switch {
		case p == nil:
		case p.sec == RunSection:
			st.RunState, runClock = p.st.RunState, p.clock
		case p.sec == FleetSection:
			f := *p.st.Fleet
			st.Fleet = &f
		default:
			d := *p.st.Daemon
			st.Daemon, daemonClock = &d, p.clock
		}
	}
	progress.mu.Unlock()

	if !st.Deadline.IsZero() {
		st.DeadlineRemainingSeconds = st.Deadline.Sub(runClock()).Seconds()
	}
	if f := st.Fleet; f != nil {
		if tot := f.SharedCalls + f.SharedHits; tot > 0 {
			f.SharedHitRate = float64(f.SharedHits) / float64(tot)
		}
	}
	if d := st.Daemon; d != nil && !d.NextTry.IsZero() && daemonClock().Before(d.NextTry) {
		d.NextTryAt = d.NextTry.UTC().Format(time.RFC3339Nano)
	}
	return st
}
