package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// Config configures the tuning daemon.
type Config struct {
	// Schema is the tables+attributes catalog observations resolve
	// against (its query templates are ignored). Required.
	Schema *workload.Workload
	// Dir is the journal directory. Required.
	Dir string
	// WrapSource, if non-nil, wraps the per-retune cost source (e.g. in a
	// faultinject.Source for chaos runs). A fresh source is built for
	// every retune, so call-count-triggered faults fire on each attempt.
	WrapSource func(whatif.Source) whatif.Source

	// Epsilon and HeavyK parameterize the never-regress guardrail
	// (drift.PlanOptions); zero means the drift package defaults.
	Epsilon float64
	HeavyK  int
	// DriftThreshold is the drift score that triggers re-selection once a
	// baseline exists; <= 0 means 0.2.
	DriftThreshold float64
	// HalfLife and WindowCap size the observation window; zero means
	// 1 hour and 4096 templates.
	HalfLife  time.Duration
	WindowCap int
	// QueueCap bounds the intake queue in batches; <= 0 means 64. A full
	// queue answers 429 with Retry-After (backpressure, never blocking).
	QueueCap int
	// RetuneDeadline bounds each re-selection (anytime: a deadline yields
	// a partial but valid plan); <= 0 means 30s.
	RetuneDeadline time.Duration
	// BudgetBytes fixes the memory budget; when 0, BudgetShare (of the
	// window's single-attribute footprint; <= 0 means 0.5) is used.
	BudgetBytes int64
	BudgetShare float64
	// ReconfigPerByte biases re-selection toward low-churn deltas: the
	// reconfiguration cost per byte of index created relative to the
	// deployed set (drift.PlanOptions). It must be finite and non-negative;
	// 0 means free.
	ReconfigPerByte float64
	// BackoffBase/BackoffMax shape the exponential retry backoff after a
	// failed or rejected retune; zero means 1s / 5m.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Clock injects time for every decision path (decay, drift, backoff),
	// keeping daemon behavior deterministic in tests; nil means time.Now.
	Clock func() time.Time
	// Seed seeds the backoff jitter.
	Seed int64
	// Deprecated: ignored. Retunes run Extend, which is serial; the field
	// stays only because the end-to-end benchmark (bench/e2e/daemon.go)
	// still sets it.
	Parallelism int
	// ApplyHook, if non-nil, is passed to Store.ApplyDelta (chaos/test
	// crash injection between state ops).
	ApplyHook func(opsDone int) error
}

// Daemon is the online tuning service: it ingests query observations into a
// decayed window, re-selects on drift, and applies guardrailed deltas
// through the crash-safe store.
type Daemon struct {
	cfg   Config
	store *Store
	clock func() time.Time
	rng   *rand.Rand

	queue    chan batchMsg
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// prog publishes the daemon section of the process progress cell;
	// /status reads it back without taking mu.
	prog *telemetry.Progress

	mu       sync.Mutex // guards everything below
	win      *drift.Window
	deployed workload.Selection
	// deployedKeys is keysOf(deployed.Sorted()), rebuilt only when the
	// deployed set changes and never mutated, so publishing it is free.
	deployedKeys []string
	baseline     *drift.Profile
	lastScore    drift.Score
	failCount    int
	nextTryAt    time.Time
	malformed    int64
	observed     int64

	mObs       *telemetry.Counter
	mMalformed *telemetry.Counter
	mThrottled *telemetry.Counter
	mRetunes   *telemetry.Counter
	mApplied   *telemetry.Counter
	mRejected  *telemetry.Counter
	mFailures  *telemetry.Counter
	mRollbacks *telemetry.Counter
	gTemplates *telemetry.Gauge
	gWeight    *telemetry.Gauge
	gScore     *telemetry.Gauge
}

// New opens the store and builds a daemon. Callers must then either
// Resume() (recover an existing journal) or verify the store is fresh, and
// finally Start().
func New(cfg Config) (*Daemon, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("service: Config.Schema is required")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("service: Config.Dir is required")
	}
	if p := cfg.ReconfigPerByte; !(p >= 0) || math.IsInf(p, 1) {
		return nil, fmt.Errorf("service: Config.ReconfigPerByte must be finite and non-negative, got %v", p)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.2
	}
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = time.Hour
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.RetuneDeadline <= 0 {
		cfg.RetuneDeadline = 30 * time.Second
	}
	if cfg.BudgetShare <= 0 {
		cfg.BudgetShare = 0.5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Minute
	}
	store, err := Open(cfg.Dir, cfg.Clock)
	if err != nil {
		return nil, err
	}
	reg := telemetry.Default()
	d := &Daemon{
		cfg:      cfg,
		store:    store,
		clock:    cfg.Clock,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		queue:    make(chan batchMsg, cfg.QueueCap),
		stop:     make(chan struct{}),
		win:      drift.NewWindow(cfg.Schema, drift.WindowConfig{HalfLife: cfg.HalfLife, Cap: cfg.WindowCap}),
		deployed: workload.Selection{},

		mObs:       reg.Counter("indexsel_daemon_observations_total", "Query observations ingested."),
		mMalformed: reg.Counter("indexsel_daemon_observations_malformed_total", "Observations dropped as malformed."),
		mThrottled: reg.Counter("indexsel_daemon_throttled_total", "Observe batches refused with 429 (queue full)."),
		mRetunes:   reg.Counter("indexsel_daemon_retunes_total", "Drift-triggered re-selection attempts."),
		mApplied:   reg.Counter("indexsel_daemon_deltas_applied_total", "Accepted delta plans applied to the deployed set."),
		mRejected:  reg.Counter("indexsel_daemon_deltas_rejected_total", "Delta plans rejected by the never-regress guardrail."),
		mFailures:  reg.Counter("indexsel_daemon_retune_failures_total", "Re-selection attempts that failed (error, panic)."),
		mRollbacks: reg.Counter("indexsel_daemon_rollbacks_total", "Half-applied deltas rolled back by recovery."),
		gTemplates: reg.Gauge("indexsel_daemon_window_templates", "Distinct templates in the observation window."),
		gWeight:    reg.Gauge("indexsel_daemon_window_weight", "Decayed total observation weight in the window."),
		gScore:     reg.Gauge("indexsel_daemon_drift_score", "Latest drift score vs the tuned baseline."),
	}
	d.deployedKeys = keysOf(nil)
	d.prog = telemetry.BeginProgress(telemetry.DaemonSection, d.clock, func(p *telemetry.ProgressState) {
		p.Daemon.Deployed = d.deployedKeys
	})
	return d, nil
}

// Store exposes the underlying journal store (read-mostly: tests and
// tools).
func (d *Daemon) Store() *Store { return d.store }

// Fresh reports whether the journal is empty (no prior daemon state).
func (d *Daemon) Fresh() (bool, error) { return d.store.Empty() }

// Resume recovers the journal: replays records, rolls back any half-applied
// delta, verifies the deployed set, and loads it as the daemon's deployed
// selection.
func (d *Daemon) Resume() (*RecoveryReport, error) {
	rep, err := d.store.Recover()
	if err != nil {
		return nil, err
	}
	sel := workload.Selection{}
	for _, key := range rep.Deployed {
		k, err := workload.ParseIndexKey(d.cfg.Schema, key)
		if err != nil {
			return nil, fmt.Errorf("%w: deployed key %q does not resolve against schema: %v", ErrJournalCorrupt, key, err)
		}
		sel.Add(k)
	}
	d.mu.Lock()
	d.setDeployedLocked(sel)
	d.publishTuneLocked()
	d.mu.Unlock()
	if rep.RolledBack != 0 {
		d.mRollbacks.Inc()
	}
	return rep, nil
}

// Start launches the ingestion/tuning loop.
func (d *Daemon) Start() {
	d.wg.Add(1)
	go d.loop()
}

// Stop shuts the loop down and closes the store. Idempotent.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() {
		close(d.stop)
		d.wg.Wait()
		d.store.Close()
	})
}

// Deployed returns the current deployed selection (clone).
func (d *Daemon) Deployed() workload.Selection {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deployed.Clone()
}

// batchMsg is one intake-queue element: a batch of observations, plus an
// optional done channel (Flush markers) closed once the batch — and the
// retune check it triggers — has been fully processed.
type batchMsg struct {
	obs  []drift.Observation
	done chan struct{}
}

func (d *Daemon) loop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case msg := <-d.queue:
			d.ingest(msg.obs)
			d.maybeRetune()
			if msg.done != nil {
				close(msg.done)
			}
		}
	}
}

// ingest folds a batch into the window; flush markers carry a done channel.
func (d *Daemon) ingest(batch []drift.Observation) {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, obs := range batch {
		at := obs.At
		if at.IsZero() {
			at = now
		}
		if err := d.win.Observe(obs, at); err != nil {
			d.malformed++
			d.mMalformed.Inc()
			continue
		}
		d.observed++
		d.mObs.Inc()
	}
	templates, weight := d.win.Len(), d.win.TotalWeight(now)
	d.gTemplates.Set(float64(templates))
	d.gWeight.Set(weight)
	d.prog.Update(func(p *telemetry.ProgressState) {
		s := p.Daemon
		s.Window, s.Weight, s.Observed, s.Malformed = templates, weight, d.observed, d.malformed
	})
}

// maybeRetune runs the drift check and, when triggered, a guardrailed
// re-selection + apply. All failure modes degrade gracefully: the deployed
// set is untouched and the next attempt backs off exponentially with
// seeded jitter. It publishes the decision state when it returns, and marks
// the daemon section retuning while a re-selection is in flight. The
// outcome counters move only after the outcome is published, so a reader
// that sees one move on /metrics and then reads /status sees the outcome.
func (d *Daemon) maybeRetune() {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	var failed, rejected, applied int64
	defer func() {
		d.publishTuneLocked()
		d.mFailures.Add(failed)
		d.mRejected.Add(rejected)
		d.mApplied.Add(applied)
	}()
	if now.Before(d.nextTryAt) {
		return
	}
	snap := d.win.Snapshot(now)
	if snap == nil {
		return
	}
	model := costmodel.New(snap, costmodel.SingleIndex)
	cur := drift.NewProfile(snap, func(q workload.Query) float64 { return model.BaseCost(q) })
	if d.baseline != nil {
		d.lastScore = drift.Compare(d.baseline, cur)
		d.gScore.Set(d.lastScore.Score)
		if d.lastScore.Score < d.cfg.DriftThreshold {
			return
		}
	}
	d.prog.Update(func(p *telemetry.ProgressState) { p.Daemon.Retuning = true })
	d.mRetunes.Inc()

	var src whatif.Source = model
	if d.cfg.WrapSource != nil {
		src = d.cfg.WrapSource(src)
	}
	opt := whatif.New(src)
	budget := d.cfg.BudgetBytes
	if budget <= 0 {
		budget = model.Budget(d.cfg.BudgetShare)
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.RetuneDeadline)
	plan, err := drift.PlanDelta(ctx, snap, opt, d.deployed, drift.PlanOptions{
		Budget:          budget,
		Epsilon:         d.cfg.Epsilon,
		HeavyK:          d.cfg.HeavyK,
		ReconfigPerByte: d.cfg.ReconfigPerByte,
	})
	cancel()
	if err != nil {
		// A failed retune counts once, whether or not its record lands.
		failed = 1
		var pe *fault.WorkerPanicError
		var op, value string
		if errors.As(err, &pe) {
			op, value = pe.Op, fmt.Sprint(pe.Value)
		}
		d.journalFailedLocked("failure", d.store.Failure(err, op, value))
		d.backoffLocked(now)
		return
	}
	if !plan.Accepted {
		rejected++
		if d.journalFailedLocked("reject", d.store.Reject(keysOf(plan.Creates), keysOf(plan.Drops), plan.Guardrail)) {
			failed++
		}
		d.backoffLocked(now)
		return
	}
	if plan.Empty() {
		// Nothing to change: the deployed set already serves this window.
		d.baseline = cur
		d.lastScore = drift.Score{}
		d.gScore.Set(0)
		d.failCount = 0
		return
	}
	err = d.store.ApplyDelta(
		keysOf(plan.Deployed.Sorted()), keysOf(plan.Target.Sorted()),
		keysOf(plan.Creates), keysOf(plan.Drops),
		plan.Guardrail, d.cfg.ApplyHook,
	)
	if err != nil {
		// Mid-apply abort (crash-injected or I/O): the in-place recovery
		// rolls the half-applied delta back to the deployed set.
		d.journalFailedLocked("apply", err)
		failed++
		d.backoffLocked(now)
		return
	}
	d.setDeployedLocked(plan.Target.Clone())
	d.baseline = cur
	d.lastScore = drift.Score{}
	d.gScore.Set(0)
	d.failCount = 0
	applied++
}

// journalFailedLocked handles a failed journal or state write and reports
// whether there was one (nil err is a no-op). It logs the error and
// recovers the store in place, which truncates a torn tail line and rolls a
// half-applied delta back; the caller counts it as a retune failure, at
// most one per retune.
// Without the recovery a later append would land after the damaged line,
// and the next Resume would refuse the journal as corrupt. Callers hold
// d.mu.
func (d *Daemon) journalFailedLocked(write string, err error) bool {
	if err == nil {
		return false
	}
	telemetry.L().Error("daemon journal write failed", "write", write, "err", err)
	rep, err := d.store.Recover()
	if err != nil {
		telemetry.L().Error("daemon in-place journal recovery failed", "err", err)
	} else if rep.RolledBack != 0 {
		d.mRollbacks.Inc()
	}
	return true
}

// setDeployedLocked replaces the deployed set and rebuilds its published
// keys. Callers hold d.mu.
func (d *Daemon) setDeployedLocked(sel workload.Selection) {
	d.deployed = sel
	d.deployedKeys = keysOf(sel.Sorted())
}

// publishTuneLocked pushes the retune decision state into the daemon
// section and clears its retuning flag. It allocates nothing. Callers hold
// d.mu.
func (d *Daemon) publishTuneLocked() {
	d.prog.Update(func(p *telemetry.ProgressState) {
		s := p.Daemon
		s.Deployed, s.Baseline, s.DriftScore = d.deployedKeys, d.baseline != nil, d.lastScore
		s.Failures, s.NextTry, s.Retuning = d.failCount, d.nextTryAt, false
	})
}

// backoffLocked schedules the next retune attempt: base·2^failures, capped,
// with up to +20% seeded jitter. Callers hold d.mu.
func (d *Daemon) backoffLocked(now time.Time) {
	dur := d.cfg.BackoffBase << uint(d.failCount)
	if dur > d.cfg.BackoffMax || dur <= 0 {
		dur = d.cfg.BackoffMax
	}
	dur = time.Duration(float64(dur) * (1 + 0.2*d.rng.Float64()))
	d.nextTryAt = now.Add(dur)
	d.failCount++
}

func keysOf(ks []workload.Index) []string {
	out := make([]string, 0, len(ks))
	for _, k := range ks {
		out = append(out, k.Key())
	}
	return out
}

// Flush blocks until every batch enqueued before the call has been ingested
// and the retune check has run — the deterministic synchronization point
// for tests and graceful shutdown. The marker enqueue blocks if the queue
// is full (Flush is a control operation, not producer traffic).
func (d *Daemon) Flush() {
	done := make(chan struct{})
	select {
	case d.queue <- batchMsg{done: done}:
		select {
		case <-done:
		case <-d.stop:
		}
	case <-d.stop:
	}
}

// Handler returns the daemon's HTTP mux: POST /observe, GET /status, plus
// the telemetry surface (/metrics, /progress, ...).
func (d *Daemon) Handler() http.Handler {
	mux := telemetry.NewMux(telemetry.Default())
	mux.HandleFunc("/observe", d.handleObserve)
	mux.HandleFunc("/status", d.handleStatus)
	return mux
}

// handleObserve ingests a batch: a JSON array of observations, or JSONL
// (one observation per line). Backpressure: a full queue answers 429 with
// Retry-After rather than blocking the producer. Malformed observations
// inside an accepted batch are counted and dropped during ingestion.
func (d *Daemon) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	batch, err := decodeBatch(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case d.queue <- batchMsg{obs: batch}:
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"accepted":%d}`+"\n", len(batch))
	default:
		d.mThrottled.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "intake queue full", http.StatusTooManyRequests)
	}
}

// decodeBatch parses a JSON array or JSONL body. Individual malformed
// JSONL lines are dropped here (counted as malformed) rather than failing
// the batch; a body that is neither array nor JSONL is a 400.
func decodeBatch(r *http.Request) ([]drift.Observation, error) {
	br := bufio.NewReader(r.Body)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("empty body")
	}
	if first[0] == '[' {
		var batch []drift.Observation
		if err := json.NewDecoder(br).Decode(&batch); err != nil {
			return nil, fmt.Errorf("bad JSON array: %v", err)
		}
		return batch, nil
	}
	var batch []drift.Observation
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var obs drift.Observation
		if err := json.Unmarshal(line, &obs); err != nil {
			// Count as malformed via a sentinel the ingester rejects.
			obs = drift.Observation{Count: 0}
		}
		batch = append(batch, obs)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bad JSONL: %v", err)
	}
	return batch, nil
}

// handleStatus serves the daemon's section of the progress cell. It never
// takes d.mu, so it answers while a retune is in flight.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := d.prog.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st.Daemon)
}
