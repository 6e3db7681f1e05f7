package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	indexsel "repro"
	"repro/internal/costmodel"
	"repro/internal/drift"
	"repro/internal/whatif"
)

// daemon-drift: the tuning daemon fed drifting observation streams over
// loopback HTTP by one closed-loop client, which posts a batch of 32
// observations to /observe, waits for Flush, then posts the next. The schema
// is sql-writes' (a fifth writes); each stream has 18 phases one fake hour
// apart that drop and add 25 templates each. It is the only workload with
// per-request latency and durable writes: drift runs its window and drift
// check on every batch, service queues the batch and journals every applied
// delta with an fsync per record, and core retunes small windows with cold
// caches.
var daemonWorkload = &workloadDef{
	name:     wDaemon,
	why:      "drifting observation streams posted in batches to the tuning daemon by one closed-loop client: drift checks, fsync'd journal and cold retunes",
	generate: genDaemon,
	measure:  measureDaemon,
	traced:   traceDaemon,
}

// The daemon runs an operator's low-churn policy: retunes price every
// created index byte (as examples/drift does), and the guardrail lets a
// protected query at most double. With the defaults (no build price, 5 %
// slack) the guardrail vetoes most retunes once the stream has drifted for
// a few hours, and the daemon then skips the drift check until the next
// phase; how much of a stream it spends that way depends on the seed, which
// made batch times bimodal from seed to seed.
const (
	daemonReconfigPerByte = 5e3
	daemonEpsilon         = 1.0
)

// phase is one fake hour of a stream: the JSONL bodies the client posts,
// and the workload the phase's observations add up to, on which the
// deployed indexes are priced at the phase's end.
type phase struct {
	at      time.Time
	obs     int
	batches [][]byte
	w       *indexsel.Workload
}

func readSchema(r *runner) (*indexsel.Workload, error) {
	end := r.span("workload.read")
	defer end()
	return readWorkloadFile(filepath.Join(r.inputs, "schema.json"))
}

// loadStreams reads the observation streams and cuts them into phases and
// batches; it is the client's work and is not timed.
func loadStreams(r *runner, schema *indexsel.Workload) ([][]phase, error) {
	paths, err := filepath.Glob(filepath.Join(r.inputs, "stream-*.jsonl"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no observation streams in %s (%v)", r.inputs, err)
	}
	var streams [][]phase
	for _, path := range paths {
		phases, err := loadStream(path, schema)
		if err != nil {
			return nil, err
		}
		streams = append(streams, phases)
	}
	return streams, nil
}

func loadStream(path string, schema *indexsel.Workload) ([]phase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var phases []phase
	var wins []*indexsel.ObservationWindow
	var body bytes.Buffer
	n := 0
	flush := func() {
		if n > 0 {
			p := &phases[len(phases)-1]
			p.batches = append(p.batches, append([]byte(nil), body.Bytes()...))
			body.Reset()
			n = 0
		}
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var o indexsel.Observation
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(phases) == 0 || !o.At.Equal(phases[len(phases)-1].at) {
			flush()
			phases = append(phases, phase{at: o.At})
			wins = append(wins, indexsel.NewObservationWindow(schema, indexsel.WindowConfig{}))
		}
		if err := wins[len(wins)-1].Observe(o, o.At); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		phases[len(phases)-1].obs++
		body.Write(sc.Bytes())
		body.WriteByte('\n')
		if n++; n == daemonBatch {
			flush()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	for i := range phases {
		phases[i].w = wins[i].Snapshot(phases[i].at)
	}
	return phases, nil
}

// fakeClock is the daemon's clock: it stands at the current phase's time.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time  { return time.Unix(0, c.ns.Load()).UTC() }
func (c *fakeClock) set(t time.Time) { c.ns.Store(t.UnixNano()) }

// liveDaemon is a started daemon and the loopback server in front of it.
type liveDaemon struct {
	d     *indexsel.TuningDaemon
	srv   *httptest.Server
	clock *fakeClock
	cfg   indexsel.DaemonConfig
}

func startDaemon(r *runner, schema *indexsel.Workload, dir string, start time.Time, tune func(*indexsel.DaemonConfig)) (*liveDaemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	clock := &fakeClock{}
	clock.set(start)
	cfg := indexsel.DaemonConfig{
		Schema:          schema,
		Dir:             dir,
		Clock:           clock.now,
		Seed:            r.seed,
		Parallelism:     r.nproc,
		ReconfigPerByte: daemonReconfigPerByte,
		Epsilon:         daemonEpsilon,
	}
	if tune != nil {
		tune(&cfg)
	}
	d, err := indexsel.NewTuningDaemon(cfg)
	if err != nil {
		return nil, err
	}
	if fresh, err := d.Fresh(); err != nil || !fresh {
		d.Stop()
		return nil, fmt.Errorf("journal in %s is not fresh (%v)", dir, err)
	}
	d.Start()
	return &liveDaemon{d: d, srv: httptest.NewServer(d.Handler()), clock: clock, cfg: cfg}, nil
}

func (l *liveDaemon) stop() {
	l.srv.Close()
	l.d.Stop()
}

// daemonSetup reads the schema and starts a daemon on a fresh journal: what
// an operator waits for before the first observation is accepted. Stopping
// the daemon is not part of it.
func daemonSetup(r *runner) (*indexsel.Workload, error) {
	n := 0
	stop := func(l *liveDaemon) {
		l.stop()
		os.RemoveAll(l.cfg.Dir)
	}
	l, err := setup(r, func() (*liveDaemon, error) {
		schema, err := readSchema(r)
		if err != nil {
			return nil, err
		}
		n++
		return startDaemon(r, schema, filepath.Join(r.dir, fmt.Sprintf("setup-%d", n)), time.Unix(daemonStartUnix, 0), nil)
	}, stop)
	if err != nil {
		return nil, err
	}
	stop(l)
	return l.cfg.Schema, nil
}

// What the daemon did with a batch.
const (
	batchChecked = iota // ingested it and ran the drift check
	batchBackoff        // ingested it but skipped the check, backing off a vetoed or failed retune
	batchRetune         // ingested it and retuned
)

// batchTiming is one posted batch: POST to 202, then Flush to return.
type batchTiming struct {
	post, flush time.Duration
	kind        int
}

func (b batchTiming) total() time.Duration { return b.post + b.flush }

type passResult struct {
	batches   []batchTiming
	obs       int
	costRatio float64 // mean over phases of the deployed set's cost ratio at phase end
	deployed  []string
	journal   int64              // journal and state bytes after the pass
	metrics   map[string]float64 // scraped /metrics deltas over the pass
}

const (
	cRetunes   = "indexsel_daemon_retunes_total"
	cApplied   = "indexsel_daemon_deltas_applied_total"
	cRejected  = "indexsel_daemon_deltas_rejected_total"
	cFailures  = "indexsel_daemon_retune_failures_total"
	cThrottled = "indexsel_daemon_throttled_total"
)

var daemonCounters = []string{cRetunes, cApplied, cRejected, cFailures, cThrottled}

// scrape reads the daemon counters from the /metrics endpoint.
func scrape(l *liveDaemon) (map[string]float64, error) {
	resp, err := l.srv.Client().Get(l.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	for _, c := range daemonCounters {
		if _, ok := out[c]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", c)
		}
	}
	return out, sc.Err()
}

// backingOff asks /status whether the daemon is waiting out a retry backoff
// at the current clock, in which case its last batch skipped the drift
// check.
func backingOff(l *liveDaemon) (bool, error) {
	resp, err := l.srv.Client().Get(l.srv.URL + "/status")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var st indexsel.TuningStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return false, fmt.Errorf("/status: %w", err)
	}
	return st.NextTryAt != "", nil
}

// daemonPass replays one stream into a fresh daemon, then stops it and
// checks that the journal recovers exactly the deployed set.
func daemonPass(r *runner, schema *indexsel.Workload, phases []phase, name string, tune func(*indexsel.DaemonConfig)) (*passResult, error) {
	l, err := startDaemon(r, schema, filepath.Join(r.dir, name), phases[0].at, tune)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			l.stop()
		}
	}()
	before, err := scrape(l)
	if err != nil {
		return nil, err
	}
	retunes := indexsel.DefaultRegistry().Counter(cRetunes, "")
	failures := indexsel.DefaultRegistry().Counter(cFailures, "")
	client := l.srv.Client()
	res := &passResult{}
	for _, ph := range phases {
		l.clock.set(ph.at)
		for _, body := range ph.batches {
			rBefore, fBefore := retunes.Value(), failures.Value()
			id, end := r.open("daemon.batch")
			_, post := r.openUnder(id, "service.post")
			start := time.Now()
			resp, err := client.Post(l.srv.URL+"/observe", "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			posted := time.Now()
			post()
			_, flush := r.openUnder(id, "service.flush")
			l.d.Flush()
			b := batchTiming{post: posted.Sub(start), flush: time.Since(posted)}
			flush()
			end()
			if err != nil {
				return nil, err
			}
			r.attempt(resp.StatusCode != http.StatusAccepted)
			switch backoff, err := backingOff(l); {
			case err != nil:
				return nil, err
			case retunes.Value() > rBefore:
				b.kind = batchRetune
				r.attempt(failures.Value() > fBefore)
			case backoff:
				b.kind = batchBackoff
			}
			res.batches = append(res.batches, b)
		}
		res.obs += ph.obs
		adv := indexsel.NewAdvisor(ph.w)
		cost, _ := adv.Evaluate(l.d.Deployed())
		base, _ := adv.Evaluate(indexsel.Selection{})
		res.costRatio += cost / base / float64(len(phases))
		if err := r.resetup(); err != nil {
			return nil, err
		}
	}
	after, err := scrape(l)
	if err != nil {
		return nil, err
	}
	res.metrics = map[string]float64{}
	for _, c := range daemonCounters {
		res.metrics[c] = after[c] - before[c]
	}
	r.check(res.metrics[cFailures] == 0, "%v retunes failed", res.metrics[cFailures])
	for _, k := range l.d.Deployed().Sorted() {
		res.deployed = append(res.deployed, k.Key())
	}
	l.stop()
	stopped = true

	for _, f := range []string{"journal.jsonl", "state.jsonl"} {
		if fi, err := os.Stat(filepath.Join(l.cfg.Dir, f)); err == nil {
			res.journal += fi.Size()
		}
	}
	// Reopen the journal the way a restarted daemon would.
	cfg := l.cfg
	cfg.ApplyHook, cfg.WrapSource = nil, nil
	d, err := indexsel.NewTuningDaemon(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := d.Resume()
	d.Stop()
	if err != nil {
		return nil, fmt.Errorf("recovering the journal: %w", err)
	}
	r.check(strings.Join(rep.Deployed, ";") == strings.Join(res.deployed, ";"),
		"journal recovered %d indexes, the daemon had %d deployed", len(rep.Deployed), len(res.deployed))
	return res, os.RemoveAll(l.cfg.Dir)
}

// batchMS returns the chosen part, in milliseconds, of the batches of kind.
func batchMS(bs []batchTiming, kind int, part func(batchTiming) time.Duration) []float64 {
	var out []float64
	for _, b := range bs {
		if b.kind == kind {
			out = append(out, float64(part(b))/float64(time.Millisecond))
		}
	}
	return out
}

func measureDaemon(r *runner) error {
	schema, err := daemonSetup(r)
	if err != nil {
		return err
	}
	streams, err := loadStreams(r, schema)
	if err != nil {
		return err
	}
	// Whole rounds over every stream only, so that every run averages the
	// same streams: another round starts while the time left could hold one.
	var first, all []*passResult
	start := time.Now()
	for round := 0; round == 0 || time.Until(start.Add(r.seconds)) >= time.Since(start)/time.Duration(round); round++ {
		for k, phases := range streams {
			p, err := daemonPass(r, schema, phases, "journal", nil)
			if err != nil {
				return err
			}
			if round == 0 {
				first = append(first, p)
			} else {
				r.check(p.costRatio == first[k].costRatio && strings.Join(p.deployed, ";") == strings.Join(first[k].deployed, ";"),
					"stream %d deployed differently in round %d", k, round+1)
			}
			all = append(all, p)
		}
	}
	var batches []batchTiming
	var obs int
	var costRatio, retunes, applied float64
	for _, p := range all {
		batches = append(batches, p.batches...)
		obs += p.obs
	}
	for _, p := range first {
		costRatio += p.costRatio / float64(len(first))
		retunes += p.metrics[cRetunes]
		applied += p.metrics[cApplied]
	}
	checked := batchMS(batches, batchChecked, batchTiming.total)
	if len(checked) == 0 {
		return fmt.Errorf("no batch ran the drift check")
	}
	var busy float64
	for _, b := range batches {
		busy += b.total().Seconds()
	}
	backoff := batchMS(batches, batchBackoff, batchTiming.total)
	// Every batch that did not retune, checked or backing off.
	steady := append(append([]float64(nil), checked...), backoff...)
	r.set(mLatency, percentile(steady, 50), "ms")
	r.set(mThroughput, float64(obs)/busy, "1/s")
	r.timing("batch_checked_ms", checked, "ms")
	r.timing("batch_backoff_ms", backoff, "ms")
	r.res.Notes["batch_p50_ms"] = note{Value: percentile(steady, 50), Unit: "ms", N: len(steady)}
	if p, ok := tailPercentile(len(steady)); ok && p >= 99 {
		r.res.Notes["batch_p99_ms"] = note{Value: percentile(steady, 99), Unit: "ms", N: len(steady)}
	}
	r.timing("retune_s", scale(batchMS(batches, batchRetune, batchTiming.total), 1e-3), "s")
	r.note("daemon_cost_ratio", costRatio, "ratio")
	r.note("streams", float64(len(streams)), "count")
	r.note("rounds", float64(len(all)/len(streams)), "count")
	r.note("retunes_per_round", retunes, "count")
	r.note("applied_per_round", applied, "count")
	return nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// applyClock records the times of the daemon's ApplyHook calls: once when
// an apply's intent is durable (opsDone 0), then after each fsync'd op.
type applyClock struct {
	mu    sync.Mutex
	marks [][]time.Time // one slice per apply
}

func (a *applyClock) hook(opsDone int) error {
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if opsDone == 0 || len(a.marks) == 0 {
		a.marks = append(a.marks, nil)
	}
	a.marks[len(a.marks)-1] = append(a.marks[len(a.marks)-1], now)
	return nil
}

// sources collects the timed cost model of every retune.
type sources struct {
	mu  sync.Mutex
	all []*timedSource
}

func (s *sources) wrap(src whatif.Source) whatif.Source {
	t := &timedSource{src: src}
	s.mu.Lock()
	s.all = append(s.all, t)
	s.mu.Unlock()
	return t
}

// traceDaemon replays the first stream twice, plainly and with the
// daemon's hooks timing retunes and applies, then replays its observations
// into a private drift window to time the per-batch drift work.
func traceDaemon(r *runner) error {
	schema, err := daemonSetup(r)
	if err != nil {
		return err
	}
	streams, err := loadStreams(r, schema)
	if err != nil {
		return err
	}
	phases := streams[0]
	plain, err := daemonPass(r, schema, phases, "journal", nil)
	if err != nil {
		return err
	}
	var applies applyClock
	var retuneSrcs sources
	traced, err := daemonPass(r, schema, phases, "journal-traced", func(c *indexsel.DaemonConfig) {
		c.ApplyHook = applies.hook
		c.WrapSource = retuneSrcs.wrap
	})
	if err != nil {
		return err
	}
	r.check(traced.costRatio == plain.costRatio, "the traced pass deployed differently")

	var fsyncMS, applyMS, busy []float64
	for _, marks := range applies.marks {
		for i := 1; i < len(marks); i++ {
			fsyncMS = append(fsyncMS, float64(marks[i].Sub(marks[i-1]))/float64(time.Millisecond))
		}
		applyMS = append(applyMS, float64(marks[len(marks)-1].Sub(marks[0]))/float64(time.Millisecond))
	}
	for _, s := range retuneSrcs.all {
		busy = append(busy, s.busyTime().Seconds())
	}
	observeUS, checkMS, templates := replayDrift(r, schema, phases, traced.batches)
	applied := traced.metrics[cApplied]

	part := func(f func(batchTiming) time.Duration) float64 {
		return median(batchMS(traced.batches, batchChecked, f))
	}
	r.set("workload.read_s", median(r.tr.seconds("workload.read")), "s")
	r.set("service.post_ms_p50", part(func(b batchTiming) time.Duration { return b.post }), "ms")
	r.set("service.flush_ms_p50", part(func(b batchTiming) time.Duration { return b.flush }), "ms")
	r.set("drift.observe_us", observeUS, "us")
	r.set("drift.check_ms", median(checkMS), "ms")
	r.set("drift.window_templates", median(templates), "count")
	r.set("costmodel.retune_busy_s", median(busy), "s")
	r.set("service.op_fsync_ms_p50", median(fsyncMS), "ms")
	r.set("service.apply_ms_p50", median(applyMS), "ms")
	r.set("service.journal_bytes_per_apply", float64(traced.journal)/max(1, applied), "bytes")
	r.set("service.retunes", traced.metrics[cRetunes], "count")
	r.set("service.applied", applied, "count")
	r.set("service.rejected", traced.metrics[cRejected], "count")
	r.set("service.failures", traced.metrics[cFailures], "count")
	r.set("service.throttled", traced.metrics[cThrottled], "count")
	r.set("telemetry.overhead", part(batchTiming.total)/median(batchMS(plain.batches, batchChecked, batchTiming.total)), "ratio")
	r.timing("batch_checked_ms", batchMS(plain.batches, batchChecked, batchTiming.total), "ms")
	return nil
}

// replayDrift replays a stream into a private drift window with the same
// clock, timing what the daemon does on every batch it checks: Observe per
// observation, then the drift check (Snapshot, cost model, profile,
// Compare). The baseline moves at the batches on which the daemon retuned.
func replayDrift(r *runner, schema *indexsel.Workload, phases []phase, batches []batchTiming) (observeUS float64, checkMS, templates []float64) {
	win := drift.NewWindow(schema, drift.WindowConfig{HalfLife: time.Hour})
	var baseline *drift.Profile
	var observe time.Duration
	nobs, bi := 0, 0
	for _, ph := range phases {
		for _, body := range ph.batches {
			var obs []drift.Observation
			for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
				var o drift.Observation
				json.Unmarshal(line, &o) // the stream parsed when it was loaded
				obs = append(obs, o)
			}
			end := r.span("drift.observe")
			start := time.Now()
			for _, o := range obs {
				win.Observe(o, o.At)
			}
			observe += time.Since(start)
			end()
			nobs += len(obs)

			end = r.span("drift.check")
			start = time.Now()
			snap := win.Snapshot(ph.at)
			model := costmodel.New(snap, costmodel.SingleIndex)
			cur := drift.NewProfile(snap, func(q indexsel.Query) float64 { return model.BaseCost(q) })
			if baseline != nil {
				drift.Compare(baseline, cur)
			}
			checkMS = append(checkMS, float64(time.Since(start))/float64(time.Millisecond))
			end()
			if batches[bi].kind == batchRetune {
				baseline = cur
			}
			bi++
			templates = append(templates, float64(win.Len()))
		}
	}
	return float64(observe) / float64(time.Microsecond) / float64(nobs), checkMS, templates
}
