package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// fakeClock is the seeded, manually advanced clock every daemon decision
// path runs on in these tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func daemonSchema(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.GenConfig{
		Tables: 2, AttrsPerTable: 5, QueriesPerTable: 4,
		Seed: 21, RowsBase: 50000, MaxQueryAttrs: 3, MaxFreq: 40,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

// observations renders queries as a JSON array body.
func observations(t *testing.T, w *workload.Workload, qs []workload.Query) string {
	t.Helper()
	batch := make([]drift.Observation, 0, len(qs))
	for _, q := range qs {
		names := make([]string, len(q.Attrs))
		for i, a := range q.Attrs {
			names[i] = w.Attr(a).Name
		}
		batch = append(batch, drift.Observation{
			Table: w.Tables[q.Table].Name, Attrs: names,
			Kind: q.Kind.String(), Count: q.Freq,
		})
	}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func post(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/observe", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func status(t *testing.T, h http.Handler) telemetry.DaemonState {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/status", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st telemetry.DaemonState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status decode: %v (%s)", err, rec.Body.String())
	}
	return st
}

func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := d.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	d.Start()
	t.Cleanup(d.Stop)
	return d
}

func TestDaemonEndToEnd(t *testing.T) {
	schema := daemonSchema(t)
	clock := newFakeClock()
	d := startDaemon(t, Config{
		Schema: schema, Dir: t.TempDir(),
		Clock: clock.Now, Seed: 1,
		DriftThreshold: 0.15, HalfLife: time.Hour,
	})
	h := d.Handler()

	if rec := post(t, h, observations(t, schema, schema.Queries)); rec.Code != http.StatusAccepted {
		t.Fatalf("observe = %d: %s", rec.Code, rec.Body.String())
	}
	d.Flush()

	// First tune: no baseline, so ingestion triggers selection directly.
	deployed := d.Deployed()
	if len(deployed) == 0 {
		t.Fatal("no indexes deployed after first tune")
	}
	recs, err := d.Store().Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0].Type != RecIntent || recs[1].Type != RecCommit {
		t.Fatalf("journal after first tune: %+v", recs)
	}
	st := status(t, h)
	if !st.Baseline || st.Failures != 0 || len(st.Deployed) != len(deployed) {
		t.Fatalf("status after first tune: %+v", st)
	}

	// Stable traffic: same mix again scores no drift, no second tune.
	if rec := post(t, h, observations(t, schema, schema.Queries)); rec.Code != http.StatusAccepted {
		t.Fatal("second observe refused")
	}
	d.Flush()
	recs2, _ := d.Store().Records()
	if len(recs2) != len(recs) {
		t.Fatalf("stable traffic re-tuned: %d -> %d records", len(recs), len(recs2))
	}

	// Drift phase: a structurally different mix several half-lives later.
	drifted, err := workload.PerturbTemplates(schema, 99, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(6 * time.Hour)
	if rec := post(t, h, observations(t, drifted, drifted.Queries)); rec.Code != http.StatusAccepted {
		t.Fatal("drift observe refused")
	}
	d.Flush()
	recs3, _ := d.Store().Records()
	if len(recs3) <= len(recs) {
		t.Fatal("drift did not trigger a re-tune")
	}
	// Whatever happened (apply or reject), the journal must be coherent
	// and the deployed set recoverable bit-identically after restart.
	deployedBefore := d.Store().Deployed()
	d.Stop()

	s2 := openStore(t, d.Store().Dir())
	defer s2.Close()
	rep := mustRecover(t, s2)
	if !setsEqual(rep.Deployed, deployedBefore) {
		t.Fatalf("restart deployed %v != live %v", rep.Deployed, deployedBefore)
	}
}

// New refuses a reconfiguration price that is not a finite, non-negative
// number, naming the field, before it touches the journal directory.
func TestNewRejectsInvalidReconfigPrice(t *testing.T) {
	schema := daemonSchema(t)
	for _, price := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -5} {
		d, err := New(Config{Schema: schema, Dir: t.TempDir(), ReconfigPerByte: price})
		if err == nil {
			d.store.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "ReconfigPerByte") {
			t.Errorf("ReconfigPerByte %v: error %v; want one naming the field", price, err)
		}
	}
}

func TestDaemonBackpressure(t *testing.T) {
	schema := daemonSchema(t)
	d, err := New(Config{
		Schema: schema, Dir: t.TempDir(),
		Clock: newFakeClock().Now, QueueCap: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The loop is intentionally NOT started: the queue fills and stays full.
	defer d.store.Close()
	h := d.Handler()
	body := observations(t, schema, schema.Queries[:1])

	if rec := post(t, h, body); rec.Code != http.StatusAccepted {
		t.Fatalf("first batch = %d", rec.Code)
	}
	rec := post(t, h, body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestDaemonMalformedObservations(t *testing.T) {
	schema := daemonSchema(t)
	d := startDaemon(t, Config{
		Schema: schema, Dir: t.TempDir(), Clock: newFakeClock().Now,
	})
	h := d.Handler()

	// JSONL body: one valid line, one schema-invalid, one unparseable.
	valid := observations(t, schema, schema.Queries[:1])
	var batch []drift.Observation
	json.Unmarshal([]byte(valid), &batch)
	line, _ := json.Marshal(batch[0])
	body := string(line) + "\n" +
		`{"table":"NOPE","attrs":["NOPE"],"count":5}` + "\n" +
		`{not json at all` + "\n"
	rec := post(t, h, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("JSONL batch = %d: %s", rec.Code, rec.Body.String())
	}
	d.Flush()
	st := status(t, h)
	if st.Observed != 1 || st.Malformed != 2 {
		t.Fatalf("observed=%d malformed=%d, want 1/2", st.Observed, st.Malformed)
	}

	// A garbage body is never fatal: its lines land as malformed
	// observations, counted and dropped.
	if rec := post(t, h, "!!"); rec.Code != http.StatusAccepted {
		t.Fatalf("garbage body = %d, want 202", rec.Code)
	}
	d.Flush()
	if st := status(t, h); st.Malformed != 3 {
		t.Fatalf("malformed = %d, want 3 after garbage body", st.Malformed)
	}
}

// panicWrap wraps the cost source so the OnCall-th what-if call panics —
// every retune gets a fresh wrapper, so every attempt panics.
func panicWrap(src whatif.Source) whatif.Source {
	return &faultinject.Source{Src: src, Class: faultinject.Panic, OnCall: 1}
}

// TestDaemonDegradation is the acceptance-criteria degradation test:
// fault-injected panics during re-selection never change the deployed set,
// surface structured worker-panic errors in the journal, and back off
// exponentially with deterministic (seeded) jitter.
func TestDaemonDegradation(t *testing.T) {
	schema := daemonSchema(t)

	run := func() (nextTries []string, deployed []string, recs []Record) {
		clock := newFakeClock()
		d := startDaemon(t, Config{
			Schema: schema, Dir: t.TempDir(),
			Clock: clock.Now, Seed: 42,
			WrapSource:  panicWrap,
			BackoffBase: time.Second, BackoffMax: time.Minute,
		})
		h := d.Handler()
		body := observations(t, schema, schema.Queries)
		for i := 0; i < 3; i++ {
			if rec := post(t, h, body); rec.Code != http.StatusAccepted {
				t.Fatalf("observe %d = %d", i, rec.Code)
			}
			d.Flush()
			st := status(t, h)
			if st.Failures != i+1 {
				t.Fatalf("attempt %d: failures = %d, want %d", i, st.Failures, i+1)
			}
			if st.NextTryAt == "" {
				t.Fatalf("attempt %d: no backoff scheduled", i)
			}
			nextTries = append(nextTries, st.NextTryAt)

			// Re-flushing before the backoff expires must NOT retry.
			if rec := post(t, h, body); rec.Code != http.StatusAccepted {
				t.Fatal("observe refused")
			}
			d.Flush()
			if st2 := status(t, h); st2.Failures != i+1 {
				t.Fatalf("retried before backoff expiry: failures = %d", st2.Failures)
			}
			clock.Advance(5 * time.Minute) // past any capped backoff
		}
		deployed = d.Store().Deployed()
		recs, _ = d.Store().Records()
		return
	}

	tries, deployed, recs := run()
	if len(deployed) != 0 {
		t.Fatalf("failed retunes changed the deployed set: %v", deployed)
	}
	if len(recs) != 3 {
		t.Fatalf("journal has %d records, want 3 failures", len(recs))
	}
	for _, r := range recs {
		if r.Type != RecFailure {
			t.Fatalf("record type %q, want failure", r.Type)
		}
		if r.PanicOp == "" || r.Err == "" {
			t.Fatalf("failure record lacks structured panic info: %+v", r)
		}
	}

	// Exponential growth: with the clock advanced a fixed 5m+ between
	// attempts, each backoff (base·2^n·jitter, jitter in [1,1.2)) strictly
	// exceeds the previous one.
	parse := func(s string) time.Time {
		ts, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatalf("bad next_try_at %q: %v", s, err)
		}
		return ts
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	prev := time.Duration(0)
	for i, s := range tries {
		// Attempt i happened at base + i*5m (one clock advance per loop).
		at := base.Add(time.Duration(i) * 5 * time.Minute)
		backoff := parse(s).Sub(at)
		if backoff <= prev {
			t.Fatalf("backoff %d = %v, not greater than previous %v", i, backoff, prev)
		}
		if backoff > 2*time.Minute {
			t.Fatalf("backoff %d = %v exceeds cap+jitter", i, backoff)
		}
		prev = backoff
	}

	// Determinism: the same seed replays the same jittered schedule.
	tries2, _, _ := run()
	for i := range tries {
		if tries[i] != tries2[i] {
			t.Fatalf("seeded backoff not deterministic: %q vs %q", tries[i], tries2[i])
		}
	}
}

// TestDaemonNaNInjectionHarmless: saturating the what-if source with NaNs
// must not deploy anything pathological — sanitization flattens costs, the
// plan comes out empty or guardrail-checked, and the daemon stays up.
func TestDaemonNaNInjectionHarmless(t *testing.T) {
	schema := daemonSchema(t)
	d := startDaemon(t, Config{
		Schema: schema, Dir: t.TempDir(),
		Clock: newFakeClock().Now, Seed: 7,
		WrapSource: func(src whatif.Source) whatif.Source {
			return &faultinject.Source{Src: src, Class: faultinject.NaN, Rate: 1}
		},
	})
	h := d.Handler()
	if rec := post(t, h, observations(t, schema, schema.Queries)); rec.Code != http.StatusAccepted {
		t.Fatal("observe refused")
	}
	d.Flush()
	st := status(t, h)
	// Whatever the outcome (empty plan or rejection), nothing may have
	// been deployed off NaN costs and the daemon must still be serving.
	if len(st.Deployed) != 0 {
		t.Fatalf("NaN-cost retune deployed indexes: %v", st.Deployed)
	}
}

// TestDaemonCrashMidApplyRecovers: a crash injected between state ops is
// rolled back in-process; the deployed set reverts to prev and the journal
// records the rollback.
func TestDaemonCrashMidApplyRecovers(t *testing.T) {
	schema := daemonSchema(t)
	var aborts int
	var mu sync.Mutex
	cfg := Config{
		Schema: schema, Dir: t.TempDir(),
		Clock: newFakeClock().Now, Seed: 3,
		ApplyHook: func(opsDone int) error {
			mu.Lock()
			defer mu.Unlock()
			if aborts == 0 && opsDone == 1 {
				aborts++
				return errors.New("injected mid-apply crash")
			}
			return nil
		},
	}
	d := startDaemon(t, cfg)
	h := d.Handler()
	if rec := post(t, h, observations(t, schema, schema.Queries)); rec.Code != http.StatusAccepted {
		t.Fatal("observe refused")
	}
	d.Flush()

	mu.Lock()
	crashed := aborts > 0
	mu.Unlock()
	if !crashed {
		t.Skip("first tune selected fewer than 1 op; nothing to crash")
	}
	if len(d.Deployed()) != 0 {
		// The daemon's in-memory deployed set must match the rolled-back
		// store, i.e. still empty.
		t.Fatalf("mid-apply crash left daemon deployed = %v", d.Deployed())
	}
	wantTypes := map[string]bool{}
	recs, _ := d.Store().Records()
	for _, r := range recs {
		wantTypes[r.Type] = true
	}
	if !wantTypes[RecIntent] || !wantTypes[RecRollback] {
		t.Fatalf("journal missing intent/rollback: %+v", recs)
	}
	if wantTypes[RecCommit] {
		t.Fatal("crashed delta was committed")
	}
	if setsEqual(d.Store().Deployed(), nil) == false {
		t.Fatalf("store deployed = %v, want empty", d.Store().Deployed())
	}
}
