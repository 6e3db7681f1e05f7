package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// vetoBudget is a fixed budget under which the first tune of daemonSchema's
// queries deploys indexes and the vetoedMix that follows is rejected: the
// swap it needs would regress the first mix's heavy queries.
const vetoBudget = 800_000

// vetoedMix is a heavier mix over mostly other templates.
func vetoedMix(t *testing.T, schema *workload.Workload) string {
	t.Helper()
	b, err := workload.PerturbTemplates(schema, 90, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	qs := append([]workload.Query(nil), b.Queries...)
	for i := range qs {
		qs[i].Freq *= 20
	}
	return observations(t, b, qs)
}

// legacyStatus is the /status body as the daemon built it before the
// progress cell: read under d.mu at request time.
func legacyStatus(t *testing.T, d *Daemon) []byte {
	t.Helper()
	type status struct {
		Deployed   []string    `json:"deployed"`
		Window     int         `json:"window_templates"`
		Weight     float64     `json:"window_weight"`
		Observed   int64       `json:"observations"`
		Malformed  int64       `json:"malformed"`
		Baseline   bool        `json:"baseline"`
		DriftScore drift.Score `json:"drift_score"`
		Failures   int         `json:"consecutive_failures"`
		NextTryAt  string      `json:"next_try_at,omitempty"`
	}
	now := d.clock()
	d.mu.Lock()
	st := status{
		Deployed:   keysOf(d.deployed.Sorted()),
		Window:     d.win.Len(),
		Weight:     d.win.TotalWeight(now),
		Observed:   d.observed,
		Malformed:  d.malformed,
		Baseline:   d.baseline != nil,
		DriftScore: d.lastScore,
		Failures:   d.failCount,
	}
	if !d.nextTryAt.IsZero() && now.Before(d.nextTryAt) {
		st.NextTryAt = d.nextTryAt.UTC().Format(time.RFC3339Nano)
	}
	d.mu.Unlock()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func getJSON(t *testing.T, h http.Handler, path string) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("GET %s: %v (%s)", path, err, rec.Body.String())
	}
	return m
}

// sameStatus reports whether a /status body carries exactly the legacy
// fields and values. The window weight is a float sum over a Go map, so
// two evaluations may differ in the last bits; it is compared to 1e-12.
func sameStatus(got map[string]any, legacy []byte) bool {
	var want map[string]any
	if err := json.Unmarshal(legacy, &want); err != nil {
		return false
	}
	gw, _ := got["window_weight"].(float64)
	ww, _ := want["window_weight"].(float64)
	if math.Abs(gw-ww) > 1e-12*math.Max(1, math.Abs(ww)) {
		return false
	}
	got["window_weight"], want["window_weight"] = 0, 0
	return reflect.DeepEqual(got, want)
}

// On a fixed fake clock /status keeps the legacy handler's field names and
// values through ingest, apply, a vetoed retune and its backoff, and a
// resume; next_try_at is still judged against the clock at read time.
func TestDaemonStatusMatchesLegacyHandler(t *testing.T) {
	schema := daemonSchema(t)
	clock := newFakeClock()
	cfg := Config{Schema: schema, Dir: t.TempDir(), Clock: clock.Now, Seed: 1, BudgetBytes: vetoBudget}
	d := startDaemon(t, cfg)
	h := d.Handler()
	check := func(d *Daemon, stage string) map[string]any {
		t.Helper()
		got := getJSON(t, h, "/status")
		if want := legacyStatus(t, d); !sameStatus(got, want) {
			t.Fatalf("%s: /status %v, legacy %s", stage, got, want)
		}
		return got
	}
	check(d, "fresh")

	post(t, h, observations(t, schema, schema.Queries))
	d.Flush()
	if st := check(d, "apply"); len(st["deployed"].([]any)) == 0 {
		t.Fatalf("first tune deployed nothing: %v", st)
	}

	post(t, h, vetoedMix(t, schema))
	d.Flush()
	st := check(d, "vetoed")
	if st["next_try_at"] == nil || st["consecutive_failures"] != 1.0 {
		t.Fatalf("vetoed retune did not back off: %v", st)
	}
	if recs, _ := d.Store().Records(); len(recs) != 3 || recs[2].Type != RecReject {
		t.Fatalf("journal %+v, want intent, commit, reject", recs)
	}

	post(t, h, observations(t, schema, schema.Queries[:2]))
	d.Flush()
	check(d, "ingest during backoff")

	clock.Advance(time.Minute) // past the backoff, with no batch since
	if st := getJSON(t, h, "/status"); st["next_try_at"] != nil {
		t.Fatalf("next_try_at %v still reported after the clock passed it", st["next_try_at"])
	}

	d.Stop()
	d2 := startDaemon(t, cfg)
	h = d2.Handler()
	if st := check(d2, "resume"); len(st["deployed"].([]any)) == 0 {
		t.Fatalf("resume lost the deployed set: %v", st)
	}
	// A daemon superseded by a newer one in the same process still serves
	// its own state, not the newer one's.
	if st := getJSON(t, d.Handler(), "/status"); st["observations"] != float64(d.observed) || d.observed == d2.observed {
		t.Fatalf("superseded daemon /status %v, want its own %d observations", st, d.observed)
	}
}

// gatedSource blocks the first probe of any retune until release closes.
type gatedSource struct {
	whatif.Source
	g *gate
}

type gate struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (s gatedSource) wait() {
	s.g.once.Do(func() {
		close(s.g.entered)
		<-s.g.release
	})
}

func (s gatedSource) BaseCost(q workload.Query) float64 {
	s.wait()
	return s.Source.BaseCost(q)
}

func (s gatedSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	s.wait()
	return s.Source.CostWithIndex(q, k)
}

func (s gatedSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	s.wait()
	return s.Source.QueryCost(q, sel)
}

func (s gatedSource) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	s.wait()
	return s.Source.MaintenanceCost(q, k)
}

func (s gatedSource) IndexSize(k workload.Index) int64 {
	s.wait()
	return s.Source.IndexSize(k)
}

// /status and /progress answer while a retune is blocked inside its cost
// source, and show the daemon retuning.
func TestDaemonStatusDuringRetune(t *testing.T) {
	schema := daemonSchema(t)
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	d := startDaemon(t, Config{
		Schema: schema, Dir: t.TempDir(), Clock: newFakeClock().Now,
		WrapSource: func(src whatif.Source) whatif.Source { return gatedSource{src, g} },
	})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(g.release) }) }
	t.Cleanup(release) // runs before the daemon's Stop
	h := d.Handler()
	post(t, h, observations(t, schema, schema.Queries))
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("retune never probed its cost source")
	}

	for _, path := range []string{"/status", "/progress"} {
		got := make(chan map[string]any, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			var m map[string]any
			json.Unmarshal(rec.Body.Bytes(), &m)
			got <- m
		}()
		select {
		case m := <-got:
			if path == "/progress" {
				m, _ = m["daemon"].(map[string]any)
			}
			if m["retuning"] != true || m["observations"] != float64(len(schema.Queries)) {
				t.Fatalf("GET %s during a retune: %v", path, m)
			}
		case <-time.After(time.Second):
			t.Fatalf("GET %s did not return within 1s of a blocked retune", path)
		}
	}

	release()
	d.Flush()
	st := status(t, h)
	if st.Retuning || len(st.Deployed) == 0 {
		t.Fatalf("after the retune: %+v", st)
	}
}

// A journal append that fails is counted as one retune failure and
// recovered in place, so the journal stays readable: a later recovery
// repairs nothing and resumes the deployed set. It covers both appends a
// retune without an apply makes: the reject record of a vetoed retune and
// the failure record of a re-selection that failed.
func TestDaemonJournalWriteFailureRecovered(t *testing.T) {
	schema := daemonSchema(t)
	for _, tc := range []struct {
		name         string
		wrap         func(whatif.Source) whatif.Source
		rejected     int64
		wantDeployed bool
	}{
		{name: "reject", rejected: 1, wantDeployed: true},
		{name: "failure", wrap: panicWrap},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := startDaemon(t, Config{Schema: schema, Dir: dir, Clock: newFakeClock().Now, Seed: 1, BudgetBytes: vetoBudget, WrapSource: tc.wrap})
			h := d.Handler()
			body := vetoedMix(t, schema)
			if tc.wantDeployed {
				post(t, h, observations(t, schema, schema.Queries))
				d.Flush()
			}
			deployed := d.Store().Deployed()
			if (len(deployed) != 0) != tc.wantDeployed {
				t.Fatalf("setup deployed %v", deployed)
			}

			// Swap the journal for a read-only handle: the append fails.
			// The loop is idle between Flush and the next post, and both
			// hand off through its queue.
			writable := d.store.journal
			ro, err := os.Open(writable.Name())
			if err != nil {
				t.Fatal(err)
			}
			d.store.journal = ro
			failures, rejected := d.mFailures.Value(), d.mRejected.Value()
			post(t, h, body)
			d.Flush()
			d.store.journal = writable
			ro.Close()
			if got := d.mRejected.Value() - rejected; got != tc.rejected {
				t.Fatalf("rejections counted %d, want %d", got, tc.rejected)
			}
			if got := d.mFailures.Value() - failures; got != 1 {
				t.Fatalf("failed %s append counted %d retune failures, want 1", tc.name, got)
			}
			if st := status(t, h); st.Failures != 1 {
				t.Fatalf("consecutive_failures = %d, want 1", st.Failures)
			}

			d.Stop()
			s := openStore(t, dir)
			defer s.Close()
			rep := mustRecover(t, s)
			if rep.TornJournal || rep.RolledBack != 0 || !setsEqual(rep.Deployed, deployed) {
				t.Fatalf("recovery after the failed append: %+v, want nothing repaired and %v deployed", rep, deployed)
			}
		})
	}
}

// The per-batch publish allocates nothing: an empty batch still runs the
// whole ingest and retune-check publish path.
func TestDaemonPublishAllocatesNothing(t *testing.T) {
	schema := daemonSchema(t)
	d, err := New(Config{Schema: schema, Dir: t.TempDir(), Clock: newFakeClock().Now, Seed: 1, BudgetBytes: vetoBudget})
	if err != nil {
		t.Fatal(err)
	}
	defer d.store.Close()
	if _, err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{observations(t, schema, schema.Queries), vetoedMix(t, schema)} {
		var batch []drift.Observation
		if err := json.Unmarshal([]byte(body), &batch); err != nil {
			t.Fatal(err)
		}
		d.ingest(batch)
		d.maybeRetune()
	}
	st := d.prog.Snapshot()
	if len(st.Daemon.Deployed) == 0 || st.Daemon.NextTryAt == "" {
		t.Fatalf("setup did not deploy and back off: %+v", st.Daemon)
	}
	if a := testing.AllocsPerRun(100, func() {
		d.ingest(nil)
		d.maybeRetune()
	}); a != 0 {
		t.Fatalf("per-batch publish: %v allocs, want 0", a)
	}
}
