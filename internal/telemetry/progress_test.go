package telemetry

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// beginRun, step and finishRun publish the run section the way the advisor
// and core do.
func beginRun(strategy string, budget int64, deadline time.Time) *Progress {
	return BeginProgress(RunSection, nil, func(p *ProgressState) {
		p.Active, p.Strategy, p.StartedAt, p.BudgetBytes, p.Deadline = true, strategy, time.Now(), budget, deadline
	})
}

func step(run *Progress, n int, initial, best float64, mem, evaluated, cached, pruned int64) {
	run.Update(func(p *ProgressState) {
		p.Step, p.InitialCost, p.BestCost, p.MemoryBytes = n, initial, best, mem
		p.Evaluated, p.CacheServed, p.Pruned = evaluated, cached, pruned
	})
}

func finishRun(run *Progress, reason string, partial bool) {
	run.Update(func(p *ProgressState) {
		p.Active, p.Done, p.StopReason, p.Partial = false, true, reason, partial
	})
}

// beginFleet and fleetEdit publish the fleet section the way TuneFleet
// does.
func beginFleet(tenants, clusters int) *Progress {
	return BeginProgress(FleetSection, nil, func(p *ProgressState) {
		*p.Fleet = FleetState{Active: true, StartedAt: time.Now(), Tenants: tenants, Clusters: clusters, Queued: tenants}
	})
}

func fleetEdit(fleet *Progress, edit func(f *FleetState)) {
	fleet.Update(func(p *ProgressState) { edit(p.Fleet) })
}

func tenantStarted(f *FleetState) { f.Queued--; f.Running++ }
func tenantDone(f *FleetState)    { f.Running--; f.Completed++ }
func fleetFinished(f *FleetState) { f.Active, f.Done = false, true }

// beginDaemon publishes the daemon section the way the tuning daemon does.
func beginDaemon(clock func() time.Time) *Progress {
	return BeginProgress(DaemonSection, clock, func(p *ProgressState) {
		p.Daemon.Deployed = []string{}
	})
}

// The generation fence: a handle from an abandoned run must not clobber the
// state of the run that superseded it.
func TestProgressGenerationFence(t *testing.T) {
	stale := beginRun("Extend(H6)", 1000, time.Time{})
	fresh := beginRun("CoPhy", 2000, time.Time{})
	step(stale, 99, 1, 1, 1, 1, 1, 1)
	finishRun(stale, "cancelled", true)
	if st := ProgressSnapshot(); st.Strategy != "CoPhy" || st.Step != 0 || st.Done {
		t.Fatalf("stale handle clobbered live run: %+v", st)
	}
	step(fresh, 3, 100, 80, 512, 10, 2, 1)
	finishRun(fresh, "converged", false)
	st := ProgressSnapshot()
	if st.Step != 3 || !st.Done || st.Active || st.StopReason != "converged" {
		t.Fatalf("live run updates lost: %+v", st)
	}
	// The superseded writer still reads back its own run.
	if own := stale.Snapshot(); own.Step != 99 || own.StopReason != "cancelled" || own.Fleet != nil {
		t.Fatalf("stale handle lost its own state: %+v", own)
	}
	// Sections are fenced apart: beginning a run leaves the other sections'
	// writers live.
	fleet := beginFleet(2, 1)
	beginRun("Extend(H6)", 1, time.Time{})
	fleetEdit(fleet, tenantStarted)
	if f := ProgressSnapshot().Fleet; f == nil || f.Running != 1 {
		t.Fatalf("a run begin fenced the fleet writer: %+v", f)
	}
	fleetEdit(fleet, fleetFinished)
}

// Concurrent snapshot readers against a writing run — meaningful under
// -race, which the CI test job runs with.
func TestProgressConcurrentReads(t *testing.T) {
	run := beginRun("Extend(H6)", 1<<20, time.Now().Add(time.Minute))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := ProgressSnapshot()
				if st.Step < 0 || st.Evaluated < 0 {
					t.Error("torn progress snapshot")
					return
				}
			}
		}()
	}
	for n := 1; n <= 200; n++ {
		step(run, n, 1000, 1000-float64(n), int64(n)*64, int64(n)*3, int64(n), int64(n/2))
	}
	finishRun(run, "converged", false)
	close(stop)
	wg.Wait()
	if st := ProgressSnapshot(); st.Step != 200 || st.DeadlineRemainingSeconds == 0 {
		t.Fatalf("final snapshot %+v", st)
	}
}

// A construction step's update and a daemon batch's publish edit the cell
// in place and allocate nothing.
func TestProgressUpdateAllocatesNothing(t *testing.T) {
	run := beginRun("Extend(H6)", 4096, time.Time{})
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		n++
		step(run, n, 100, 90, 64, int64(n), 0, 0)
	}); a != 0 {
		t.Errorf("run step update: %v allocs, want 0", a)
	}
	finishRun(run, "converged", false)

	daemon := beginDaemon(time.Now)
	keys := []string{"t0(a)"}
	if a := testing.AllocsPerRun(100, func() {
		n++
		daemon.Update(func(p *ProgressState) {
			s := p.Daemon
			s.Deployed, s.Window, s.Observed, s.Retuning = keys, n, int64(n), false
		})
	}); a != 0 {
		t.Errorf("daemon publish: %v allocs, want 0", a)
	}
}

// /progress without parameters returns one JSON snapshot.
func TestProgressEndpointSnapshot(t *testing.T) {
	run := beginRun("Extend(H6)", 4096, time.Time{})
	step(run, 2, 100, 90, 128, 5, 1, 0)
	req := httptest.NewRequest("GET", "/progress", nil)
	rr := httptest.NewRecorder()
	NewMux(NewRegistry()).ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var st ProgressState
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad snapshot JSON: %v", err)
	}
	if !st.Active || st.Step != 2 || st.BestCost != 90 {
		t.Fatalf("snapshot %+v", st)
	}
	// The run fields stay at the top level of the document.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(rr.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"active", "done", "step", "best_cost", "evaluated"} {
		if _, ok := top[k]; !ok {
			t.Errorf("snapshot lacks top-level %q: %s", k, rr.Body.String())
		}
	}
	finishRun(run, "converged", false)
}

// /progress?stream=1 emits SSE events and terminates once the run is done.
func TestProgressEndpointStream(t *testing.T) {
	fleet := beginFleet(1, 0)
	fleetEdit(fleet, fleetFinished) // a finished fleet does not hold the stream open
	run := beginRun("Extend(H6)", 4096, time.Time{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(80 * time.Millisecond)
		step(run, 1, 100, 95, 64, 2, 0, 0)
		finishRun(run, "converged", false)
	}()

	last, events := streamProgress(t, nil)
	<-done
	if events == 0 {
		t.Fatal("stream produced no events")
	}
	if !last.Done || last.Active || last.StopReason != "converged" {
		t.Fatalf("stream did not end on the finished state: %+v", last)
	}
}

// streamProgress reads /progress?stream=1 until the server ends the stream,
// calling each (if non-nil) on every event, and returns the last event and
// the event count.
func streamProgress(t *testing.T, each func(ProgressState)) (ProgressState, int) {
	t.Helper()
	srv := httptest.NewServer(NewMux(NewRegistry()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/progress?stream=1&interval=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var events int
	var last ProgressState
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // the stream closing on Done ends this loop
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		last = ProgressState{}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if each != nil {
			each(last)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return last, events
}

func TestFleetProgressLifecycle(t *testing.T) {
	run := beginFleet(3, 2)
	st := ProgressSnapshot().Fleet
	if st == nil || !st.Active || st.Tenants != 3 || st.Clusters != 2 || st.Queued != 3 {
		t.Fatalf("begin state: %+v", st)
	}
	fleetEdit(run, tenantStarted)
	fleetEdit(run, tenantStarted)
	fleetEdit(run, tenantDone)
	if st = ProgressSnapshot().Fleet; st.Queued != 1 || st.Running != 1 || st.Completed != 1 {
		t.Fatalf("mid state: %+v", st)
	}
	fleetEdit(run, tenantStarted)
	fleetEdit(run, func(f *FleetState) { tenantDone(f); f.Failed++ })
	fleetEdit(run, tenantDone)
	fleetEdit(run, func(f *FleetState) {
		f.SharedCalls, f.SharedHits = 25, 75
		f.ResidentBytes, f.Evictions = 4096, 7
		fleetFinished(f)
	})
	st = ProgressSnapshot().Fleet
	if st.Active || !st.Done || st.Completed != 3 || st.Failed != 1 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("end state: %+v", st)
	}
	if st.SharedHitRate != 0.75 {
		t.Fatalf("hit rate %v, want 0.75", st.SharedHitRate)
	}
	if st.ResidentBytes != 4096 || st.Evictions != 7 {
		t.Fatalf("memory accounting: %+v", st)
	}
}

func TestFleetProgressStaleHandleFenced(t *testing.T) {
	stale := beginFleet(5, 1)
	fresh := beginFleet(8, 4)
	fleetEdit(stale, tenantStarted)
	fleetEdit(stale, fleetFinished)
	st := ProgressSnapshot().Fleet
	if st.Tenants != 8 || st.Running != 0 || st.Done {
		t.Fatalf("stale handle mutated fresh fleet: %+v", st)
	}
	if own := stale.Snapshot().Fleet; own.Tenants != 5 || own.Running != 1 || !own.Done {
		t.Fatalf("stale handle lost its own fleet: %+v", own)
	}
	fleetEdit(fresh, fleetFinished)
}

// The SSE stream keeps running across per-tenant run completions and only
// terminates once the fleet itself finishes, reporting fleet-level state.
func TestFleetProgressStream(t *testing.T) {
	fleet := beginFleet(2, 1)
	go func() {
		for i := 0; i < 2; i++ {
			time.Sleep(60 * time.Millisecond)
			fleetEdit(fleet, tenantStarted)
			run := beginRun("Extend(H6)", 4096, time.Time{})
			step(run, 1, 100, 90, 64, 2, 0, 0)
			finishRun(run, "converged", false)
			fleetEdit(fleet, tenantDone)
		}
		fleetEdit(fleet, func(f *FleetState) {
			f.SharedCalls, f.SharedHits = 10, 30
			fleetFinished(f)
		})
	}()

	var midFleet int
	last, events := streamProgress(t, func(st ProgressState) {
		if st.Fleet == nil {
			t.Fatalf("event without fleet state: %+v", st)
		}
		// Events after the first tenant's run finished but before the fleet
		// did prove the stream survives per-run Done flips.
		if st.Done && !st.Active && st.Fleet.Active {
			midFleet++
		}
	})
	if events < 2 {
		t.Fatalf("stream produced %d events", events)
	}
	if midFleet == 0 {
		t.Fatal("stream never observed a finished tenant run inside an active fleet")
	}
	f := last.Fleet
	if !f.Done || f.Active || f.Completed != 2 || f.Queued != 0 {
		t.Fatalf("stream did not end on the finished fleet: %+v", f)
	}
	if f.SharedHitRate != 0.75 {
		t.Fatalf("final hit rate %v, want 0.75", f.SharedHitRate)
	}
}

func TestDaemonProgressStaleHandleFenced(t *testing.T) {
	stale := beginDaemon(time.Now)
	fresh := beginDaemon(time.Now)
	stale.Update(func(p *ProgressState) { p.Daemon.Observed, p.Daemon.Retuning = 99, true })
	fresh.Update(func(p *ProgressState) { p.Daemon.Observed = 3 })
	if st := ProgressSnapshot().Daemon; st.Observed != 3 || st.Retuning {
		t.Fatalf("stale handle mutated the fresh daemon section: %+v", st)
	}
	if own := stale.Snapshot().Daemon; own.Observed != 99 || !own.Retuning {
		t.Fatalf("stale handle lost its own daemon section: %+v", own)
	}
	if own := fresh.Snapshot(); own.Daemon.Observed != 3 || own.Fleet != nil {
		t.Fatalf("fresh handle snapshot: %+v", own)
	}
}

// next_try_at is judged against the daemon's clock when the snapshot is
// read, not when the backoff was published.
func TestDaemonProgressNextTryJudgedAtRead(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	daemon := beginDaemon(clock)
	retry := now.Add(time.Minute)
	daemon.Update(func(p *ProgressState) { p.Daemon.NextTry, p.Daemon.Failures = retry, 1 })
	if got := ProgressSnapshot().Daemon.NextTryAt; got != retry.Format(time.RFC3339Nano) {
		t.Fatalf("next_try_at = %q before the backoff ends", got)
	}
	mu.Lock()
	now = retry
	mu.Unlock()
	st := ProgressSnapshot().Daemon
	if st.NextTryAt != "" || st.Failures != 1 {
		t.Fatalf("next_try_at = %q once the clock reached it (failures %d)", st.NextTryAt, st.Failures)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "next_try") || !strings.Contains(string(b), `"deployed":[]`) {
		t.Fatalf("daemon section JSON %s", b)
	}
}
