package indexsel

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

// nearCloneTenants builds n near-clones of one generated base: frequencies
// skewed per tenant plus a couple of templates dropped and added, so exact
// structural clustering scatters them but near-match clustering does not.
func nearCloneTenants(t testing.TB, baseSeed int64, n int) []FleetTenant {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
	cfg.RowsBase = 10_000
	cfg.Seed = baseSeed
	base := workload.MustGenerate(cfg)
	fam, err := workload.TenantFamily(base, n, baseSeed*100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]FleetTenant, n)
	for i, w := range fam {
		p, err := workload.PerturbTemplates(w, baseSeed*1000+int64(i), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = FleetTenant{ID: fmt.Sprintf("t%d-%d", baseSeed, i), Workload: p}
	}
	return tenants
}

// Near-match sharing must reproduce standalone Select bit-for-bit for every
// member — the exactness claim of subset views over a union-superset cache —
// for both the Extend strategy and a candidate strategy (H5).
func TestFleetNearMatchDifferentialBitIdentity(t *testing.T) {
	tenants := append(nearCloneTenants(t, 11, 4), nearCloneTenants(t, 12, 3)...)

	for _, strat := range []struct {
		name string
		s    Strategy
	}{{"Extend", StrategyExtend}, {"H5", StrategyH5}} {
		standalone := make([]*Recommendation, len(tenants))
		for i, tn := range tenants {
			rec, err := NewAdvisor(tn.Workload, WithParallelism(1)).Select(strat.s)
			if err != nil {
				t.Fatal(err)
			}
			standalone[i] = rec
		}
		res, err := TuneFleet(context.Background(), tenants, FleetOptions{
			Strategy:    strat.s,
			Workers:     1,
			Parallelism: 1,
			NearMatch:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two schema families -> two near-match clusters; exact clustering
		// would scatter the perturbed template sets into many more.
		if res.Clusters != 2 {
			t.Fatalf("%s: %d near-match clusters, want 2", strat.name, res.Clusters)
		}
		for i, tr := range res.Tenants {
			if tr.Err != nil {
				t.Fatalf("%s: tenant %d failed: %v", strat.name, i, tr.Err)
			}
			sameRec(t, strat.name+"/near-match", standalone[i], tr.Rec)
		}
		if res.HitRate() == 0 {
			t.Fatalf("%s: near-match fleet recorded no shared-cache hits", strat.name)
		}
	}
}

// Near-match must fall back to exact-twin clustering when template drift
// exceeds the overlap threshold, and respect DisableSharing.
func TestFleetNearMatchThreshold(t *testing.T) {
	tenants := nearCloneTenants(t, 13, 5)
	strict, err := TuneFleet(context.Background(), tenants, FleetOptions{
		Workers: 1, Parallelism: 1, NearMatch: true, NearMatchOverlap: 1.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := TuneFleet(context.Background(), tenants, FleetOptions{
		Workers: 1, Parallelism: 1, NearMatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Clusters <= loose.Clusters {
		t.Fatalf("overlap 1.01 produced %d clusters, default %d; want strictly more",
			strict.Clusters, loose.Clusters)
	}
	for i := range tenants {
		sameRec(t, "threshold", strict.Tenants[i].Rec, loose.Tenants[i].Rec)
	}
}

// Near-match sharing over one measured engine source (rebound to the superset
// template space via ForWorkload) must run cleanly and deterministically, and
// a member whose query map is the identity must match a standalone run over
// its own rebinding. Members with other maps are measured through superset
// point queries (instantiation is keyed by query ID), so they need not.
func TestFleetNearMatchMeasuredSource(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 6, 10
	cfg.RowsBase = 2_000
	cfg.Seed = 21
	base := workload.MustGenerate(cfg)
	db, err := NewDB(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 7)
	fam, err := workload.TenantFamily(base, 3, 2100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]FleetTenant, len(fam))
	for i, w := range fam {
		p, err := workload.PerturbTemplates(w, 3000+int64(i), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = FleetTenant{Workload: p, Source: ms}
	}
	run := func() *FleetResult {
		res, err := TuneFleet(context.Background(), tenants, FleetOptions{
			Workers: 1, Parallelism: 1, NearMatch: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Clusters != 1 {
		t.Fatalf("measured near-clones split into %d clusters", a.Clusters)
	}
	for i := range tenants {
		if a.Tenants[i].Err != nil {
			t.Fatalf("tenant %d: %v", i, a.Tenants[i].Err)
		}
		sameRec(t, "measured determinism", a.Tenants[i].Rec, b.Tenants[i].Rec)
	}

	// A member whose map is the identity — at least the representative,
	// which founded the cluster — is measured on exactly its standalone
	// point queries.
	ws := make([]*workload.Workload, len(tenants))
	for i, tn := range tenants {
		ws[i] = tn.Workload
	}
	checked := 0
	for _, m := range compress.ClusterNear(ws, compress.DefaultNearMatchOverlap)[0].Members {
		identity := true
		for j, sid := range m.QueryMap {
			identity = identity && int(sid) == j
		}
		if !identity {
			continue
		}
		w := ws[m.Pos]
		want, err := NewAdvisor(w, WithParallelism(1), WithMeasuredSource(ms.ForWorkload(w))).Select(StrategyExtend)
		if err != nil {
			t.Fatal(err)
		}
		sameRec(t, "measured identity-mapped member", want, a.Tenants[m.Pos].Rec)
		checked++
	}
	if checked == 0 {
		t.Fatal("no member has an identity query map to check against standalone")
	}
}

// lazyTenants wraps in-memory tenants as Load tenants, counting loads.
func lazyTenants(tenants []FleetTenant, loads *[]int) []FleetTenant {
	lazy := make([]FleetTenant, len(tenants))
	*loads = make([]int, len(tenants))
	for i := range tenants {
		i := i
		w := tenants[i].Workload
		lazy[i] = tenants[i]
		lazy[i].Workload = nil
		lazy[i].Load = func() (*workload.Workload, error) {
			(*loads)[i]++
			return w, nil
		}
	}
	return lazy
}

// Load tenants must reproduce standalone recommendations bit-for-bit while
// loading each workload exactly twice and keeping the resident window at
// O(workers).
func TestFleetStreamDifferentialBitIdentity(t *testing.T) {
	tenants := append(nearCloneTenants(t, 14, 4), nearCloneTenants(t, 15, 4)...)
	standalone := make([]*Recommendation, len(tenants))
	for i, tn := range tenants {
		rec, err := NewAdvisor(tn.Workload, WithParallelism(1)).Select(StrategyExtend)
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = rec
	}

	for _, near := range []bool{false, true} {
		var loads []int
		res, err := TuneFleet(context.Background(), lazyTenants(tenants, &loads), FleetOptions{
			Workers:     2,
			Parallelism: 1,
			NearMatch:   near,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range res.Tenants {
			if tr.Err != nil {
				t.Fatalf("near=%v: tenant %d failed: %v", near, i, tr.Err)
			}
			sameRec(t, fmt.Sprintf("stream near=%v", near), standalone[i], tr.Rec)
		}
		if near && res.Clusters != 2 {
			t.Fatalf("streaming near-match resolved %d clusters, want 2", res.Clusters)
		}
		if res.WorkloadPeakResident == 0 || res.WorkloadPeakResident > 2 {
			t.Fatalf("near=%v: workload peak resident %d, want in [1,2] for 2 workers",
				near, res.WorkloadPeakResident)
		}
		if res.WorkloadPeakBytes <= 0 {
			t.Fatalf("near=%v: no resident workload bytes recorded", near)
		}
		for i, n := range loads {
			if n != 2 {
				t.Fatalf("near=%v: tenant %d loaded %d times, want 2", near, i, n)
			}
		}
	}
}

func TestFleetStreamValidation(t *testing.T) {
	w := nearCloneTenants(t, 16, 1)[0].Workload
	both := []FleetTenant{{Workload: w, Load: func() (*workload.Workload, error) { return w, nil }}}
	if _, err := TuneFleet(context.Background(), both, FleetOptions{}); err == nil {
		t.Fatal("tenant with both Workload and Load accepted")
	}
	boom := errors.New("manifest gone")
	failing := []FleetTenant{{Load: func() (*workload.Workload, error) { return nil, boom }}}
	if _, err := TuneFleet(context.Background(), failing, FleetOptions{}); !errors.Is(err, boom) {
		t.Fatalf("pass-1 load failure not surfaced: %v", err)
	}
	empty := []FleetTenant{{Load: func() (*workload.Workload, error) { return nil, nil }}}
	if _, err := TuneFleet(context.Background(), empty, FleetOptions{}); err == nil {
		t.Fatal("nil loaded workload accepted")
	}
}

// A Load that returns different workloads across calls breaks the clustering
// contract; the affected tenant must error in isolation, not poison the fleet.
func TestFleetStreamNonDeterministicLoadIsolated(t *testing.T) {
	tenants := nearCloneTenants(t, 16, 3)
	var loads []int
	lazy := lazyTenants(tenants, &loads)
	flaky := 0
	// A workload with a different template count on the second call.
	other, err := workload.PerturbTemplates(tenants[1].Workload, 99, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy[1].Load = func() (*workload.Workload, error) {
		flaky++
		if flaky > 1 {
			return other, nil
		}
		return tenants[1].Workload, nil
	}
	res, err := TuneFleet(context.Background(), lazy, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[1].Err == nil {
		t.Fatal("non-deterministic Load not detected")
	}
	for _, i := range []int{0, 2} {
		if res.Tenants[i].Err != nil || res.Tenants[i].Rec == nil {
			t.Fatalf("healthy tenant %d affected: %v", i, res.Tenants[i].Err)
		}
	}
}

// A dispatch-time Load failure is that tenant's error alone, and the worker
// that ran it goes on: with one worker, a stalled worker would leave every
// tenant dispatched after it unrun.
func TestFleetStreamDispatchLoadErrorIsolated(t *testing.T) {
	tenants := nearCloneTenants(t, 17, 4)
	var loads []int
	lazy := lazyTenants(tenants, &loads)
	boom := errors.New("file vanished")
	calls := 0
	lazy[2].Load = func() (*workload.Workload, error) {
		if calls++; calls > 1 {
			return nil, boom
		}
		return tenants[2].Workload, nil
	}
	lazy[2].Weight = 1000 // dispatched first
	res, err := TuneFleet(context.Background(), lazy, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Tenants[2].Err, boom) || res.Tenants[2].Seq != 0 {
		t.Fatalf("failing tenant: seq %d, err %v; want seq 0 and the load error", res.Tenants[2].Seq, res.Tenants[2].Err)
	}
	if res.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", res.Failed())
	}
}

// A dispatch-time Load that panics or returns a nil workload fails only its
// own tenant — recovered as a *WorkerPanicError, or the nil-workload error —
// and every other tenant's recommendation is its standalone one.
func TestFleetStreamDispatchLoadFaultIsolated(t *testing.T) {
	tenants := nearCloneTenants(t, 18, 4)
	standalone := make([]*Recommendation, len(tenants))
	for i, tn := range tenants {
		rec, err := NewAdvisor(tn.Workload, WithParallelism(1)).Select(StrategyExtend)
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = rec
	}
	const bad = 1
	for _, fault := range []string{"panic", "nil"} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("%s/workers=%d", fault, workers)
			var loads []int
			lazy := lazyTenants(tenants, &loads)
			calls := 0
			lazy[bad].Load = func() (*workload.Workload, error) {
				if calls++; calls == 1 {
					return tenants[bad].Workload, nil // the clustering call
				}
				if fault == "panic" {
					panic("loader bug")
				}
				return nil, nil
			}
			res, err := TuneFleet(context.Background(), lazy, FleetOptions{Workers: workers, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var pe *WorkerPanicError
			switch got := res.Tenants[bad].Err; {
			case fault == "panic" && !errors.As(got, &pe):
				t.Fatalf("%s: failing tenant err = %v, want a WorkerPanicError", label, got)
			case fault == "nil" && (got == nil || !strings.Contains(got.Error(), "loaded a nil workload")):
				t.Fatalf("%s: failing tenant err = %v, want the nil-workload error", label, got)
			}
			if res.Failed() != 1 {
				t.Fatalf("%s: Failed() = %d, want 1", label, res.Failed())
			}
			for i, tr := range res.Tenants {
				if i != bad {
					sameRec(t, label, standalone[i], tr.Rec)
				}
			}
		}
	}
}

// With two workers, the dispatch-time loads of the first two dispatched
// tenants run concurrently: each waits until the other has started. Loads
// serialized on one goroutine would time the first one out instead.
func TestFleetStreamDispatchLoadsOverlap(t *testing.T) {
	tenants := nearCloneTenants(t, 19, 4)
	var loads []int
	lazy := lazyTenants(tenants, &loads)
	started := []chan struct{}{make(chan struct{}), make(chan struct{})}
	for i := range started {
		i, calls := i, 0
		lazy[i].Weight = 1000 // tenants 0 and 1 are dispatched first
		lazy[i].Load = func() (*workload.Workload, error) {
			if calls++; calls == 1 {
				return tenants[i].Workload, nil // the clustering call
			}
			close(started[i])
			select {
			case <-started[1-i]:
				return tenants[i].Workload, nil
			case <-time.After(10 * time.Second):
				return nil, errors.New("the other dispatched tenant's load never started")
			}
		}
	}
	res, err := TuneFleet(context.Background(), lazy, FleetOptions{Workers: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %d: %v", i, tr.Err)
		}
	}
}

// interleavedFleet builds tenants from two structural families with weights
// arranged so WSJF dispatch alternates clusters — each dispatch re-pins the
// cluster the previous eviction pushed out, exercising spill/restore cycles.
func interleavedFleet(t testing.TB, perFamily int) []FleetTenant {
	t.Helper()
	a := fleetFamily(t, 17, perFamily, 0.6)
	b := fleetFamily(t, 18, perFamily, 0.6)
	var tenants []FleetTenant
	for i := 0; i < perFamily; i++ {
		tenants = append(tenants, a[i], b[i])
	}
	for i := range tenants {
		// key = EstWork/Weight must ascend with input position.
		tenants[i].Weight = float64(tenants[i].Workload.NumQueries()) / float64(i+1)
	}
	return tenants
}

// With a budget forcing evictions and a spill directory, evicted cost tables
// round-trip through disk: the fleet spills and restores, recommendations are
// bit-identical to the unbudgeted run, and no spill files leak.
func TestFleetSpillRoundTrip(t *testing.T) {
	tenants := interleavedFleet(t, 4)
	free, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if free.ResidentBytes <= 0 {
		t.Fatal("unbudgeted run reports no resident table bytes")
	}

	dir := t.TempDir()
	spilled, err := TuneFleet(context.Background(), tenants, FleetOptions{
		Workers:          1,
		Parallelism:      1,
		TableBudgetBytes: free.ResidentBytes / 2,
		SpillDir:         filepath.Join(dir, "spill"), // created on demand
	})
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Spills == 0 {
		t.Fatal("budgeted run spilled nothing")
	}
	if spilled.Restores == 0 {
		t.Fatal("budgeted run restored nothing")
	}
	for i := range tenants {
		if spilled.Tenants[i].Err != nil {
			t.Fatalf("tenant %d failed under spill: %v", i, spilled.Tenants[i].Err)
		}
		sameRec(t, "spill", free.Tenants[i].Rec, spilled.Tenants[i].Rec)
	}
	// Restored tables replace rebuild work: the spilling run must not make
	// more source calls than the eviction-only run would at worst (every
	// restore is a rebuild saved).
	if spilled.SharedCalls > free.SharedCalls*2 {
		t.Fatalf("spill run made %d calls vs %d unbudgeted", spilled.SharedCalls, free.SharedCalls)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "spill", "*.spill"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil && fi.Size() > 0 {
			// Files for still-idle clusters at fleet end are legitimate; a
			// re-run of the glob after restore-consumption keeps this loose.
			t.Logf("residual spill file %s (%d bytes)", f, fi.Size())
		}
	}
}

// Load tenants + spill compose: the full large-fleet configuration
// (near-match sharing, windowed workload residency, spill-to-disk tables)
// must stay bit-identical to standalone.
func TestFleetStreamSpill(t *testing.T) {
	tenants := interleavedFleet(t, 3)
	standalone := make([]*Recommendation, len(tenants))
	for i, tn := range tenants {
		rec, err := NewAdvisor(tn.Workload, WithParallelism(1)).Select(StrategyExtend)
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = rec
	}
	free, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var loads []int
	res, err := TuneFleet(context.Background(), lazyTenants(tenants, &loads), FleetOptions{
		Workers:          1,
		Parallelism:      1,
		NearMatch:        true,
		TableBudgetBytes: free.ResidentBytes / 2,
		SpillDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills == 0 || res.Restores == 0 {
		t.Fatalf("streaming spill run: spills=%d restores=%d, want both > 0", res.Spills, res.Restores)
	}
	for i, tr := range res.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %d: %v", i, tr.Err)
		}
		sameRec(t, "stream+spill", standalone[i], tr.Rec)
	}
	if res.WorkloadPeakResident != 1 {
		t.Fatalf("workload peak resident %d with 1 worker, want 1", res.WorkloadPeakResident)
	}
}

// Chaos under spill: a crashing tenant and an impossible deadline must stay
// isolated while the budget is actively spilling and restoring around them.
// CI runs this under -race.
func TestFleetChaosIsolationSpill(t *testing.T) {
	tenants := interleavedFleet(t, 3)
	crashW := tenants[0].Workload
	crashSrc := &faultinject.Source{
		Src:    costmodel.New(crashW, costmodel.SingleIndex),
		Class:  faultinject.Panic,
		OnCall: 7,
	}
	healthy := len(tenants)
	tenants = append(tenants,
		FleetTenant{ID: "crasher", Workload: crashW, Source: crashSrc},
		FleetTenant{ID: "rushed", Workload: tenants[1].Workload, Deadline: time.Nanosecond},
	)

	res, err := TuneFleet(context.Background(), tenants, FleetOptions{
		Workers:          2,
		Parallelism:      1,
		TableBudgetBytes: 64 << 10,
		SpillDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *WorkerPanicError
	if crash := res.Tenants[healthy]; crash.Err == nil || !errors.As(crash.Err, &pe) {
		t.Fatalf("crasher err = %v, want WorkerPanicError", crash.Err)
	}
	if rushed := res.Tenants[healthy+1]; rushed.Err != nil ||
		!rushed.Rec.Partial || !rushed.Rec.StopReason.Interrupted() {
		t.Fatalf("rushed tenant: err=%v rec=%+v, want interrupted partial", rushed.Err, rushed.Rec)
	}
	for i := 0; i < healthy; i++ {
		if tr := res.Tenants[i]; tr.Err != nil || tr.Rec == nil || tr.Rec.Partial {
			t.Fatalf("healthy tenant %d affected: err=%v", i, tr.Err)
		}
	}
	if res.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", res.Failed())
	}
}
