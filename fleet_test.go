package indexsel

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fleetFamily builds n structurally identical tenants (frequency-perturbed)
// from one generated base workload.
func fleetFamily(t testing.TB, baseSeed int64, n int, skew float64) []FleetTenant {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
	cfg.RowsBase = 10_000
	cfg.Seed = baseSeed
	base := workload.MustGenerate(cfg)
	members, err := workload.TenantFamily(base, n, baseSeed*100, skew)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]FleetTenant, n)
	for i, w := range members {
		tenants[i] = FleetTenant{Workload: w}
	}
	return tenants
}

// sameRec asserts two recommendations are bit-identical in every
// reproducibility-relevant field: the selected indexes, the exact costs and
// memory, the construction trace, and the stop classification.
func sameRec(t *testing.T, label string, a, b *Recommendation) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil recommendation (%v, %v)", label, a, b)
	}
	if len(a.Indexes) != len(b.Indexes) {
		t.Fatalf("%s: %d vs %d indexes", label, len(a.Indexes), len(b.Indexes))
	}
	for i := range a.Indexes {
		if a.Indexes[i].Key() != b.Indexes[i].Key() || a.Indexes[i].Table != b.Indexes[i].Table {
			t.Fatalf("%s: index %d differs: %v vs %v", label, i, a.Indexes[i], b.Indexes[i])
		}
	}
	if a.Cost != b.Cost || a.BaseCost != b.BaseCost || a.Memory != b.Memory {
		t.Fatalf("%s: cost/memory differ: (%v,%v,%d) vs (%v,%v,%d)",
			label, a.Cost, a.BaseCost, a.Memory, b.Cost, b.BaseCost, b.Memory)
	}
	if a.StopReason != b.StopReason || a.Partial != b.Partial {
		t.Fatalf("%s: stop state differs: %v/%v vs %v/%v",
			label, a.StopReason, a.Partial, b.StopReason, b.Partial)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: %d vs %d steps", label, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Index.Key() != sb.Index.Key() || sa.CostAfter != sb.CostAfter || sa.MemAfter != sb.MemAfter {
			t.Fatalf("%s: step %d differs: %+v vs %+v", label, i, sa, sb)
		}
	}
}

// Cluster-of-one fleets and clustered fleets must both reproduce standalone
// Select bit-for-bit — the exactness claim of cross-tenant sharing.
func TestFleetDifferentialBitIdentity(t *testing.T) {
	tenants := append(fleetFamily(t, 1, 3, 0.8), fleetFamily(t, 2, 2, 0.8)...)

	standalone := make([]*Recommendation, len(tenants))
	for i, tn := range tenants {
		rec, err := NewAdvisor(tn.Workload, WithParallelism(1)).Select(StrategyExtend)
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = rec
	}

	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cluster-of-one", true}, {"clustered", false}} {
		res, err := TuneFleet(context.Background(), tenants, FleetOptions{
			Strategy:       StrategyExtend,
			Workers:        1,
			Parallelism:    1,
			DisableSharing: mode.disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		wantClusters := 2
		if mode.disable {
			wantClusters = len(tenants)
		}
		if res.Clusters != wantClusters {
			t.Fatalf("%s: %d clusters, want %d", mode.name, res.Clusters, wantClusters)
		}
		for i, tr := range res.Tenants {
			if tr.Err != nil {
				t.Fatalf("%s: tenant %d failed: %v", mode.name, i, tr.Err)
			}
			sameRec(t, mode.name, standalone[i], tr.Rec)
		}
		if !mode.disable && res.HitRate() == 0 {
			t.Fatal("clustered fleet recorded no shared-cache hits")
		}
	}
}

// A zero FleetOptions.Parallelism splits the cores between the tenant pool
// and each CoPhy tenant's node pool; a set one passes through.
func TestFleetParallelismSplitsCores(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, parallelism, want int }{
		{0, 0, procs},
		{1, 0, procs},
		{procs, 0, 1},
		{2 * procs, 0, 1},
		{procs, 3, 3},
	} {
		p, err := planFleet(nil, nil, FleetOptions{Workers: tc.workers, Parallelism: tc.parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if p.parallelism != tc.want {
			t.Errorf("Workers %d, Parallelism %d: %d node workers, want %d", tc.workers, tc.parallelism, p.parallelism, tc.want)
		}
	}
}

// Shared candidate enumeration (per-cluster Combos, per-tenant
// representatives) must keep the candidate strategies standalone-identical.
func TestFleetDifferentialCandidateStrategy(t *testing.T) {
	tenants := fleetFamily(t, 3, 3, 1.0)
	standalone := make([]*Recommendation, len(tenants))
	for i, tn := range tenants {
		rec, err := NewAdvisor(tn.Workload).Select(StrategyH5)
		if err != nil {
			t.Fatal(err)
		}
		standalone[i] = rec
	}
	res, err := TuneFleet(context.Background(), tenants, FleetOptions{Strategy: StrategyH5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %d: %v", i, tr.Err)
		}
		sameRec(t, "H5", standalone[i], tr.Rec)
	}
}

// Under a table budget of ~25% of the unbounded footprint the fleet must
// complete with identical recommendations, stay under the budget at all
// times, and actually evict.
func TestFleetMemoryBudget(t *testing.T) {
	var tenants []FleetTenant
	for seed := int64(1); seed <= 4; seed++ {
		tenants = append(tenants, fleetFamily(t, seed, 3, 0.6)...)
	}
	unbounded, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Evictions != 0 {
		t.Fatalf("unbounded run evicted %d times", unbounded.Evictions)
	}
	footprint := unbounded.ResidentBytes
	if footprint <= 0 {
		t.Fatal("unbounded run reports no resident table bytes")
	}

	budget := footprint / 4
	bounded, err := TuneFleet(context.Background(), tenants, FleetOptions{
		Workers:          1,
		Parallelism:      1,
		TableBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tenants {
		if bounded.Tenants[i].Err != nil {
			t.Fatalf("tenant %d failed under budget: %v", i, bounded.Tenants[i].Err)
		}
		sameRec(t, "budgeted", unbounded.Tenants[i].Rec, bounded.Tenants[i].Rec)
	}
	if bounded.Evictions == 0 {
		t.Fatal("bounded run performed no evictions")
	}
	if bounded.MaxResidentBytes > budget {
		t.Fatalf("resident table bytes peaked at %d, budget %d", bounded.MaxResidentBytes, budget)
	}
	if bounded.ResidentBytes > budget {
		t.Fatalf("final resident %d exceeds budget %d", bounded.ResidentBytes, budget)
	}
}

// One tenant panicking (crashing cost source) or timing out must yield an
// isolated error/partial for that tenant only; CI runs this under -race.
func TestFleetChaosIsolation(t *testing.T) {
	tenants := fleetFamily(t, 5, 3, 0.5)

	// Tenant 3: a cost source that panics mid-run. Its distinct Source value
	// makes it a singleton cluster, so the poisoned cache touches nobody.
	crashW := tenants[0].Workload
	crashSrc := &faultinject.Source{
		Src:    costmodel.New(crashW, costmodel.SingleIndex),
		Class:  faultinject.Panic,
		OnCall: 7,
	}
	tenants = append(tenants, FleetTenant{ID: "crasher", Workload: crashW, Source: crashSrc})

	// Tenant 4: an impossible deadline; the anytime contract demands a
	// Partial recommendation, not an error.
	tenants = append(tenants, FleetTenant{
		ID:       "rushed",
		Workload: tenants[1].Workload,
		Deadline: time.Nanosecond,
	})

	res, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var pe *WorkerPanicError
	crash := res.Tenants[3]
	if crash.Err == nil || !errors.As(crash.Err, &pe) {
		t.Fatalf("crasher err = %v, want WorkerPanicError", crash.Err)
	}
	rushed := res.Tenants[4]
	if rushed.Err != nil {
		t.Fatalf("rushed tenant errored: %v", rushed.Err)
	}
	if !rushed.Rec.Partial || !rushed.Rec.StopReason.Interrupted() {
		t.Fatalf("rushed tenant: partial=%v reason=%v, want interrupted partial",
			rushed.Rec.Partial, rushed.Rec.StopReason)
	}
	for i := 0; i < 3; i++ {
		tr := res.Tenants[i]
		if tr.Err != nil || tr.Rec == nil || tr.Rec.Partial {
			t.Fatalf("healthy tenant %d affected: err=%v rec=%+v", i, tr.Err, tr.Rec)
		}
	}
	if res.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", res.Failed())
	}
}

// Sharing must pay: a clustered fleet serves most probes from the shared
// caches and makes far fewer source calls than an unshared one.
func TestFleetSharingReducesCalls(t *testing.T) {
	tenants := fleetFamily(t, 7, 6, 0.8)
	shared, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	unshared, err := TuneFleet(context.Background(), tenants, FleetOptions{
		Workers: 1, Parallelism: 1, DisableSharing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Clusters != 1 || unshared.Clusters != len(tenants) {
		t.Fatalf("clusters: shared %d, unshared %d", shared.Clusters, unshared.Clusters)
	}
	if shared.SharedCalls >= unshared.SharedCalls {
		t.Fatalf("sharing saved nothing: %d calls shared vs %d unshared",
			shared.SharedCalls, unshared.SharedCalls)
	}
	if shared.HitRate() <= 0.5 {
		t.Fatalf("shared hit rate %v, want > 0.5 for a 6-tenant cluster", shared.HitRate())
	}
}

func TestFleetProgressPublished(t *testing.T) {
	tenants := fleetFamily(t, 9, 3, 0.5)
	if _, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	st := telemetry.ProgressSnapshot().Fleet
	if st == nil || !st.Done || st.Active {
		t.Fatalf("fleet progress not finished: %+v", st)
	}
	if st.Tenants != 3 || st.Completed != 3 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("fleet progress counts: %+v", st)
	}
	if st.SharedHitRate == 0 {
		t.Fatalf("fleet progress lost the shared hit rate: %+v", st)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := TuneFleet(context.Background(), nil, FleetOptions{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := TuneFleet(context.Background(), []FleetTenant{{ID: "x"}}, FleetOptions{}); err == nil {
		t.Fatal("tenant without workload accepted")
	}
}

// dupSignatureFamily builds n frequency twins of a base workload that
// carries templates with equal signatures: the first three templates are
// repeated under new IDs with other frequencies. It returns the base too.
func dupSignatureFamily(t *testing.T, n int) (*workload.Workload, []FleetTenant) {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 8, 10
	cfg.RowsBase = 10_000
	cfg.Seed = 23
	base := workload.MustGenerate(cfg)
	queries := append([]workload.Query(nil), base.Queries...)
	for i := 0; i < 3; i++ {
		d := base.Queries[i]
		d.ID = len(queries)
		d.Freq = base.Queries[i].Freq*3 + 1
		queries = append(queries, d)
	}
	dup, err := workload.New(base.Tables, base.Attrs(), queries)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := workload.TenantFamily(dup, n, 2300, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]FleetTenant, n)
	for i, w := range fam {
		tenants[i] = FleetTenant{Workload: w}
	}
	return dup, tenants
}

// Exact twins whose templates repeat a signature share one cache at overlap
// 1.0, and each maps to it through the identity: templates are matched by
// (signature, occurrence), so a repeat keeps a superset template of its own.
// Every tenant reproduces standalone bit for bit — on the analytic model and
// on one shared measured source, which seeds each template's point query
// from its ID — and so do the singleton clusters of unshared and
// multi-index fleets.
func TestFleetDuplicateSignatureTwinsBitIdentity(t *testing.T) {
	base, tenants := dupSignatureFamily(t, 3)
	ws := make([]*workload.Workload, len(tenants))
	for i, tn := range tenants {
		ws[i] = tn.Workload
	}
	nc := compress.ClusterNear(ws, 1.0)
	if len(nc) != 1 || len(nc[0].Templates) != base.NumQueries() {
		t.Fatalf("overlap 1.0: %d clusters, want 1 whose superset keeps all %d templates", len(nc), base.NumQueries())
	}
	for _, m := range nc[0].Members {
		for j, sid := range m.QueryMap {
			if int(sid) != j {
				t.Fatalf("twin %d maps query %d to superset template %d, want the identity", m.Pos, j, sid)
			}
		}
	}
	db, err := NewDB(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 7)

	for _, mode := range []struct {
		name     string
		opts     FleetOptions
		measured bool
		clusters int
	}{
		{"exact", FleetOptions{}, false, 1},
		{"unshared", FleetOptions{DisableSharing: true}, false, len(tenants)},
		{"multi-index", FleetOptions{CostMode: MultiIndexCosts}, false, len(tenants)},
		{"measured exact", FleetOptions{}, true, 1},
		{"measured unshared", FleetOptions{DisableSharing: true}, true, len(tenants)},
	} {
		opts := mode.opts
		opts.Workers, opts.Parallelism = 1, 1
		run := append([]FleetTenant(nil), tenants...)
		standalone := []Option{WithParallelism(1), WithCostMode(opts.CostMode)}
		if mode.measured {
			for i := range run {
				run[i].Source = ms
			}
			standalone = append(standalone, WithMeasuredSource(ms))
		}
		res, err := TuneFleet(context.Background(), run, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Clusters != mode.clusters {
			t.Fatalf("%s: %d clusters, want %d", mode.name, res.Clusters, mode.clusters)
		}
		for i, tr := range res.Tenants {
			if tr.Err != nil {
				t.Fatalf("%s: tenant %d failed: %v", mode.name, i, tr.Err)
			}
			want, err := NewAdvisor(run[i].Workload, standalone...).Select(StrategyExtend)
			if err != nil {
				t.Fatal(err)
			}
			sameRec(t, mode.name, want, tr.Rec)
		}
	}
}

// A custom Source answers by query ID and cannot be rebound to a cluster
// superset, so its tenants run privately — one cluster each — even when
// exact twins name the same source, while nil-Source twins still share.
func TestFleetCustomSourcesRunUnshared(t *testing.T) {
	tenants := fleetFamily(t, 4, 5, 0.8)
	src := costmodel.New(tenants[0].Workload, costmodel.SingleIndex)
	for i := 2; i < len(tenants); i++ {
		tenants[i].Source = src
	}
	res, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 4 {
		t.Fatalf("%d clusters, want 4: one shared by the nil-Source twins, one per custom-source tenant", res.Clusters)
	}
	seen := map[int]bool{}
	for i, tr := range res.Tenants {
		if tr.Err != nil {
			t.Fatalf("tenant %d: %v", i, tr.Err)
		}
		if i >= 2 {
			if seen[tr.Cluster] {
				t.Fatalf("custom-source tenant %d shares cluster %d", i, tr.Cluster)
			}
			seen[tr.Cluster] = true
		}
		want, err := NewAdvisor(tenants[i].Workload, WithParallelism(1)).Select(StrategyExtend)
		if err != nil {
			t.Fatal(err)
		}
		sameRec(t, "custom source", want, tr.Rec)
	}
	if res.Tenants[0].Cluster != res.Tenants[1].Cluster {
		t.Fatal("nil-Source twins did not share a cluster")
	}
}

// Every fleet's workers load the tenants they dispatch, so WorkloadPeak*
// report the running set for in-memory tenants too: at most Workers
// workloads held at once, never the whole fleet.
func TestFleetWorkloadPeakReportsDispatchWindow(t *testing.T) {
	tenants := fleetFamily(t, 6, 6, 0.5)
	var total int64
	for _, tn := range tenants {
		total += tn.Workload.FootprintBytes()
	}
	for _, workers := range []int{1, 2} {
		res, err := TuneFleet(context.Background(), tenants, FleetOptions{Workers: workers, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.WorkloadPeakResident < 1 || res.WorkloadPeakResident > workers {
			t.Fatalf("workers %d: peak %d workloads, want in [1,%d]", workers, res.WorkloadPeakResident, workers)
		}
		if res.WorkloadPeakBytes <= 0 || res.WorkloadPeakBytes >= total {
			t.Fatalf("workers %d: peak %d bytes, want in (0, %d)", workers, res.WorkloadPeakBytes, total)
		}
	}
}
