package indexsel

// Fleet-mode throughput benchmarks (satellite of the fleet PR): a 64-tenant
// fleet of 8 structural clusters x 8 frequency-perturbed tenants, costs
// served by engine-measured sources (the expensive, realistic regime — index
// builds and query executions dominate, exactly what cross-tenant sharing
// amortizes).
//
//   BenchmarkFleetSequential   one worker, no sharing: 64 standalone runs
//   BenchmarkFleetPooled       pooled workers, no sharing
//   BenchmarkFleetPooledShared pooled workers + per-cluster shared caches
//
// The acceptance bar is PooledShared >= 3x Sequential; `make bench-fleet`
// records the three into results/BENCH_fleet.json.

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

const (
	fleetBenchClusters       = 8
	fleetBenchTenantsPerClus = 8
)

// fleetBenchCluster is one structural cluster's immutable setup: the base
// workload family plus the engine database the measured sources execute on.
// The DB (column data) is safely shared; MeasuredSources are created per
// fleet build because their index-build caches are part of the measured
// work.
type fleetBenchCluster struct {
	members []*workload.Workload
	db      *engine.DB
	seed    int64
}

func fleetBenchSetup(b *testing.B) []fleetBenchCluster {
	b.Helper()
	clusters := make([]fleetBenchCluster, fleetBenchClusters)
	for c := range clusters {
		seed := int64(c + 1)
		cfg := workload.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 12, 25
		cfg.RowsBase = int64(3000 + 200*c)
		cfg.Seed = seed
		base, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		members, err := workload.TenantFamily(base, fleetBenchTenantsPerClus, seed*1000, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		db, err := engine.New(base, seed)
		if err != nil {
			b.Fatal(err)
		}
		clusters[c] = fleetBenchCluster{members: members, db: db, seed: seed}
	}
	return clusters
}

// fleetBenchTenants assembles the 64-tenant fleet. With share=true the
// cluster-mates name one MeasuredSource (whose index builds and the what-if
// cache on top are then shared); otherwise every tenant gets a private
// source, the standalone regime.
func fleetBenchTenants(clusters []fleetBenchCluster, share bool) []FleetTenant {
	var tenants []FleetTenant
	for _, cl := range clusters {
		var shared *MeasuredSource
		if share {
			shared = engine.NewMeasuredSource(cl.db, cl.seed)
		}
		for _, w := range cl.members {
			src := shared
			if !share {
				src = engine.NewMeasuredSource(cl.db, cl.seed)
			}
			tenants = append(tenants, FleetTenant{Workload: w, Source: src})
		}
	}
	return tenants
}

func runFleetBench(b *testing.B, workers int, share bool) {
	clusters := fleetBenchSetup(b)
	n := fleetBenchClusters * fleetBenchTenantsPerClus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tenants := fleetBenchTenants(clusters, share)
		b.StartTimer()
		res, err := TuneFleet(context.Background(), tenants, FleetOptions{
			Workers:        workers,
			Parallelism:    1,
			DisableSharing: !share,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed() != 0 {
			b.Fatalf("%d tenants failed", res.Failed())
		}
		if share && res.HitRate() == 0 {
			b.Fatal("shared run recorded no cache hits")
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tenants/s")
}

func BenchmarkFleetSequential(b *testing.B)   { runFleetBench(b, 1, false) }
func BenchmarkFleetPooled(b *testing.B)       { runFleetBench(b, 4, false) }
func BenchmarkFleetPooledShared(b *testing.B) { runFleetBench(b, 4, true) }

// --- 256-tenant near-clone arms -------------------------------------------
//
// A larger fleet in the shape near-match sharing targets: 4 schema families
// x 64 near-clones each (frequencies skewed, 2 templates dropped + 2 added
// per tenant, template overlap ~0.8 within a family), costs served by
// engine-measured sources. Exact-twin clustering scatters near-clones into
// singleton clusters, so every tenant gets a private source and pays its own
// index builds and probe executions — the same per-tenant regime as
// BenchmarkFleetPooled. Near-match resolves 4 union-superset caches over
// family-shared sources, so each family's builds and executions run once.
// The acceptance bar is NearCloneNearMatch >= 2x NearCloneTwin tenants/s.
// The streamed arm runs the analytic variant of the same fleet as Load
// tenants and must keep its peak resident workload bytes <= 25% of the
// unstreamed fleet's total (both recorded as the workload-peak-b metric).

const (
	fleetNearFamilies     = 4
	fleetNearClonesPerFam = 64
)

// fleetNearCloneWorkloads builds the 4x64 near-clone workload grid, plus one
// engine database per family (schemas are identical within a family, so one
// database serves all members).
func fleetNearCloneWorkloads(b *testing.B) ([][]*workload.Workload, []*engine.DB) {
	b.Helper()
	families := make([][]*workload.Workload, fleetNearFamilies)
	dbs := make([]*engine.DB, fleetNearFamilies)
	for f := 0; f < fleetNearFamilies; f++ {
		seed := int64(100 + f)
		cfg := workload.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
		cfg.RowsBase = int64(3000 + 250*f)
		cfg.Seed = seed
		base, err := workload.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		members, err := workload.TenantFamily(base, fleetNearClonesPerFam, seed*1000, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		family := make([]*workload.Workload, len(members))
		for i, w := range members {
			p, err := workload.PerturbTemplates(w, seed*10000+int64(i), 2, 2)
			if err != nil {
				b.Fatal(err)
			}
			family[i] = p
		}
		families[f] = family
		db, err := engine.New(base, seed)
		if err != nil {
			b.Fatal(err)
		}
		dbs[f] = db
	}
	return families, dbs
}

func runNearCloneBench(b *testing.B, nearMatch bool) {
	families, dbs := fleetNearCloneWorkloads(b)
	n := fleetNearFamilies * fleetNearClonesPerFam
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var tenants []FleetTenant
		for f, family := range families {
			ms := engine.NewMeasuredSource(dbs[f], int64(100+f))
			for _, w := range family {
				src := ms
				if !nearMatch {
					// Singleton clusters: every tenant names a private source
					// and pays its own index builds and probe executions.
					src = engine.NewMeasuredSource(dbs[f], int64(100+f))
				}
				tenants = append(tenants, FleetTenant{Workload: w, Source: src})
			}
		}
		b.StartTimer()
		res, err := TuneFleet(context.Background(), tenants, FleetOptions{
			Workers:     4,
			Parallelism: 1,
			NearMatch:   nearMatch,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed() != 0 {
			b.Fatalf("%d tenants failed", res.Failed())
		}
		if nearMatch && res.Clusters != fleetNearFamilies {
			b.Fatalf("near-match resolved %d clusters, want %d", res.Clusters, fleetNearFamilies)
		}
		if nearMatch && res.HitRate() == 0 {
			b.Fatal("near-match run recorded no cache hits")
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tenants/s")
}

func BenchmarkFleetNearCloneTwin(b *testing.B)      { runNearCloneBench(b, false) }
func BenchmarkFleetNearCloneNearMatch(b *testing.B) { runNearCloneBench(b, true) }

func fleetNearCloneTenants(b *testing.B) []FleetTenant {
	b.Helper()
	families, _ := fleetNearCloneWorkloads(b)
	var tenants []FleetTenant
	for _, family := range families {
		for _, w := range family {
			tenants = append(tenants, FleetTenant{Workload: w})
		}
	}
	return tenants
}

func runStreamBench(b *testing.B, stream bool) {
	tenants := fleetNearCloneTenants(b)
	n := len(tenants)
	opts := FleetOptions{Workers: 4, Parallelism: 1, NearMatch: true}
	var peakBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stream {
			lazy := make([]FleetTenant, n)
			for j := range tenants {
				w := tenants[j].Workload
				lazy[j] = FleetTenant{Load: func() (*workload.Workload, error) { return w, nil }}
			}
			res, err := TuneFleet(context.Background(), lazy, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed() != 0 {
				b.Fatalf("%d tenants failed", res.Failed())
			}
			peakBytes = res.WorkloadPeakBytes
		} else {
			res, err := TuneFleet(context.Background(), tenants, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed() != 0 {
				b.Fatalf("%d tenants failed", res.Failed())
			}
			// Unstreamed peak residency is the whole fleet, held for the run.
			peakBytes = 0
			for _, t := range tenants {
				peakBytes += t.Workload.FootprintBytes()
			}
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tenants/s")
	b.ReportMetric(float64(peakBytes), "workload-peak-b")
}

func BenchmarkFleetUnstreamed(b *testing.B) { runStreamBench(b, false) }
func BenchmarkFleetStreamed(b *testing.B)   { runStreamBench(b, true) }

// --- spill-restore vs rebuild arms ----------------------------------------
//
// After a budget eviction, a re-dispatched tenant either rebuilds its cost
// tables by re-probing the measured engine source (index builds + query
// executions) or restores them from a spill file. Both arms run the same
// warmed selection after losing the tables; the restore arm must be >= 5x
// faster per op.

func runSpillBench(b *testing.B, restore bool) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
	cfg.RowsBase = 50_000
	cfg.Seed = 31
	base, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	db, err := engine.New(base, 1)
	if err != nil {
		b.Fatal(err)
	}
	ms := engine.NewMeasuredSource(db, 1)
	ad := NewAdvisor(base, WithParallelism(1), WithMeasuredSource(ms))
	if _, err := ad.Select(StrategyExtend); err != nil { // warm the tables
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "tables.spill")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if restore {
			if _, err := ad.opt.SpillTables(path); err != nil {
				b.Fatal(err)
			}
			if _, err := ad.opt.RestoreTables(path); err != nil {
				b.Fatal(err)
			}
		} else {
			ad.opt.EvictTables()
		}
		if _, err := ad.Select(StrategyExtend); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetSpillRebuild(b *testing.B) { runSpillBench(b, false) }
func BenchmarkFleetSpillRestore(b *testing.B) { runSpillBench(b, true) }
