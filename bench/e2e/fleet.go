package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	indexsel "repro"
	"repro/internal/compress"
)

// fleet-nearclone: 16 schema families x 16 near-clones (frequencies skewed,
// two templates dropped and two added per tenant), costs measured by
// executing queries on one engine database per family. Near-match sharing
// resolves one cache per family; a 150 kB table budget with spilling evicts
// and restores cluster tables throughout. The scheduler, near-match sharing,
// engine index builds and spill/restore do the work; per-tenant core work
// is tiny. It is the only workload with a cache shared across tenants.
// A fleet run's time follows its families' index builds; sixteen families
// average enough of them that the time moves little from seed to seed (at
// eight it moved by a tenth).
var fleetWorkload = &workloadDef{
	name:     wFleet,
	why:      "256 near-clone tenants on engine-measured costs: scheduler, shared near-match caches, index builds and spill/restore work; per-tenant core work is tiny",
	generate: genFleet,
	measure:  measureFleet,
	traced:   traceFleet,
}

const fleetTableBudget = 150_000

type fleetInputs struct {
	m   fleetManifest
	dbs []*indexsel.DB
	ws  []*indexsel.Workload // tenants in manifest order
}

func loadFleet(r *runner) (*fleetInputs, error) {
	in := &fleetInputs{}
	if err := readJSON(filepath.Join(r.inputs, "manifest.json"), &in.m); err != nil {
		return nil, err
	}
	var bases []*indexsel.Workload
	for _, fam := range in.m.Families {
		base, err := readWorkloadFile(filepath.Join(r.inputs, fam.Schema))
		if err != nil {
			return nil, err
		}
		bases = append(bases, base)
	}
	for _, t := range in.m.Tenants {
		w, err := readWorkloadFile(filepath.Join(r.inputs, t.File))
		if err != nil {
			return nil, err
		}
		in.ws = append(in.ws, w)
	}
	end := r.span("engine.db_build")
	defer end()
	for f, base := range bases {
		db, err := indexsel.NewDB(base, in.m.Families[f].DBSeed)
		if err != nil {
			return nil, err
		}
		in.dbs = append(in.dbs, db)
	}
	return in, nil
}

// source is a fresh measured source for family f: its built-index cache
// starts empty, so every fleet run does the same engine work.
func (in *fleetInputs) source(f int) *indexsel.MeasuredSource {
	return indexsel.NewMeasuredSource(in.dbs[f], in.m.Families[f].DBSeed)
}

// tenants builds the fleet; the members of a family name one source, which
// is what lets near-match clustering share it.
func (in *fleetInputs) tenants() []indexsel.FleetTenant {
	srcs := make([]*indexsel.MeasuredSource, len(in.dbs))
	for f := range in.dbs {
		srcs[f] = in.source(f)
	}
	out := make([]indexsel.FleetTenant, len(in.ws))
	for i, t := range in.m.Tenants {
		out[i] = indexsel.FleetTenant{ID: t.File, Workload: in.ws[i], Weight: t.Weight, Source: srcs[t.Family]}
	}
	return out
}

// fleetOnce tunes the whole fleet once and checks every tenant.
func fleetOnce(r *runner, in *fleetInputs, workers int) (*indexsel.FleetResult, time.Duration, error) {
	tenants := in.tenants()
	spill := filepath.Join(r.dir, "spill")
	start := time.Now()
	res, err := indexsel.TuneFleet(context.Background(), tenants, indexsel.FleetOptions{
		Workers:          workers,
		Parallelism:      1, // the pool, not the tenant, owns the cores
		NearMatch:        true,
		TableBudgetBytes: fleetTableBudget,
		SpillDir:         spill,
	})
	d := time.Since(start)
	if err != nil {
		r.attempt(true)
		return nil, d, fmt.Errorf("TuneFleet: %w", err)
	}
	if err := os.RemoveAll(spill); err != nil {
		return nil, d, err
	}
	for _, t := range res.Tenants {
		r.attempt(t.Err != nil || t.Rec == nil || t.Rec.Partial)
		if t.Rec != nil {
			r.check(t.Rec.Memory <= t.Rec.Budget, "tenant %s memory %d exceeds budget %d", t.ID, t.Rec.Memory, t.Rec.Budget)
		}
	}
	r.check(res.Failed() == 0, "%d tenants failed", res.Failed())
	r.check(res.Clusters == len(in.dbs), "%d clusters, want one per family (%d)", res.Clusters, len(in.dbs))
	return res, d, nil
}

func fleetCostRatio(res *indexsel.FleetResult) float64 {
	var cost, base float64
	for _, t := range res.Tenants {
		if t.Rec != nil {
			cost += t.Rec.Cost
			base += t.Rec.BaseCost
		}
	}
	return cost / base
}

// checkStandalone checks that each family's representative — the first
// member, whose template IDs are the shared cache's own — gets bit for bit
// the recommendation a standalone advisor over its own measured source
// computes.
func checkStandalone(r *runner, in *fleetInputs, res *indexsel.FleetResult) error {
	checked := 0
	for _, c := range compress.ClusterNear(in.ws, compress.DefaultNearMatchOverlap) {
		rep := c.Members[0]
		identity := true
		for j, id := range rep.QueryMap {
			identity = identity && int(id) == j
		}
		if !identity {
			continue
		}
		f := in.m.Tenants[rep.Pos].Family
		w := in.ws[rep.Pos]
		ad := indexsel.NewAdvisor(w, indexsel.WithParallelism(1), indexsel.WithMeasuredSource(in.source(f).ForWorkload(w)))
		want, err := ad.Select(indexsel.StrategyExtend)
		if err != nil {
			return fmt.Errorf("standalone select: %w", err)
		}
		got := res.Tenants[rep.Pos].Rec
		r.check(got != nil && sameSelection(got, want), "tenant %s: fleet recommendation differs from standalone", in.m.Tenants[rep.Pos].File)
		checked++
	}
	r.check(checked > 0, "no family representative could be checked against a standalone run")
	return nil
}

func sameSelection(a, b *indexsel.Recommendation) bool {
	if a.Cost != b.Cost || a.BaseCost != b.BaseCost || a.Memory != b.Memory || len(a.Indexes) != len(b.Indexes) {
		return false
	}
	for i := range a.Indexes {
		if a.Indexes[i].Key() != b.Indexes[i].Key() {
			return false
		}
	}
	return true
}

func measureFleet(r *runner) error {
	in, err := setup(r, func() (*fleetInputs, error) { return loadFleet(r) }, nil)
	if err != nil {
		return err
	}
	ref, _, err := fleetOnce(r, in, r.nproc) // warm-up
	if err != nil {
		return err
	}
	if err := checkStandalone(r, in, ref); err != nil {
		return err
	}
	var times []float64
	err = r.loop(3, true, func(int) error {
		res, d, err := fleetOnce(r, in, r.nproc)
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
		r.check(fleetCostRatio(res) == fleetCostRatio(ref), "fleet cost ratio %v differs from the first run's %v", fleetCostRatio(res), fleetCostRatio(ref))
		return nil
	})
	if err != nil {
		return err
	}
	perSecond := float64(len(in.ws)*len(times)) / sum(times)
	r.set(mLatency, median(times)*1e3, "ms")
	r.set(mThroughput, perSecond, "1/s")
	r.timing("fleet_s", times, "s")
	r.note("fleet_tenants_per_s", perSecond, "1/s")
	r.note("fleet_cost_ratio", fleetCostRatio(ref), "ratio")
	r.note("fleet_hit_rate", ref.HitRate(), "ratio")
	r.note("fleet_clusters", float64(ref.Clusters), "count")
	r.note("fleet_evictions", float64(ref.Evictions), "count")
	r.note("fleet_restores", float64(ref.Restores), "count")
	return nil
}

func traceFleet(r *runner) error {
	in, err := setup(r, func() (*fleetInputs, error) { return loadFleet(r) }, nil)
	if err != nil {
		return err
	}
	end := r.span("compress.cluster")
	compress.ClusterNear(in.ws, compress.DefaultNearMatchOverlap)
	end()
	if _, _, err := fleetOnce(r, in, r.nproc); err != nil { // warm-up
		return err
	}
	builds := indexsel.DefaultRegistry().Counter("indexsel_engine_index_builds_total", "")
	var plain, traced, util, tenantMS, indexBuilds []float64
	var last *indexsel.FleetResult
	err = r.loop(1, true, func(int) error {
		_, d, err := fleetOnce(r, in, r.nproc)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())

		before := builds.Value()
		end := r.span("fleet.tune")
		res, d, err := fleetOnce(r, in, r.nproc)
		end()
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
		indexBuilds = append(indexBuilds, float64(builds.Value()-before))
		var busy time.Duration
		for _, t := range res.Tenants {
			busy += t.Elapsed
			tenantMS = append(tenantMS, float64(t.Elapsed)/float64(time.Millisecond))
		}
		util = append(util, busy.Seconds()/(d.Seconds()*float64(r.nproc)))
		last = res

		end = r.span("fleet.tune.serial")
		serial, _, err := fleetOnce(r, in, 1)
		end()
		if err != nil {
			return err
		}
		r.check(fleetCostRatio(serial) == fleetCostRatio(res), "fleet with 1 worker differs from %d workers", r.nproc)
		return nil
	})
	if err != nil {
		return err
	}
	r.set("engine.db_build_s", median(r.tr.seconds("engine.db_build")), "s")
	r.set("compress.cluster_s", median(r.tr.seconds("compress.cluster")), "s")
	r.set("whatif.hit_rate", last.HitRate(), "ratio")
	r.set("fleet.worker_util", median(util), "ratio")
	r.set("fleet.tenant_p50_ms", percentile(tenantMS, 50), "ms")
	r.set("fleet.tenant_p90_ms", percentile(tenantMS, 90), "ms")
	r.set("fleet.speedup", median(r.tr.seconds("fleet.tune.serial"))/median(r.tr.seconds("fleet.tune")), "ratio")
	r.set("fleet.clusters", float64(last.Clusters), "count")
	r.set("fleet.evictions", float64(last.Evictions), "count")
	r.set("fleet.spills", float64(last.Spills), "count")
	r.set("fleet.restores", float64(last.Restores), "count")
	r.set("fleet.max_resident_bytes", float64(last.MaxResidentBytes), "bytes")
	r.set("engine.index_builds", median(indexBuilds), "count")
	r.set("telemetry.overhead", median(traced)/median(plain), "ratio")
	r.timing("fleet_s", plain, "s")
	return nil
}
