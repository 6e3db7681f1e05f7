package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	indexsel "repro"
)

// writeNearCloneFleet writes a fleet in cmd/workloadgen's manifest format:
// families x perFamily tenants of one generated base each, frequencies
// skewed per tenant. In each family the first two tenants are exact twins;
// every later one also has two templates dropped and two added, so it is a
// near-clone of the twins but an exact twin of nobody.
func writeNearCloneFleet(t *testing.T, dir string, families, perFamily int) {
	t.Helper()
	var m manifest
	for c := 0; c < families; c++ {
		cfg := indexsel.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 8, 12
		cfg.RowsBase = 2000
		cfg.Seed = int64(40 + c)
		base, err := indexsel.GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		members, err := indexsel.TenantFamily(base, perFamily, int64(c)*1000, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range members {
			if i >= 2 {
				if w, err = indexsel.PerturbTemplates(w, int64(c)*1000+int64(i), 2, 2); err != nil {
					t.Fatal(err)
				}
			}
			id := fmt.Sprintf("c%d-t%d", c, i)
			var buf bytes.Buffer
			if err := indexsel.WriteWorkload(&buf, w); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, id+".json"), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			m.Tenants = append(m.Tenants, manifestTenant{ID: id, Workload: id + ".json", Cluster: c})
		}
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runFleetJSON runs the -fleet path with -json and decodes its report.
func runFleetJSON(t *testing.T, dir string, opts indexsel.FleetOptions, stream bool) fleetJSON {
	t.Helper()
	var out bytes.Buffer
	if err := runFleet(context.Background(), &out, dir, opts, 0.3, 0, stream, true); err != nil {
		t.Fatal(err)
	}
	var rep fleetJSON
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decoding fleet report: %v", err)
	}
	return rep
}

// The CLI fleet path gives the same per-tenant recommendations whether it
// reads the manifest eagerly or streams it (-fleet-stream), and resolves the
// expected clusters with and without -fleet-near-match.
func TestFleetStreamMatchesEager(t *testing.T) {
	const families, perFamily = 3, 4
	dir := t.TempDir()
	writeNearCloneFleet(t, dir, families, perFamily)

	near := indexsel.FleetOptions{Workers: 2, Parallelism: 1, NearMatch: true}
	eager := runFleetJSON(t, dir, near, false)
	streamed := runFleetJSON(t, dir, near, true)
	exact := runFleetJSON(t, dir, indexsel.FleetOptions{Workers: 2, Parallelism: 1}, false)

	if eager.Clusters != families || streamed.Clusters != families {
		t.Fatalf("near-match clusters: eager %d, streamed %d, want %d per-family clusters",
			eager.Clusters, streamed.Clusters, families)
	}
	// Without near-match each family's twins share one cluster and every
	// perturbed tenant is a singleton.
	if want := families * (1 + perFamily - 2); exact.Clusters != want {
		t.Fatalf("exact-twin clusters: %d, want %d", exact.Clusters, want)
	}
	if streamed.WorkloadPeak < 1 || streamed.WorkloadPeak > near.Workers {
		t.Fatalf("streamed peak %d workloads resident, want in [1,%d]", streamed.WorkloadPeak, near.Workers)
	}
	// Eagerly loaded workloads are all resident; the dispatch window's peak
	// would understate that, so the eager report leaves it out.
	if eager.WorkloadPeak != 0 || eager.WorkloadPeakB != 0 {
		t.Fatalf("eager report gives a workload peak (%d workloads, %d bytes)", eager.WorkloadPeak, eager.WorkloadPeakB)
	}
	if len(eager.Tenants) != families*perFamily || len(streamed.Tenants) != len(eager.Tenants) {
		t.Fatalf("tenant counts: eager %d, streamed %d", len(eager.Tenants), len(streamed.Tenants))
	}
	for i, e := range eager.Tenants {
		s := streamed.Tenants[i]
		if e.Error != "" || s.Error != "" {
			t.Fatalf("tenant %s failed: eager %q, streamed %q", e.ID, e.Error, s.Error)
		}
		if e.ID != s.ID || e.Cluster != s.Cluster || e.Cost != s.Cost || e.BaseCost != s.BaseCost ||
			fmt.Sprint(e.Indexes) != fmt.Sprint(s.Indexes) {
			t.Fatalf("tenant %s: eager %+v, streamed %+v", e.ID, e, s)
		}
		// Exact-twin sharing is just as exact: the same recommendation.
		x := exact.Tenants[i]
		if x.Cost != e.Cost || x.BaseCost != e.BaseCost || fmt.Sprint(x.Indexes) != fmt.Sprint(e.Indexes) {
			t.Fatalf("tenant %s: exact-twin run %+v, near-match run %+v", e.ID, x, e)
		}
	}
}
