package main

// -fleet mode: tune every tenant of a multi-tenant fleet in one run, with
// cross-tenant what-if sharing for clustered tenants and an
// optional global table memory budget. The input is either a directory of
// workload JSON files (every *.json is a tenant, manifest.json consulted if
// present) or an explicit manifest path produced by
// `workloadgen -tenants N -clusters K -out dir`.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	indexsel "repro"
)

// manifest mirrors cmd/workloadgen's fleet interchange format.
type manifest struct {
	Tenants []manifestTenant `json:"tenants"`
}

type manifestTenant struct {
	ID       string  `json:"id"`
	Workload string  `json:"workload"`
	Cluster  int     `json:"cluster"`
	Weight   float64 `json:"weight,omitempty"`
	Deadline string  `json:"deadline,omitempty"`
}

// fleetEntry is one resolved tenant before its workload is read: identity,
// scheduling hints, and the workload file path.
type fleetEntry struct {
	id       string
	path     string
	weight   float64
	deadline time.Duration
}

// resolveFleet resolves a -fleet argument (directory or manifest file) into
// tenant entries without reading any workload.
func resolveFleet(path string) ([]fleetEntry, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	manifestPath := path
	if fi.IsDir() {
		manifestPath = filepath.Join(path, "manifest.json")
		if _, err := os.Stat(manifestPath); err != nil {
			return resolveFleetDir(path)
		}
	}
	f, err := os.Open(manifestPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m manifest
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	if len(m.Tenants) == 0 {
		return nil, fmt.Errorf("%s: manifest lists no tenants", manifestPath)
	}
	base := filepath.Dir(manifestPath)
	entries := make([]fleetEntry, 0, len(m.Tenants))
	for _, mt := range m.Tenants {
		wp := mt.Workload
		if !filepath.IsAbs(wp) {
			wp = filepath.Join(base, wp)
		}
		e := fleetEntry{id: mt.ID, path: wp, weight: mt.Weight}
		if mt.Deadline != "" {
			d, err := time.ParseDuration(mt.Deadline)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad deadline: %w", mt.ID, err)
			}
			e.deadline = d
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// resolveFleetDir treats every *.json in dir as one tenant, named after its
// file, in sorted order.
func resolveFleetDir(dir string) ([]fleetEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var entries []fleetEntry
	for _, p := range paths {
		entries = append(entries, fleetEntry{
			id:   strings.TrimSuffix(filepath.Base(p), ".json"),
			path: p,
		})
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: no *.json workloads", dir)
	}
	return entries, nil
}

// loadFleet resolves the tenants of a -fleet argument. Eagerly (the
// default) every workload file is read up front; with stream set each tenant
// instead carries a Load that reads its file whenever TuneFleet's clusterer
// or a worker dispatching it asks for it, never all at once — each file is
// then parsed twice, trading time for O(workers) resident workloads.
func loadFleet(path string, budgetShare float64, budgetBytes int64, stream bool) ([]indexsel.FleetTenant, error) {
	entries, err := resolveFleet(path)
	if err != nil {
		return nil, err
	}
	tenants := make([]indexsel.FleetTenant, 0, len(entries))
	for _, e := range entries {
		t := indexsel.FleetTenant{
			ID:          e.id,
			Weight:      e.weight,
			Deadline:    e.deadline,
			BudgetShare: budgetShare,
			BudgetBytes: budgetBytes,
		}
		if stream {
			wp := e.path
			t.Load = func() (*indexsel.Workload, error) { return readWorkloadFile(wp) }
		} else if t.Workload, err = readWorkloadFile(e.path); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", e.id, err)
		}
		tenants = append(tenants, t)
	}
	return tenants, nil
}

func readWorkloadFile(path string) (*indexsel.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return indexsel.ReadWorkload(f)
}

// fleetReport prints the human-readable fleet summary: one row per tenant
// plus the sharing and memory aggregates. The workers' peak of held
// workloads is printed only for streamed tenants: eagerly loaded workloads
// are all resident for the whole run, and the peak would count only the
// running set.
func fleetReport(out io.Writer, res *indexsel.FleetResult, stream bool) {
	fmt.Fprintf(out, "%-12s %-7s %-8s %-12s %-12s %-8s %s\n",
		"tenant", "cluster", "indexes", "cost", "improve", "time", "status")
	for _, tr := range res.Tenants {
		if tr.Err != nil {
			fmt.Fprintf(out, "%-12s %-7d %-8s %-12s %-12s %-8s error: %v\n",
				tr.ID, tr.Cluster, "-", "-", "-", tr.Elapsed.Round(time.Millisecond), tr.Err)
			continue
		}
		rec := tr.Rec
		status := "ok"
		if rec.Partial {
			status = fmt.Sprintf("partial (%v)", rec.StopReason)
		}
		fmt.Fprintf(out, "%-12s %-7d %-8d %-12.6g %-12s %-8s %s\n",
			tr.ID, tr.Cluster, len(rec.Indexes), rec.Cost,
			fmt.Sprintf("%.2f%%", 100*rec.Improvement()),
			tr.Elapsed.Round(time.Millisecond), status)
	}
	fmt.Fprintf(out, "\nclusters:      %d over %d tenants (%d failed)\n",
		res.Clusters, len(res.Tenants), res.Failed())
	fmt.Fprintf(out, "shared cache:  %.1f%% hit rate (%d source calls, %d hits)\n",
		100*res.HitRate(), res.SharedCalls, res.SharedHits)
	fmt.Fprintf(out, "table memory:  %d bytes resident (peak %d), %d evictions\n",
		res.ResidentBytes, res.MaxResidentBytes, res.Evictions)
	if res.Spills > 0 || res.Restores > 0 {
		fmt.Fprintf(out, "table spill:   %d spills, %d restores\n", res.Spills, res.Restores)
	}
	if stream {
		fmt.Fprintf(out, "workloads:     peak %d resident (%d bytes)\n",
			res.WorkloadPeakResident, res.WorkloadPeakBytes)
	}
	fmt.Fprintf(out, "elapsed:       %v\n", res.Elapsed.Round(time.Millisecond))
}

// fleetJSON is the machine-readable -fleet -json report.
type fleetJSON struct {
	Tenants          []fleetTenantJSON `json:"tenants"`
	Clusters         int               `json:"clusters"`
	SharedCalls      int64             `json:"shared_calls"`
	SharedHits       int64             `json:"shared_hits"`
	HitRate          float64           `json:"hit_rate"`
	ResidentBytes    int64             `json:"resident_bytes"`
	MaxResidentBytes int64             `json:"max_resident_bytes"`
	Evictions        int64             `json:"evictions"`
	Spills           int64             `json:"spills,omitempty"`
	Restores         int64             `json:"restores,omitempty"`
	WorkloadPeak     int               `json:"workload_peak_resident,omitempty"`
	WorkloadPeakB    int64             `json:"workload_peak_bytes,omitempty"`
	ElapsedSeconds   float64           `json:"elapsed_seconds"`
}

type fleetTenantJSON struct {
	ID          string   `json:"id"`
	Cluster     int      `json:"cluster"`
	Error       string   `json:"error,omitempty"`
	Cost        float64  `json:"cost,omitempty"`
	BaseCost    float64  `json:"base_cost,omitempty"`
	Improvement float64  `json:"improvement,omitempty"`
	Indexes     []string `json:"indexes,omitempty"`
	Partial     bool     `json:"partial,omitempty"`
	StopReason  string   `json:"stop_reason,omitempty"`
	Seq         int      `json:"seq"`
	ElapsedSec  float64  `json:"elapsed_seconds"`
}

// writeFleetJSON writes the -json report; like fleetReport it gives the
// workers' peak of held workloads only for streamed tenants.
func writeFleetJSON(out io.Writer, res *indexsel.FleetResult, stream bool) error {
	rep := fleetJSON{
		Clusters:         res.Clusters,
		SharedCalls:      res.SharedCalls,
		SharedHits:       res.SharedHits,
		HitRate:          res.HitRate(),
		ResidentBytes:    res.ResidentBytes,
		MaxResidentBytes: res.MaxResidentBytes,
		Evictions:        res.Evictions,
		Spills:           res.Spills,
		Restores:         res.Restores,
		ElapsedSeconds:   res.Elapsed.Seconds(),
	}
	if stream {
		rep.WorkloadPeak, rep.WorkloadPeakB = res.WorkloadPeakResident, res.WorkloadPeakBytes
	}
	for _, tr := range res.Tenants {
		tj := fleetTenantJSON{
			ID:         tr.ID,
			Cluster:    tr.Cluster,
			Seq:        tr.Seq,
			ElapsedSec: tr.Elapsed.Seconds(),
		}
		if tr.Err != nil {
			tj.Error = tr.Err.Error()
		} else {
			rec := tr.Rec
			tj.Cost = rec.Cost
			tj.BaseCost = rec.BaseCost
			tj.Improvement = rec.Improvement()
			tj.Partial = rec.Partial
			if rec.Partial {
				tj.StopReason = rec.StopReason.String()
			}
			for _, ix := range rec.Indexes {
				tj.Indexes = append(tj.Indexes, ix.Key())
			}
		}
		rep.Tenants = append(rep.Tenants, tj)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// runFleet executes the -fleet path of main, writing the report to out;
// stream selects lazily loaded tenants (-fleet-stream).
func runFleet(ctx context.Context, out io.Writer, fleetPath string, opts indexsel.FleetOptions,
	budgetShare float64, budgetBytes int64, stream, jsonOut bool) error {
	tenants, err := loadFleet(fleetPath, budgetShare, budgetBytes, stream)
	if err != nil {
		return err
	}
	res, err := indexsel.TuneFleet(ctx, tenants, opts)
	if err != nil {
		return err
	}
	if jsonOut {
		return writeFleetJSON(out, res, stream)
	}
	fleetReport(out, res, stream)
	return nil
}
