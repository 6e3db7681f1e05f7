package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is the schema of BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// Workload names; later changes cite them.
const (
	wERP    = "erp-extend"
	wSQL    = "sql-writes"
	wFleet  = "fleet-nearclone"
	wDaemon = "daemon-drift"
)

var workloadNames = []string{wERP, wSQL, wFleet, wDaemon}

// End-to-end metrics: every workload reports each of them, measured with
// tracing off. latency_ms is the median time of the workload's unit of work
// (one select, one three-strategy advice, one fleet run, one observe batch
// that did not retune); throughput_per_s counts the workload's work items
// (selects, advices, tenants, observations) per second of measured time, so
// that slow outliers and daemon retunes, which the median hides, still show.
const (
	mSetup      = "setup_s"
	mLatency    = "latency_ms"
	mThroughput = "throughput_per_s"
	mRSS        = "peak_rss_mb"
)

// layerMetric is a per-layer metric of the traced run, with the end-to-end
// metric it should move and the workloads on which it does.
type layerMetric struct {
	Name, Unit, Better string
	Moves              string
	On                 []string
}

// layerMetrics is the per-layer catalogue. Layers are named after the
// program's packages. A traced run reports every entry; a layer the
// workload does not exercise reports 0.
var layerMetrics = []layerMetric{
	{"workload.read_s", "s", "lower", mSetup, []string{wERP, wDaemon}},
	{"sqllog.parse_s", "s", "lower", mSetup, []string{wSQL}},
	{"engine.db_build_s", "s", "lower", mSetup, []string{wFleet}},

	{"costmodel.busy_s", "s", "lower", mLatency, []string{wERP, wSQL}},
	{"costmodel.cost_calls", "count", "lower", mLatency, []string{wERP, wSQL}},
	{"costmodel.maint_calls", "count", "lower", mLatency, []string{wSQL}},

	{"whatif.calls", "count", "lower", mLatency, []string{wERP, wSQL}},
	{"whatif.hit_rate", "ratio", "higher", mLatency, []string{wERP, wSQL, wFleet}},
	{"whatif.cache_entries", "count", "lower", mRSS, []string{wERP, wSQL}},

	{"core.select_s", "s", "lower", mLatency, []string{wERP, wSQL}},
	{"core.select_p1_s", "s", "lower", mLatency, []string{wERP}},
	{"core.speedup", "ratio", "higher", mLatency, []string{wERP}},
	{"core.self_s", "s", "lower", mLatency, []string{wERP}},
	{"core.steps", "count", "lower", mLatency, []string{wERP}},
	{"core.evaluated_per_step", "count", "lower", mLatency, []string{wERP}},
	{"core.cache_served", "count", "higher", mLatency, []string{wERP}},
	{"core.pruned", "count", "higher", mLatency, []string{wERP}},
	{"core.alloc_mb", "MB", "lower", mRSS, []string{wERP}},

	{"candidates.select_s", "s", "lower", mLatency, []string{wSQL}},
	{"heuristics.select_s", "s", "lower", mLatency, []string{wSQL}},
	{"heuristics.self_s", "s", "lower", mLatency, []string{wSQL}},
	{"cophy.build_s", "s", "lower", mLatency, []string{wSQL}},
	{"cophy.solve_s", "s", "lower", mLatency, []string{wSQL}},
	{"lp.nodes", "count", "lower", mLatency, []string{wSQL}},
	{"cophy.gap", "ratio", "lower", mLatency, []string{wSQL}},
	{"cophy.dnf", "count", "lower", mLatency, []string{wSQL}},

	{"fleet.worker_util", "ratio", "higher", mThroughput, []string{wFleet}},
	{"fleet.tenant_p50_ms", "ms", "lower", mThroughput, []string{wFleet}},
	{"fleet.tenant_p90_ms", "ms", "lower", mThroughput, []string{wFleet}},
	{"fleet.speedup", "ratio", "higher", mThroughput, []string{wFleet}},
	{"fleet.clusters", "count", "lower", mThroughput, []string{wFleet}},
	{"fleet.evictions", "count", "lower", mThroughput, []string{wFleet}},
	{"fleet.spills", "count", "lower", mThroughput, []string{wFleet}},
	{"fleet.restores", "count", "lower", mThroughput, []string{wFleet}},
	{"fleet.max_resident_bytes", "bytes", "lower", mRSS, []string{wFleet}},
	{"compress.cluster_s", "s", "lower", mLatency, []string{wFleet}},
	{"engine.index_builds", "count", "lower", mThroughput, []string{wFleet}},

	{"service.post_ms_p50", "ms", "lower", mLatency, []string{wDaemon}},
	{"service.flush_ms_p50", "ms", "lower", mLatency, []string{wDaemon}},
	{"drift.observe_us", "us", "lower", mLatency, []string{wDaemon}},
	{"drift.check_ms", "ms", "lower", mLatency, []string{wDaemon}},
	{"drift.window_templates", "count", "lower", mLatency, []string{wDaemon}},

	{"costmodel.retune_busy_s", "s", "lower", mThroughput, []string{wDaemon}},
	{"service.op_fsync_ms_p50", "ms", "lower", mThroughput, []string{wDaemon}},
	{"service.apply_ms_p50", "ms", "lower", mThroughput, []string{wDaemon}},
	{"service.journal_bytes_per_apply", "bytes", "lower", mThroughput, []string{wDaemon}},
	{"service.retunes", "count", "lower", mThroughput, []string{wDaemon}},
	{"service.applied", "count", "lower", mThroughput, []string{wDaemon}},
	{"service.rejected", "count", "lower", mThroughput, []string{wDaemon}},
	{"service.failures", "count", "lower", mThroughput, []string{wDaemon}},
	{"service.throttled", "count", "lower", mThroughput, []string{wDaemon}},

	{"telemetry.overhead", "ratio", "lower", mLatency, workloadNames},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads and validates BENCHMARK.json.
func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// validate checks the limits a BENCHMARK.json must keep: name syntax and
// uniqueness, the workload and metric counts, bounds, and that every
// per-layer metric names an end-to-end metric and workloads that exist.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	names := map[string]bool{}
	use := func(kind, name string) error {
		if !metricName.MatchString(name) {
			return fmt.Errorf("%s name %q does not match %s", kind, name, metricName)
		}
		if names[name] {
			return fmt.Errorf("%s name %q used twice", kind, name)
		}
		names[name] = true
		return nil
	}
	workloads := map[string]bool{}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1 to 200 characters", w.Name)
		}
		workloads[w.Name] = true
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		if err := use("end-to-end metric", m.Name); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %q: bound must be in (0, 0.25]", m.Name)
		}
		e2e[m.Name] = true
	}
	if !e2e[mSetup] {
		return fmt.Errorf("end-to-end metric %q missing", mSetup)
	}
	for _, m := range s.PerLayer {
		if err := use("per-layer metric", m.Name); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher", m.Name)
		}
		if !unitSyntax.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
		}
	}
	for _, lm := range layerMetrics {
		if !names[lm.Name] {
			continue // checked against the catalogue by the tests
		}
		if !e2e[lm.Moves] {
			return fmt.Errorf("per-layer metric %q moves %q, which is no end-to-end metric", lm.Name, lm.Moves)
		}
		for _, w := range lm.On {
			if !workloads[w] {
				return fmt.Errorf("per-layer metric %q names unknown workload %q", lm.Name, w)
			}
		}
	}
	return nil
}

var unitSyntax = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
