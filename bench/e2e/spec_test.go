package main

import (
	"fmt"
	"strings"
	"testing"
)

const specPath = "../../BENCHMARK.json"

// The program's metric catalogue and BENCHMARK.json must declare the same
// workloads and metrics, in the same order.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(s.Command, " ") != "bash bench/run.sh" || strings.Join(s.Paths, " ") != "bench" {
		t.Errorf("command %q, paths %q", s.Command, s.Paths)
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, the program runs %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		def, err := lookup(workloadNames[i])
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != def.name || w.Why != def.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, def.name, def.why)
		}
	}
	if len(s.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics declared, the program reports %d", len(s.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		got := s.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end metric %d: declared %+v, program reports %+v", i, got, m)
		}
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, the program reports %d", len(s.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := s.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v, program reports %+v", i, got, m)
		}
	}
	for _, m := range s.EndToEnd {
		if *m.Bound > *s.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than %s", m.Name, s.EndToEnd[0].Name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	spec := func() *benchSpec {
		s, err := loadSpec(specPath)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bound := func(b float64) *float64 { return &b }
	many := func(n int, prefix string) []metricSpec {
		out := make([]metricSpec, n)
		for i := range out {
			out[i] = metricSpec{Name: fmt.Sprintf("%s%d", prefix, i), Unit: "s", Better: "lower", Bound: bound(0.1)}
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change func(s *benchSpec)
		want   string
	}{
		{"workload name with a space", func(s *benchSpec) { s.Workloads[0].Name = "erp extend" }, "does not match"},
		{"metric name with a slash", func(s *benchSpec) { s.EndToEnd[1].Name = "latency/ms" }, "does not match"},
		{"name used twice", func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name }, "used twice"},
		{"one workload", func(s *benchSpec) { s.Workloads = s.Workloads[:1] }, "workloads"},
		{"nine workloads", func(s *benchSpec) {
			for i := 0; len(s.Workloads) < 9; i++ {
				s.Workloads = append(s.Workloads, workloadSpec{Name: fmt.Sprintf("w%d", i), Why: "x"})
			}
		}, "workloads"},
		{"seventeen end-to-end metrics", func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd, many(13, "e")...) }, "end-to-end metrics"},
		{"129 per-layer metrics", func(s *benchSpec) {
			extra := many(129-len(s.PerLayer), "l")
			for i := range extra {
				extra[i].Bound = nil
			}
			s.PerLayer = append(s.PerLayer, extra...)
		}, "per-layer metrics"},
		{"bound above a quarter", func(s *benchSpec) { s.EndToEnd[1].Bound = bound(0.3) }, "bound"},
		{"no setup_s", func(s *benchSpec) { s.EndToEnd[0].Name = "startup_s" }, "setup_s"},
		{"per-layer metric moving a missing end-to-end metric", func(s *benchSpec) { s.EndToEnd[1].Name = "p50_ms" }, "no end-to-end metric"},
		{"per-layer metric on a missing workload", func(s *benchSpec) { s.Workloads[1].Name = "sql" }, "unknown workload"},
		{"bad direction", func(s *benchSpec) { s.PerLayer[0].Better = "faster" }, "better"},
	} {
		s := spec()
		c.change(s)
		err := s.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate() = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}
