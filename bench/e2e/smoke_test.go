package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A tiny run of every workload, untraced and traced, must pass its checks
// and report every metric it declares.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				wl, err := lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				inputs := filepath.Join(dir, "inputs")
				if err := os.Mkdir(inputs, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := wl.generate(inputs, 1, true); err != nil {
					t.Fatal(err)
				}
				r := newRunner(name, dir, 1, 50*time.Millisecond, true, traced)
				if err := r.run(wl); err != nil {
					t.Fatal(err)
				}
				if !r.res.Correct {
					t.Fatalf("checks failed: %v (failed %d of %d)", r.res.Checks, r.res.Failed, r.res.Attempted)
				}
				want := len(e2eMetrics)
				if traced {
					want = len(layerMetrics)
					for _, lm := range layerMetrics {
						if _, ok := r.res.Metrics[lm.Name]; !ok {
							t.Errorf("per-layer metric %s missing", lm.Name)
						}
					}
					if len(r.tr.named("bench."+name)) != 1 {
						t.Error("no root span")
					}
				} else {
					for _, m := range e2eMetrics {
						if v, ok := r.res.Metrics[m.Name]; !ok || !(v.Value > 0) {
							t.Errorf("end-to-end metric %s missing or not positive: %+v", m.Name, v)
						}
					}
				}
				if len(r.res.Metrics) != want {
					t.Errorf("%d metrics reported, want exactly %d", len(r.res.Metrics), want)
				}
			})
		}
	}
}
