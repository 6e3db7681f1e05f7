package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// traceEqual asserts two results carry bit-identical step traces: same
// kinds, keys, replaced indexes, ratios, costs, memory, and runner-ups.
func traceEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.InitialCost != b.InitialCost {
		t.Errorf("%s: initial cost %v vs %v", label, a.InitialCost, b.InitialCost)
	}
	if a.Cost != b.Cost || a.Memory != b.Memory {
		t.Errorf("%s: final (%v, %d) vs (%v, %d)", label, a.Cost, a.Memory, b.Cost, b.Memory)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: %d steps vs %d", label, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		x, y := a.Steps[i], b.Steps[i]
		if x.Kind != y.Kind || x.Index.Key() != y.Index.Key() {
			t.Fatalf("%s: step %d is %v %v vs %v %v", label, i, x.Kind, x.Index, y.Kind, y.Index)
		}
		if (x.Replaced == nil) != (y.Replaced == nil) {
			t.Errorf("%s: step %d replaced mismatch", label, i)
		} else if x.Replaced != nil && x.Replaced.Key() != y.Replaced.Key() {
			t.Errorf("%s: step %d replaced %v vs %v", label, i, x.Replaced, y.Replaced)
		}
		if x.Ratio != y.Ratio || x.CostAfter != y.CostAfter || x.MemAfter != y.MemAfter {
			t.Errorf("%s: step %d numbers (%v, %v, %d) vs (%v, %v, %d)",
				label, i, x.Ratio, x.CostAfter, x.MemAfter, y.Ratio, y.CostAfter, y.MemAfter)
		}
		if (x.RunnerUp == nil) != (y.RunnerUp == nil) {
			t.Errorf("%s: step %d runner-up presence mismatch", label, i)
		} else if x.RunnerUp != nil &&
			(x.RunnerUp.Kind != y.RunnerUp.Kind ||
				x.RunnerUp.Index.Key() != y.RunnerUp.Index.Key() ||
				x.RunnerUp.Ratio != y.RunnerUp.Ratio) {
			t.Errorf("%s: step %d runner-up %+v vs %+v", label, i, *x.RunnerUp, *y.RunnerUp)
		}
	}
	if len(a.Selection) != len(b.Selection) {
		t.Errorf("%s: selections differ: %d vs %d indexes", label, len(a.Selection), len(b.Selection))
	}
	for key := range a.Selection {
		if !b.Selection.Has(a.Selection[key]) {
			t.Errorf("%s: %v missing from second selection", label, a.Selection[key])
		}
	}
}

// TestParallelTraceMatchesSerial is the determinism property the worker pool
// guarantees: for every workload seed and feature combination, running
// Select with Parallelism 1 and Parallelism N yields identical step traces,
// on both the lazy loop and the uncached sweep.
func TestParallelTraceMatchesSerial(t *testing.T) {
	for _, seed := range []int64{3, 11, 29, 47} {
		w := gen(t, 3, 14, 40, 100_000, seed)
		m, _ := setup(w)
		budget := m.Budget(0.5)
		features := []Options{
			{},
			{TrackSecondBest: true, DropUnused: true},
			{PairSteps: true, PairLimit: 60, TrackSecondBest: true},
			{TopNSingle: 6},
			{ExactEvaluation: true},
		}
		for fi, feat := range features {
			// The baseline is the seed behavior: the serial uncached sweep.
			ref := feat
			ref.Budget, ref.Parallelism = budget, 1
			baseline, err := selectSweep(w, whatif.New(m), ref)
			if err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				p     int
				sweep bool
			}{
				{1, false}, // serial + lazy (the default path)
				{4, false}, // parallel + lazy
				{7, false}, // worker count not dividing task count
				{4, true},  // parallel sweep
				{7, true},
			}
			for vi, v := range variants {
				opts := feat
				opts.Budget, opts.Parallelism = budget, v.p
				sel := Select
				if v.sweep {
					sel = selectSweep
				}
				got, err := sel(w, whatif.New(m), opts)
				if err != nil {
					t.Fatal(err)
				}
				traceEqual(t, fmt.Sprintf("seed %d feature %d variant %d", seed, fi, vi), baseline, got)
			}
		}
	}
}

// TestIncrementalMatchesFullRecomputation runs with TrackSecondBest so that
// the top-2 candidates of every construction step are exposed in the trace:
// if any cached gain deviated from a from-scratch recomputation, the chosen
// step or its runner-up (or their ratios) would differ somewhere along the
// trace. Write-heavy workloads exercise the maintenance terms too.
func TestIncrementalMatchesFullRecomputation(t *testing.T) {
	for _, writeShare := range []float64{0, 0.3} {
		for _, seed := range []int64{5, 19} {
			cfg := workload.DefaultGenConfig()
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 15, 40
			cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, seed, writeShare
			w := workload.MustGenerate(cfg)
			m, _ := setup(w)
			opts := Options{
				Budget:          m.Budget(0.5),
				TrackSecondBest: true,
				DropUnused:      true,
				Parallelism:     1,
			}
			a, err := selectSweep(w, whatif.New(m), opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Select(w, whatif.New(m), opts)
			if err != nil {
				t.Fatal(err)
			}
			traceEqual(t, fmt.Sprintf("writeShare %v seed %d", writeShare, seed), a, b)
			// The incremental run's bookkeeping must still agree with a
			// from-scratch model evaluation of its final selection.
			if got, want := b.Cost, m.TotalCost(b.Selection); math.Abs(got-want) > 1e-6*want {
				t.Errorf("incremental cost %v != model %v", got, want)
			}
		}
	}
}

// TestParallelWithWorkerPoolUnderRace exists to drag the actual goroutine
// pool through the race detector on every CI run, including the sharded
// cost/maintenance caches being filled concurrently.
func TestParallelWithWorkerPoolUnderRace(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 4, 20, 50
	cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, 71, 0.2
	w := workload.MustGenerate(cfg)
	m, _ := setup(w)
	res, err := Select(w, whatif.New(m), Options{
		Budget:      m.Budget(0.6),
		Parallelism: 8,
		PairSteps:   true,
		PairLimit:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no steps under parallel evaluation")
	}
	if got, want := res.Cost, m.TotalCost(res.Selection); math.Abs(got-want) > 1e-6*want {
		t.Errorf("parallel run cost %v != model %v", got, want)
	}
}

// TestReconfigForcesSerial: the Reconfig callback must see single-threaded
// calls (its thread-safety is unknown), and the uncached sweep decides every
// step because R couples gains to the whole selection.
func TestReconfigForcesSerial(t *testing.T) {
	w := gen(t, 2, 10, 20, 50_000, 13)
	m, _ := setup(w)
	inCall := false
	s := newSelector(w, whatif.New(m), Options{
		Budget:      m.Budget(0.5),
		Parallelism: 8,
		Reconfig: func(sel workload.Selection) float64 {
			if inCall {
				panic("Reconfig reentered concurrently")
			}
			inCall = true
			defer func() { inCall = false }()
			return 0
		},
	})
	if s.workers != 1 {
		t.Errorf("Reconfig run uses %d workers, want 1", s.workers)
	}
	if s.lazy != nil {
		t.Error("Reconfig run decides steps with the lazy loop instead of the sweep")
	}
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
}
