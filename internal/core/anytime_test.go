package core

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fault"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// cancelAfterSource cancels a context after N cost evaluations — a
// deterministic-enough way to interrupt a selection mid-run without relying
// on wall-clock timing.
type cancelAfterSource struct {
	whatif.Source
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (s *cancelAfterSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	if s.calls.Add(1) == s.after {
		s.cancel()
	}
	return s.Source.CostWithIndex(q, k)
}

// TestSweepAnytimePrefixBitIdentity pins the anytime contract on the sweep
// (the lazy loop's exact oracle) and on a priced lazy run, whose bounds carry
// the per-candidate reconfiguration charge (the root package pins the
// unpriced lazy loop): a run interrupted mid-construction returns a
// bit-identical PREFIX of the unbounded run's step trace — the in-flight
// step is discarded, never applied from partially evaluated candidates.
func TestSweepAnytimePrefixBitIdentity(t *testing.T) {
	w := gen(t, 2, 10, 20, 50_000, 1)
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)
	free, err := Select(w, whatif.New(m), Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	priced := Options{Budget: budget, Reconfig: Reconfig{Deployed: everyOther(free.Selection), CreatePerByte: 1}}
	for _, c := range []struct {
		name string
		sel  func(*workload.Workload, *whatif.Optimizer, Options) (*Result, error)
		opts Options
	}{
		{"sweep", selectSweep, Options{Budget: budget}},
		{"priced lazy", Select, priced},
	} {
		checkAnytimePrefix(t, c.name, w, m, c.opts, c.sel)
	}
}

func checkAnytimePrefix(t *testing.T, label string, w *workload.Workload, m *costmodel.Model, opts Options,
	sel func(*workload.Workload, *whatif.Optimizer, Options) (*Result, error)) {
	t.Helper()
	full, err := sel(w, whatif.New(m), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) < 3 {
		t.Fatalf("%s: unbounded run took only %d steps; workload too small for the test", label, len(full.Steps))
	}
	if full.Partial || full.StopReason.Interrupted() {
		t.Fatalf("%s: unbounded run reported Partial=%v StopReason=%v", label, full.Partial, full.StopReason)
	}

	// Cut at several depths: cancel after N what-if calls for growing N.
	interrupted := 0
	for _, after := range []int64{1, 50, 400, 2000} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelAfterSource{Source: m, cancel: cancel, after: after}
		o := opts
		o.Context = ctx
		part, err := sel(w, whatif.New(src), o)
		cancel()
		if err != nil {
			t.Fatalf("%s: after %d calls: interrupted run errored: %v", label, after, err)
		}
		if src.calls.Load() < after {
			// The whole run needed fewer calls than the trigger: it must have
			// completed normally.
			if part.Partial {
				t.Errorf("%s: after %d calls: run completed but is marked Partial", label, after)
			}
			continue
		}
		interrupted++
		if !part.Partial || part.StopReason != fault.StopCancelled {
			t.Errorf("%s: after %d calls: Partial=%v StopReason=%v, want partial/cancelled",
				label, after, part.Partial, part.StopReason)
		}
		if len(part.Steps) > len(full.Steps) {
			t.Fatalf("%s: after %d calls: partial run has MORE steps (%d) than unbounded (%d)",
				label, after, len(part.Steps), len(full.Steps))
		}
		for i, s := range part.Steps {
			f := full.Steps[i]
			if s.Kind != f.Kind || s.Index.Key() != f.Index.Key() ||
				s.Ratio != f.Ratio || s.CostAfter != f.CostAfter || s.MemAfter != f.MemAfter {
				t.Fatalf("%s: after %d calls: step %d diverges from unbounded run: %+v vs %+v",
					label, after, i, s, f)
			}
		}
		if part.Memory > opts.Budget {
			t.Errorf("%s: after %d calls: partial memory %d exceeds budget %d", label, after, part.Memory, opts.Budget)
		}
	}
	if interrupted == 0 {
		t.Errorf("%s: no trigger point interrupted the run; prefix property untested", label)
	}
}
