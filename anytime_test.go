package indexsel

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
)

// cancelAfterSource cancels a context after N cost evaluations — a
// deterministic-enough way to interrupt a selection mid-run without relying
// on wall-clock timing.
type cancelAfterSource struct {
	WhatIfSource
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (s *cancelAfterSource) CostWithIndex(q Query, k Index) float64 {
	if s.calls.Add(1) == s.after {
		s.cancel()
	}
	return s.WhatIfSource.CostWithIndex(q, k)
}

// expiringCtx is a context whose deadline passes when expire is called
// rather than at a wall-clock instant, so a test can fire a deadline at an
// exact what-if call.
type expiringCtx struct {
	context.Context
	expired atomic.Bool
}

func (c *expiringCtx) expire() { c.expired.Store(true) }

func (c *expiringCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestAnytimePrefixBitIdentity is the anytime acceptance property: an Extend
// run interrupted mid-construction returns a bit-identical PREFIX of the
// unbounded run's step trace — the in-flight step is discarded, never applied
// from partially evaluated candidates. This pins the lazy (CELF) default,
// whose in-flight batches must be discarded without corrupting its
// persistent bound state; internal/core pins a priced lazy run and the
// sweep oracle.
func TestAnytimePrefixBitIdentity(t *testing.T) {
	w := smallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	budget := m.Budget(0.5)

	full, err := core.Select(w, whatif.New(m), core.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) < 3 {
		t.Fatalf("unbounded run took only %d steps; workload too small for the test", len(full.Steps))
	}
	if full.Partial || full.StopReason.Interrupted() {
		t.Fatalf("unbounded run reported Partial=%v StopReason=%v", full.Partial, full.StopReason)
	}

	// Cut at several depths: cancel after N what-if calls for growing N. The
	// deadline at call 490 fires a dozen steps in, inside a lazy
	// re-evaluation batch and between two of its stop polls, so the tasks
	// after it in the batch still run before the step is discarded.
	interrupted := 0
	for _, tc := range []struct {
		after    int64
		deadline bool
	}{{1, false}, {50, false}, {400, false}, {2000, false}, {490, true}} {
		after, want := tc.after, StopCancelled
		ctx, cancel := context.WithCancel(context.Background())
		var runCtx context.Context = ctx
		trip := cancel
		if tc.deadline {
			ec := &expiringCtx{Context: ctx}
			runCtx, trip, want = ec, ec.expire, StopDeadline
		}
		src := &cancelAfterSource{WhatIfSource: m, cancel: trip, after: after}
		part, err := core.Select(w, whatif.New(src), core.Options{
			Budget: budget, Context: runCtx,
		})
		cancel()
		if err != nil {
			t.Fatalf("after %d calls: interrupted run errored: %v", after, err)
		}
		if src.calls.Load() < after {
			// The whole run needed fewer calls than the trigger: it must have
			// completed normally.
			if part.Partial {
				t.Errorf("after %d calls: run completed but is marked Partial", after)
			}
			continue
		}
		interrupted++
		if !part.Partial || part.StopReason != want {
			t.Errorf("after %d calls: Partial=%v StopReason=%v, want partial/%v",
				after, part.Partial, part.StopReason, want)
		}
		if len(part.Steps) > len(full.Steps) {
			t.Fatalf("after %d calls: partial run has MORE steps (%d) than unbounded (%d)",
				after, len(part.Steps), len(full.Steps))
		}
		for i, s := range part.Steps {
			f := full.Steps[i]
			if s.Kind != f.Kind || s.Index.Key() != f.Index.Key() ||
				s.Ratio != f.Ratio || s.CostAfter != f.CostAfter || s.MemAfter != f.MemAfter {
				t.Fatalf("after %d calls: step %d diverges from unbounded run: %+v vs %+v",
					after, i, s, f)
			}
		}
		if part.Memory > budget {
			t.Errorf("after %d calls: partial memory %d exceeds budget %d", after, part.Memory, budget)
		}
	}
	if interrupted == 0 {
		t.Error("no trigger point interrupted the run; prefix property untested")
	}
}

// TestSelectContextDeadline: a SelectContext under an aggressive deadline
// returns promptly with a feasible partial recommendation — never an error —
// and records the deadline as its stop reason.
func TestSelectContextDeadline(t *testing.T) {
	w := smallWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.5))

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // expire before the run starts: 0-step frontier
	start := time.Now()
	rec, err := adv.SelectContext(ctx, StrategyExtend)
	if err != nil {
		t.Fatalf("expired-deadline select errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("expired-deadline select took %v", elapsed)
	}
	if !rec.Partial || rec.StopReason != StopDeadline {
		t.Errorf("Partial=%v StopReason=%v, want partial/deadline", rec.Partial, rec.StopReason)
	}
	if len(rec.Steps) != 0 {
		t.Errorf("expired deadline still applied %d steps", len(rec.Steps))
	}
	if rec.Memory > rec.Budget {
		t.Errorf("memory %d over budget %d", rec.Memory, rec.Budget)
	}
	// The frontier is still well-formed: it starts at (0, BaseCost).
	pts := rec.Frontier()
	if len(pts) == 0 || pts[0].Memory != 0 || pts[0].Cost != rec.BaseCost {
		t.Errorf("partial frontier malformed: %+v", pts)
	}

	// An unconstrained SelectContext on the same advisor converges normally.
	rec2, err := adv.SelectContext(context.Background(), StrategyExtend)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Partial || rec2.StopReason.Interrupted() {
		t.Errorf("unbounded run reported Partial=%v StopReason=%v", rec2.Partial, rec2.StopReason)
	}
	if rec2.StopReason == StopReason(0) {
		t.Error("completed run carries no stop reason")
	}
}

// TestSelectContextCoPhy: CoPhy under a cancelled context degrades to its
// incumbent (greedy at worst) with DNF and Partial set, instead of erroring.
func TestSelectContextCoPhy(t *testing.T) {
	w := smallWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.4))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := adv.SelectContext(ctx, StrategyCoPhy)
	if err != nil {
		t.Fatalf("cancelled CoPhy errored: %v", err)
	}
	if !rec.Partial || !rec.DNF {
		t.Errorf("Partial=%v DNF=%v, want both", rec.Partial, rec.DNF)
	}
	if rec.StopReason != StopCancelled {
		t.Errorf("StopReason=%v, want cancelled", rec.StopReason)
	}
	if rec.Memory > rec.Budget {
		t.Errorf("memory %d over budget %d", rec.Memory, rec.Budget)
	}
	if math.IsNaN(rec.Cost) || math.IsInf(rec.Cost, 0) || rec.Cost < 0 {
		t.Errorf("incumbent cost %v not sane", rec.Cost)
	}

	// Heuristics under the same dead context: feasible partial as well.
	rec, err = adv.SelectContext(ctx, StrategyH4)
	if err != nil {
		t.Fatalf("cancelled H4 errored: %v", err)
	}
	if !rec.Partial || rec.StopReason != StopCancelled {
		t.Errorf("H4: Partial=%v StopReason=%v, want partial/cancelled", rec.Partial, rec.StopReason)
	}
	if rec.Memory > rec.Budget {
		t.Errorf("H4: memory %d over budget %d", rec.Memory, rec.Budget)
	}
}
