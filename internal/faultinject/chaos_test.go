package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/candidates"
	"repro/internal/cophy"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fault"
	"repro/internal/faultinject"
	"repro/internal/heuristics"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// outcome is the strategy-independent slice of a selection result the chaos
// assertions inspect.
type outcome struct {
	sel  workload.Selection
	cost float64
	mem  int64
}

type runner struct {
	name string
	run  func(ctx context.Context, w *workload.Workload, opt *whatif.Optimizer,
		cands []workload.Index, budget int64) (*outcome, error)
}

func chaosWorkload(t *testing.T) (*workload.Workload, []workload.Index, int64) {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 10, 20
	cfg.RowsBase, cfg.Seed, cfg.WriteShare = 50_000, 7, 0.2
	w := workload.MustGenerate(cfg)
	set, err := candidates.Enumerate(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	cands := set.Representatives(w)
	budget := costmodel.New(w, costmodel.SingleIndex).Budget(0.4)
	return w, cands, budget
}

func runners() []runner {
	rs := []runner{
		{"extend", func(ctx context.Context, w *workload.Workload, opt *whatif.Optimizer,
			_ []workload.Index, budget int64) (*outcome, error) {
			res, err := core.Select(w, opt, core.Options{Budget: budget, Context: ctx})
			if err != nil {
				return nil, err
			}
			return &outcome{res.Selection, res.Cost, res.Memory}, nil
		}},
		{"cophy", func(ctx context.Context, w *workload.Workload, opt *whatif.Optimizer,
			cands []workload.Index, budget int64) (*outcome, error) {
			res, err := cophy.Solve(w, opt, cands, cophy.Options{Budget: budget, Context: ctx, Parallelism: 2})
			if err != nil {
				return nil, err
			}
			return &outcome{res.Selection, res.Cost, res.Memory}, nil
		}},
	}
	for rule := heuristics.H1; rule <= heuristics.H5; rule++ {
		rule := rule
		rs = append(rs, runner{rule.String(), func(ctx context.Context, w *workload.Workload,
			opt *whatif.Optimizer, cands []workload.Index, budget int64) (*outcome, error) {
			res, err := heuristics.Select(w, opt, cands, rule, heuristics.Options{Budget: budget, Context: ctx})
			if err != nil {
				return nil, err
			}
			return &outcome{res.Selection, res.Cost, res.Memory}, nil
		}})
	}
	return rs
}

// checkFeasible asserts the chaos invariants every non-error outcome must
// hold: the budget is never exceeded (checked against CLEAN catalog sizes,
// since sizes are never faulted), and the reported cost is finite and
// non-negative no matter what garbage the cost source emitted.
func checkFeasible(t *testing.T, label string, o *outcome, w *workload.Workload, budget int64) {
	t.Helper()
	clean := whatif.New(costmodel.New(w, costmodel.SingleIndex))
	var mem int64
	for _, k := range o.sel {
		mem += clean.IndexSize(k)
	}
	if mem > budget {
		t.Errorf("%s: selection uses %d bytes over budget %d", label, mem, budget)
	}
	if o.mem > budget {
		t.Errorf("%s: reported memory %d exceeds budget %d", label, o.mem, budget)
	}
	if math.IsNaN(o.cost) || math.IsInf(o.cost, 0) || o.cost < 0 {
		t.Errorf("%s: reported cost %v is not a sane total", label, o.cost)
	}
}

// TestChaosValueFaults: poisoned cost values (NaN, +Inf, negative) at a 10%
// pair rate must be absorbed by the optimizer-boundary sanitization — every
// strategy still returns a feasible selection, with no error and no crash.
func TestChaosValueFaults(t *testing.T) {
	w, cands, budget := chaosWorkload(t)
	for _, class := range []faultinject.Class{faultinject.NaN, faultinject.Inf, faultinject.Negative} {
		for _, r := range runners() {
			src := &faultinject.Source{
				Src:   costmodel.New(w, costmodel.SingleIndex),
				Class: class, Seed: 42, Rate: 0.1,
			}
			o, err := r.run(context.Background(), w, whatif.New(src), cands, budget)
			label := r.name + "/" + class.String()
			if err != nil {
				t.Errorf("%s: unexpected error: %v", label, err)
				continue
			}
			checkFeasible(t, label, o, w, budget)
		}
	}
}

// TestChaosLatency: slow cost calls must not break anything (and a short
// context deadline on top must degrade to a feasible partial, not an error).
func TestChaosLatency(t *testing.T) {
	w, cands, budget := chaosWorkload(t)
	for _, r := range runners() {
		src := &faultinject.Source{
			Src:   costmodel.New(w, costmodel.SingleIndex),
			Class: faultinject.Latency, Seed: 3, Rate: 0.05, Latency: 200 * time.Microsecond,
		}
		o, err := r.run(context.Background(), w, whatif.New(src), cands, budget)
		if err != nil {
			t.Errorf("%s/latency: unexpected error: %v", r.name, err)
			continue
		}
		checkFeasible(t, r.name+"/latency", o, w, budget)

		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		src2 := &faultinject.Source{
			Src:   costmodel.New(w, costmodel.SingleIndex),
			Class: faultinject.Latency, Seed: 3, Rate: 0.5, Latency: 500 * time.Microsecond,
		}
		o, err = r.run(ctx, w, whatif.New(src2), cands, budget)
		cancel()
		if err != nil {
			t.Errorf("%s/latency+deadline: interrupted run errored: %v", r.name, err)
			continue
		}
		checkFeasible(t, r.name+"/latency+deadline", o, w, budget)
	}
}

// TestChaosPanics: a cost source that panics (or panics with an error) on the
// Nth call must surface as a *fault.WorkerPanicError from the strategy entry
// point — never crash the process or hang sibling workers — or, if the run
// needs fewer calls than N, complete normally. Call 25 strikes while the
// strategies price the empty selection; call 200 strikes Extend inside its
// candidate evaluation loop, whose own recover must name it.
func TestChaosPanics(t *testing.T) {
	w, cands, budget := chaosWorkload(t)
	for _, class := range []faultinject.Class{faultinject.Panic, faultinject.Error} {
		for _, onCall := range []int64{25, 200} {
			for _, r := range runners() {
				src := &faultinject.Source{
					Src:   costmodel.New(w, costmodel.SingleIndex),
					Class: class, OnCall: onCall,
				}
				o, err := r.run(context.Background(), w, whatif.New(src), cands, budget)
				label := fmt.Sprintf("%s/%s/call%d", r.name, class, onCall)
				if err == nil {
					if src.Calls() >= onCall {
						t.Errorf("%s: fault call was served but no error surfaced", label)
					}
					checkFeasible(t, label, o, w, budget)
					continue
				}
				var pe *fault.WorkerPanicError
				if !errors.As(err, &pe) {
					t.Errorf("%s: error is %T (%v), want *fault.WorkerPanicError", label, err, err)
					continue
				}
				if len(pe.Stack) == 0 {
					t.Errorf("%s: panic error carries no stack", label)
				}
				if class == faultinject.Error && pe.Unwrap() == nil {
					t.Errorf("%s: panic-with-error payload not unwrappable", label)
				}
				if r.name == "extend" && onCall == 200 && pe.Op != "core.evalCandidate" {
					t.Errorf("%s: panic recovered by %s, want the evaluation loop (core.evalCandidate)", label, pe.Op)
				}
			}
		}
	}
}

// TestChaosReplayDeterminism: value faults are keyed by (seed, query, index)
// hashes, not call order, so two runs with the same seed — even with
// CoPhy's parallel node solves — must produce bit-identical selections and
// costs.
func TestChaosReplayDeterminism(t *testing.T) {
	w, cands, budget := chaosWorkload(t)
	for _, r := range runners() {
		run := func() *outcome {
			t.Helper()
			src := &faultinject.Source{
				Src:   costmodel.New(w, costmodel.SingleIndex),
				Class: faultinject.NaN, Seed: 99, Rate: 0.15,
			}
			o, err := r.run(context.Background(), w, whatif.New(src), cands, budget)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			return o
		}
		a, b := run(), run()
		if a.cost != b.cost || a.mem != b.mem {
			t.Errorf("%s: replay diverged: (%v, %d) vs (%v, %d)", r.name, a.cost, a.mem, b.cost, b.mem)
		}
		if len(a.sel) != len(b.sel) {
			t.Fatalf("%s: replay selected %d vs %d indexes", r.name, len(a.sel), len(b.sel))
		}
		for key := range a.sel {
			if !b.sel.Has(a.sel[key]) {
				t.Errorf("%s: replay missing %v", r.name, a.sel[key])
			}
		}
	}
}
