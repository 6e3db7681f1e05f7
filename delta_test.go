package indexsel

import (
	"context"
	"testing"

	"repro/internal/workload"
)

func deltaTestWorkload(t *testing.T) *Workload {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 8, 10
	cfg.Seed = 17
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	return w
}

func selectionKeys(s Selection) []string {
	keys := []string{}
	for _, k := range s.Sorted() {
		keys = append(keys, k.Key())
	}
	return keys
}

func TestAdvisorPlanDeltaLifecycle(t *testing.T) {
	w := deltaTestWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.3))

	// Cold start: empty deployed set -> creates-only, guardrail-accepted plan.
	plan, err := adv.PlanDelta(context.Background(), Selection{}, DeltaOptions{})
	if err != nil {
		t.Fatalf("PlanDelta: %v", err)
	}
	if !plan.Accepted {
		t.Fatalf("cold-start plan rejected: %+v", plan.Guardrail)
	}
	if len(plan.Creates) == 0 || len(plan.Drops) != 0 {
		t.Fatalf("cold-start delta = %d creates / %d drops, want creates only",
			len(plan.Creates), len(plan.Drops))
	}
	if plan.Memory > adv.Budget() {
		t.Fatalf("plan memory %d exceeds advisor budget %d", plan.Memory, adv.Budget())
	}
	if plan.Guardrail == nil || len(plan.Guardrail.Queries) == 0 {
		t.Fatal("plan carries no guardrail evidence")
	}

	deployed, ok := ApplyDeltaPlan(Selection{}, plan)
	if !ok {
		t.Fatal("ApplyDeltaPlan refused an accepted plan")
	}
	if got, want := selectionKeys(deployed), selectionKeys(plan.Target); len(got) != len(want) {
		t.Fatalf("applied selection %v, want target %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("applied selection %v, want target %v", got, want)
			}
		}
	}

	// Stable workload: re-planning against the fresh deployment is a no-op.
	plan2, err := adv.PlanDelta(context.Background(), deployed, DeltaOptions{})
	if err != nil {
		t.Fatalf("re-plan: %v", err)
	}
	if !plan2.Empty() {
		t.Fatalf("stable re-plan is not empty: %d creates / %d drops",
			len(plan2.Creates), len(plan2.Drops))
	}
	if !plan2.Accepted {
		t.Fatal("empty delta rejected by guardrail")
	}
}

func TestAdvisorPlanDeltaAfterDrift(t *testing.T) {
	w := deltaTestWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.3))
	plan, err := adv.PlanDelta(context.Background(), Selection{}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deployed, _ := ApplyDeltaPlan(Selection{}, plan)

	drifted, err := PerturbTemplates(w, 99, 4, 4)
	if err != nil {
		t.Fatalf("PerturbTemplates: %v", err)
	}
	adv2 := NewAdvisor(drifted, WithBudgetShare(0.3))
	plan2, err := adv2.PlanDelta(context.Background(), deployed, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the delta is, applying it must reconcile deployed into Target.
	if plan2.Accepted {
		next, ok := ApplyDeltaPlan(deployed, plan2)
		if !ok {
			t.Fatal("ApplyDeltaPlan refused an accepted plan")
		}
		got, want := selectionKeys(next), selectionKeys(plan2.Target)
		if len(got) != len(want) {
			t.Fatalf("reconciled %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("reconciled %v, want %v", got, want)
			}
		}
	} else if len(plan2.Guardrail.Violations) == 0 {
		t.Fatal("rejected plan carries no violating query")
	}
}

func TestApplyDeltaPlanRefusesRejected(t *testing.T) {
	w := deltaTestWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.3))
	plan, err := adv.PlanDelta(context.Background(), Selection{}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Accepted = false
	deployed := Selection{}
	got, ok := ApplyDeltaPlan(deployed, plan)
	if ok || len(got) != 0 {
		t.Fatalf("ApplyDeltaPlan applied a rejected plan: ok=%v sel=%v", ok, selectionKeys(got))
	}
	if _, ok := ApplyDeltaPlan(deployed, nil); ok {
		t.Fatal("ApplyDeltaPlan applied a nil plan")
	}
}

func TestParseIndexKeyRoundTrip(t *testing.T) {
	w := deltaTestWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.3))
	plan, err := adv.PlanDelta(context.Background(), Selection{}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range plan.Target.Sorted() {
		back, err := ParseIndexKey(w, k.Key())
		if err != nil {
			t.Fatalf("ParseIndexKey(%q): %v", k.Key(), err)
		}
		if back.Key() != k.Key() {
			t.Fatalf("round trip %q -> %q", k.Key(), back.Key())
		}
	}
	if _, err := ParseIndexKey(w, "999999"); err == nil {
		t.Fatal("ParseIndexKey resolved a bogus attribute ID")
	}
}

func TestPlanDeltaAnytimeAtRoot(t *testing.T) {
	w := deltaTestWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := adv.PlanDelta(ctx, Selection{}, DeltaOptions{})
	if err != nil {
		t.Fatalf("cancelled PlanDelta errored: %v", err)
	}
	if !plan.Partial {
		t.Fatal("cancelled PlanDelta not marked partial")
	}
}

func TestWorkloadProfileCompareAtRoot(t *testing.T) {
	w := deltaTestWorkload(t)
	p1 := NewWorkloadProfile(w, nil)
	if s := CompareProfiles(p1, p1); s.Score != 0 {
		t.Fatalf("self-compare score = %v, want 0", s.Score)
	}
	drifted, err := PerturbTemplates(w, 5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewWorkloadProfile(drifted, nil)
	if s := CompareProfiles(p1, p2); s.Score <= 0 {
		t.Fatalf("drifted compare score = %v, want > 0", s.Score)
	}
}

// A measured source declares its costs measured, so every caller of the
// what-if optimizer gets exact evaluation without a flag: a cold PlanDelta
// (nothing deployed, free reconfiguration) runs the same Extend search as
// Select, so it makes at least as many what-if calls (the guardrail adds its
// own) and creates exactly Select's indexes.
func TestPlanDeltaMeasuredSourceEvaluatesExactly(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 8, 12
	cfg.RowsBase, cfg.Seed = 20_000, 3
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 7)
	opts := []Option{WithMeasuredSource(ms), WithBudgetShare(0.3)}

	sel := NewAdvisor(w, opts...)
	rec, err := sel.Select(StrategyExtend)
	if err != nil {
		t.Fatal(err)
	}
	delta := NewAdvisor(w, opts...)
	plan, err := delta.PlanDelta(context.Background(), Selection{}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := delta.WhatIfStats().Calls, sel.WhatIfStats().Calls; got < want {
		t.Errorf("PlanDelta made %d what-if calls, Select %d: PlanDelta derived measured costs", got, want)
	}
	got := selectionKeys(workload.NewSelection(plan.Creates...))
	want := selectionKeys(workload.NewSelection(rec.Indexes...))
	if len(got) != len(want) {
		t.Fatalf("PlanDelta creates %v, Select chose %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("PlanDelta creates %v, Select chose %v", got, want)
		}
	}
}
