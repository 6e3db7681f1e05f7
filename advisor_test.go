package indexsel

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func smallWorkload(t *testing.T) *Workload {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
	cfg.RowsBase = 50_000
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAdvisorAllStrategies(t *testing.T) {
	w := smallWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.3), WithGap(0.05),
		WithDominanceReduction(), WithTimeLimit(20*time.Second))
	budget := adv.Budget()
	if budget <= 0 {
		t.Fatal("non-positive budget")
	}
	costs := map[Strategy]float64{}
	for _, s := range []Strategy{StrategyExtend, StrategyCoPhy, StrategyH1, StrategyH2, StrategyH3, StrategyH4, StrategyH5} {
		rec, err := adv.Select(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rec.Memory > budget {
			t.Errorf("%v: memory %d exceeds budget %d", s, rec.Memory, budget)
		}
		if rec.Cost > rec.BaseCost {
			t.Errorf("%v: cost %v above base %v", s, rec.Cost, rec.BaseCost)
		}
		if got, _ := adv.Evaluate(rec.Selection()); math.Abs(got-rec.Cost) > 1e-6*got {
			t.Errorf("%v: Evaluate %v != reported %v", s, got, rec.Cost)
		}
		if imp := rec.Improvement(); imp < 0 || imp > 1 {
			t.Errorf("%v: improvement %v outside [0,1]", s, imp)
		}
		costs[s] = rec.Cost
	}
	// The paper's quality ordering at this scale: Extend tracks CoPhy@all
	// within a few percent and beats the rule-based heuristics.
	if costs[StrategyExtend] > costs[StrategyCoPhy]*1.1 {
		t.Errorf("Extend cost %v more than 10%% above CoPhy %v", costs[StrategyExtend], costs[StrategyCoPhy])
	}
	for _, s := range []Strategy{StrategyH1, StrategyH2, StrategyH3} {
		if costs[StrategyExtend] > costs[s]*1.0001 {
			t.Errorf("Extend (%v) worse than %v (%v)", costs[StrategyExtend], s, costs[s])
		}
	}
}

func TestAdvisorExtendTrace(t *testing.T) {
	w := smallWorkload(t)
	adv := NewAdvisor(w, WithBudgetShare(0.4))
	rec, err := adv.Select(StrategyExtend)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Steps) == 0 {
		t.Fatal("no construction steps")
	}
	pts := rec.Frontier()
	if len(pts) != len(rec.Steps)+1 {
		t.Errorf("frontier has %d points for %d steps", len(pts), len(rec.Steps))
	}
	if pts[0].Memory != 0 || pts[0].Cost != rec.BaseCost {
		t.Errorf("frontier origin = %+v", pts[0])
	}
	if adv.WhatIfStats().Calls == 0 {
		t.Error("no what-if calls recorded")
	}
}

func TestAdvisorBudgetOptions(t *testing.T) {
	w := smallWorkload(t)
	byShare := NewAdvisor(w, WithBudgetShare(0.5))
	byBytes := NewAdvisor(w, WithBudgetBytes(byShare.Budget()))
	if byShare.Budget() != byBytes.Budget() {
		t.Errorf("budgets differ: %d vs %d", byShare.Budget(), byBytes.Budget())
	}
	bad := NewAdvisor(w, WithBudgetShare(0))
	if _, err := bad.Select(StrategyExtend); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewAdvisor(w).Select(Strategy(0)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestAdvisorWithCandidates(t *testing.T) {
	w := smallWorkload(t)
	small, err := CandidateSet(w, CandidatesByFrequency, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	all, err := AllCandidates(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) <= len(small) {
		t.Fatalf("AllCandidates (%d) not larger than CandidateSet (%d)", len(all), len(small))
	}
	advSmall := NewAdvisor(w, WithBudgetShare(0.3), WithCandidates(small), WithGap(0.05),
		WithDominanceReduction(), WithTimeLimit(20*time.Second))
	advAll := NewAdvisor(w, WithBudgetShare(0.3), WithCandidates(all), WithGap(0.05),
		WithDominanceReduction(), WithTimeLimit(20*time.Second))
	rs, err := advSmall.Select(StrategyCoPhy)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := advAll.Select(StrategyCoPhy)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's premise: more candidates cannot hurt (up to the gap).
	if ra.Cost > rs.Cost*(1+0.05) {
		t.Errorf("CoPhy@all (%v) worse than CoPhy@small (%v)", ra.Cost, rs.Cost)
	}
}

func TestAdvisorMeasuredSource(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 8, 12
	cfg.RowsBase = 2_000
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 9)
	adv := NewAdvisor(w, WithMeasuredSource(ms), WithBudgetShare(0.5))
	rec, err := adv.Select(StrategyExtend)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost >= rec.BaseCost {
		t.Errorf("measured-cost selection did not improve: %v -> %v", rec.BaseCost, rec.Cost)
	}
	if rec.Memory > adv.Budget() {
		t.Errorf("memory %d exceeds budget %d", rec.Memory, adv.Budget())
	}
}

// A measured source answers probes from the point queries it instantiated,
// by template ID. Handed a workload whose templates differ at some ID, it
// must refuse — a *WorkerPanicError naming ForWorkload — rather than price
// another template's query; rebound with ForWorkload it runs cleanly.
func TestAdvisorMeasuredSourceRejectsForeignTemplates(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 6, 10
	cfg.RowsBase = 2_000
	cfg.Seed = 21
	base, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := PerturbTemplates(base, 21, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 7)

	_, err = NewAdvisor(w, WithMeasuredSource(ms), WithParallelism(1)).Select(StrategyExtend)
	var pe *WorkerPanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "ForWorkload") {
		t.Fatalf("measured source priced a foreign workload: err = %v, want a WorkerPanicError naming ForWorkload", err)
	}
	if _, err := NewAdvisor(w, WithMeasuredSource(ms.ForWorkload(w)), WithParallelism(1)).Select(StrategyExtend); err != nil {
		t.Fatalf("rebound source: %v", err)
	}
	// The source's own workload still needs no rebinding.
	if _, err := NewAdvisor(base, WithMeasuredSource(ms), WithParallelism(1)).Select(StrategyExtend); err != nil {
		t.Fatalf("own workload: %v", err)
	}
}

func TestWorkloadJSONFacade(t *testing.T) {
	w := smallWorkload(t)
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w); err != nil {
		t.Fatal(err)
	}
	w2, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.NumQueries() != w.NumQueries() || w2.NumAttrs() != w.NumAttrs() {
		t.Errorf("round trip changed dimensions")
	}
}

func TestTPCCAndERPFacade(t *testing.T) {
	if _, err := TPCCWorkload(10); err != nil {
		t.Errorf("TPCCWorkload: %v", err)
	}
	cfg := DefaultERPConfig()
	cfg.Tables, cfg.TotalAttrs, cfg.Queries = 20, 150, 80
	cfg.MaxRows = 1_000_000
	if _, err := GenerateERPWorkload(cfg); err != nil {
		t.Errorf("GenerateERPWorkload: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyExtend: "Extend(H6)", StrategyCoPhy: "CoPhy",
		StrategyH1: "H1", StrategyH5: "H5",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy string empty")
	}
}

func TestAdvisorMultiIndexMode(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 1, 8, 10
	cfg.RowsBase = 20_000
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(w, WithCostMode(MultiIndexCosts), WithBudgetShare(0.4),
		WithExtendOptions(ExtendOptions{MaxSteps: 8}))
	rec, err := adv.Select(StrategyExtend)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cost > rec.BaseCost {
		t.Errorf("multi-index mode worsened cost: %v > %v", rec.Cost, rec.BaseCost)
	}
	if rec.Memory > adv.Budget() {
		t.Errorf("budget exceeded")
	}
}
