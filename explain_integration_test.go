package indexsel

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/explain"
)

func explainWorkloads(t *testing.T) map[string]*Workload {
	t.Helper()
	tpcc, err := TPCCWorkload(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultERPConfig()
	cfg.Tables, cfg.TotalAttrs, cfg.Queries = 20, 150, 80
	cfg.MaxRows = 1_000_000
	erp, err := GenerateERPWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Workload{"TPCC": tpcc, "ERP": erp}
}

// End-to-end provenance: a WithExplain run must carry a per-step provenance
// record and an attribution whose nets sum exactly to the improvement, and
// its trace journal must round-trip through ReadRunJournal into the same run.
func TestExplainEndToEnd(t *testing.T) {
	for name, w := range explainWorkloads(t) {
		var journal bytes.Buffer
		tel := &Telemetry{Tracer: NewTracer(4096, &journal)}
		adv := NewAdvisor(w, WithBudgetShare(0.3), WithExplain(), WithTelemetry(tel))
		rec, err := adv.Select(StrategyExtend)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		if rec.Provenance == nil || len(rec.Provenance.Steps) != len(rec.Steps) {
			t.Fatalf("%s: want %d provenance steps, got %+v", name, len(rec.Steps), rec.Provenance)
		}
		if rec.Attribution == nil {
			t.Fatalf("%s: no attribution on explained run", name)
		}
		improvement := rec.BaseCost - rec.Cost
		if got := rec.Attribution.TotalImprovement(); !explain.ApproxEqual(got, improvement) {
			t.Errorf("%s: attribution nets sum to %g, improvement is %g", name, got, improvement)
		}
		if !explain.ApproxEqual(rec.Attribution.Cost, rec.Cost) {
			t.Errorf("%s: attribution cost %g != recommendation cost %g",
				name, rec.Attribution.Cost, rec.Cost)
		}
		if len(rec.Attribution.Indexes) != len(rec.Indexes) {
			t.Errorf("%s: attribution covers %d indexes, recommendation has %d",
				name, len(rec.Attribution.Indexes), len(rec.Indexes))
		}

		run, err := ReadRunJournal(bytes.NewReader(journal.Bytes()))
		if err != nil {
			t.Fatalf("%s: reading journal back: %v", name, err)
		}
		if len(run.Steps) != len(rec.Steps) {
			t.Errorf("%s: journal has %d steps, recommendation %d", name, len(run.Steps), len(rec.Steps))
		}
		if !explain.ApproxEqual(run.Cost, rec.Cost) || !explain.ApproxEqual(run.BaseCost, rec.BaseCost) {
			t.Errorf("%s: journal cost %g/%g != recommendation %g/%g",
				name, run.BaseCost, run.Cost, rec.BaseCost, rec.Cost)
		}
		if run.Attribution == nil {
			t.Errorf("%s: attribution did not survive the journal round-trip", name)
		}
		for i, s := range run.Steps {
			if s.Provenance == nil {
				t.Errorf("%s: journal step %d has no provenance", name, i)
			}
		}

		// A run diffed against itself must be certified identical.
		if d := explain.DiffRuns(run, run); !d.Identical || d.FirstDivergence != nil {
			t.Errorf("%s: self-diff not identical: %+v", name, d)
		}

		// The rendered report must not be empty and must name the strategy.
		var report bytes.Buffer
		if err := WriteRunReport(&report, run); err != nil {
			t.Fatalf("%s: report: %v", name, err)
		}
		if report.Len() == 0 || !bytes.Contains(report.Bytes(), []byte("Extend")) {
			t.Errorf("%s: empty or strategy-less report:\n%s", name, report.String())
		}
	}
}

// Cancellation must never tear the journal: every line the tracer flushed
// before and after the deadline cut must still be complete, valid JSON.
func TestExplainJournalValidAfterCancellation(t *testing.T) {
	w, err := TPCCWorkload(20)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	tel := &Telemetry{Tracer: NewTracer(4096, &journal)}
	adv := NewAdvisor(w, WithBudgetShare(0.5), WithExplain(), WithTelemetry(tel))
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	if _, err := adv.SelectContext(ctx, StrategyExtend); err != nil {
		t.Fatal(err) // anytime contract: deadline yields a partial result, not an error
	}
	for i, line := range bytes.Split(journal.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !json.Valid(line) {
			t.Fatalf("journal line %d is torn: %q", i+1, line)
		}
	}
}
