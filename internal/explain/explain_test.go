// External test package: the attribution tests compare against
// heuristics.TotalCost, and heuristics itself imports explain for its
// selection provenance, so an internal test package would cycle.
package explain_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/explain"
	"repro/internal/heuristics"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The attribution is a partition, not an estimate: per-index nets must sum
// to BaseCost-Cost with Cost exactly as TotalCost (the shared single-index
// evaluation every strategy uses) computes it.
func TestAttributeMatchesTotalCost(t *testing.T) {
	w := workload.MustTPCC(20)
	m := costmodel.New(w, costmodel.SingleIndex)
	opt := whatif.New(m)

	// A small hand-rolled selection exercising reads, ties and writes.
	sel := workload.NewSelection()
	seen := 0
	for _, q := range w.Queries {
		if q.IsWrite() || len(q.Attrs) == 0 {
			continue
		}
		ix, err := workload.NewIndex(w, q.Attrs[0])
		if err != nil {
			continue
		}
		sel.Add(ix)
		seen++
		if seen >= 6 {
			break
		}
	}
	if seen == 0 {
		t.Fatal("no indexes derived from workload")
	}

	a := explain.Attribute(w, opt, sel)
	wantCost := heuristics.TotalCost(w, opt, sel)
	if !explain.ApproxEqual(a.Cost, wantCost) {
		t.Fatalf("attributed cost %g != TotalCost %g", a.Cost, wantCost)
	}
	if !explain.ApproxEqual(a.TotalImprovement(), a.BaseCost-a.Cost) {
		t.Fatalf("sum of nets %g != improvement %g", a.TotalImprovement(), a.BaseCost-a.Cost)
	}
	for _, row := range a.Indexes {
		if !explain.ApproxEqual(row.Net, row.Benefit-row.Maintenance) {
			t.Errorf("%s: net %g != benefit %g - maintenance %g",
				row.Index, row.Net, row.Benefit, row.Maintenance)
		}
		if row.QueryCount < len(row.TopQueries) {
			t.Errorf("%s: %d top queries exceed count %d",
				row.Index, len(row.TopQueries), row.QueryCount)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		x, y float64
		want bool
	}{
		{1e12, 1e12 + 1e2, true},
		{1e12, 1.1e12, false},
		{0, 1e-12, true},
		{0, 1e-3, false},
		{-5, -5, true},
	}
	for _, c := range cases {
		if got := explain.ApproxEqual(c.x, c.y); got != c.want {
			t.Errorf("ApproxEqual(%g, %g) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func sampleRun(cost float64, ledger []explain.PrunedBucket, att *explain.Attribution) *explain.Run {
	steps := []explain.JournalStep{
		{Kind: "new", Index: "T1(a)", CostAfter: cost + 100, MemAfter: 1000, Candidates: 10, Evaluated: 10},
		{Kind: "extend", Index: "T1(a,b)", CostAfter: cost, MemAfter: 2500, Candidates: 12, Evaluated: 4, CacheServed: 2, Pruned: 6},
	}
	if ledger != nil {
		steps[1].Provenance = &explain.StepProvenance{PruneLedger: ledger, LedgerSkipped: 6}
	}
	return &explain.Run{
		Strategy: "Extend(H6)", BaseCost: cost + 500, Cost: cost,
		MemoryBytes: 2500, BudgetBytes: 4000, Indexes: 1,
		StopReason: "converged", Steps: steps, Attribution: att,
	}
}

func TestDiffIdenticalRuns(t *testing.T) {
	a := sampleRun(1000, nil, nil)
	b := sampleRun(1000, nil, nil)
	d := explain.DiffRuns(a, b)
	if !d.Identical || d.FirstDivergence != nil || !d.FrontierEqual || d.LedgerDiffers {
		t.Fatalf("identical runs diffed as %+v", d)
	}
}

// Lazy vs sweep: same decisions and frontier, different prune ledgers. The
// diff must flag the ledger difference without declaring divergence.
func TestDiffLedgerOnlyDifferenceIsNotDivergence(t *testing.T) {
	lazy := sampleRun(1000, []explain.PrunedBucket{{Lead: 3, Bound: 1.5, Entries: 6, Skipped: 6}}, nil)
	sweep := sampleRun(1000, nil, nil)
	sweep.Steps[1].Pruned = 0
	sweep.Steps[1].Evaluated = 12
	sweep.Steps[1].CacheServed = 0
	d := explain.DiffRuns(lazy, sweep)
	if d.FirstDivergence != nil {
		t.Fatalf("ledger-only difference reported as step divergence: %+v", d.FirstDivergence)
	}
	if !d.FrontierEqual {
		t.Fatal("equal frontiers not detected")
	}
	if !d.LedgerDiffers {
		t.Fatal("differing prune accounting not flagged")
	}
	if !d.Identical {
		t.Fatal("ledger difference must not break Identical")
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	a := sampleRun(1000, nil, nil)
	b := sampleRun(1000, nil, nil)
	b.Steps[1].Index = "T1(a,c)"
	b.Steps[1].CostAfter = 900
	b.Cost = 900
	d := explain.DiffRuns(a, b)
	if d.Identical {
		t.Fatal("diverged runs reported identical")
	}
	if d.FirstDivergence == nil || d.FirstDivergence.Step != 1 ||
		d.FirstDivergence.Reason != "different step chosen" {
		t.Fatalf("bad divergence report: %+v", d.FirstDivergence)
	}
	if d.ObjectiveDelta != -100 {
		t.Fatalf("objective delta %g, want -100", d.ObjectiveDelta)
	}
}

func TestDiffAttributionDeltas(t *testing.T) {
	attA := &explain.Attribution{BaseCost: 1500, Cost: 1000,
		Indexes: []explain.IndexAttribution{{Index: "T1(a)", Net: 500}}}
	attB := &explain.Attribution{BaseCost: 1500, Cost: 1000,
		Indexes: []explain.IndexAttribution{{Index: "T1(a)", Net: 300}, {Index: "T1(b)", Net: 200}}}
	d := explain.DiffRuns(sampleRun(1000, nil, attA), sampleRun(1000, nil, attB))
	if len(d.AttributionDeltas) != 2 {
		t.Fatalf("want 2 attribution deltas, got %+v", d.AttributionDeltas)
	}
	if d.Identical {
		t.Fatal("attribution movement must break Identical")
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DIVERGED") {
		t.Fatalf("text diff missing verdict: %s", buf.String())
	}
}

func TestReadJournalRejectsTornLine(t *testing.T) {
	_, err := explain.ReadJournal(strings.NewReader("{\"name\":\"advisor.select\"}\n{torn"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}

func TestReadJournalNoRun(t *testing.T) {
	if _, err := explain.ReadJournal(strings.NewReader("")); err == nil {
		t.Fatal("empty journal must not parse as a run")
	}
}

func TestWriteReportSmoke(t *testing.T) {
	att := &explain.Attribution{BaseCost: 1500, Cost: 1000,
		Indexes: []explain.IndexAttribution{{Index: "T1(a)", Benefit: 520, Maintenance: 20, Net: 500, QueryCount: 2,
			TopQueries: []explain.QueryAttribution{{Query: 4, Freq: 10, Base: 60, Cost: 8, Benefit: 520}}}}}
	run := sampleRun(1000, []explain.PrunedBucket{{Lead: 3, Bound: 1.5, Entries: 6, Skipped: 6}}, att)
	run.Steps[1].Provenance.ByQuery = []explain.QueryDelta{{Query: 4, Freq: 10, Before: 60, After: 8, Delta: -520}}
	run.Steps[1].Provenance.QueriesChanged = 1
	var buf bytes.Buffer
	if err := explain.WriteReport(&buf, run); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Extend(H6)", "prune ledger", "Attribution", "T1(a)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
