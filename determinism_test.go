package indexsel

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

// TestCostSumsIgnoreMapOrder: H5 and CoPhy report bit-identical costs on
// every repetition and at every node-pool size, on the tiny SQL-log write
// workloads of seeds 3-5. Both sum index maintenance costs over a
// selection; ranging over the Selection map (or CoPhy's chosen-set map)
// made the last bits follow Go's randomized map order there.
func TestCostSumsIgnoreMapOrder(t *testing.T) {
	for seed := int64(3); seed <= 5; seed++ {
		cfg := DefaultGenConfig()
		cfg.Seed, cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.WriteShare = seed, 2, 10, 10, 0.2
		gw, err := GenerateWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := ParseSQL(strings.NewReader(renderSQL(gw)))
		if err != nil {
			t.Fatal(err)
		}
		h5Cands, err := CandidateSet(w, CandidatesByFrequency, 15000, 4)
		if err != nil {
			t.Fatal(err)
		}
		cophyCands, err := CandidateSet(w, CandidatesByFrequency, 500, 4)
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			name  string
			s     Strategy
			cands []Index
			p     int
		}{
			{"h5", StrategyH5, h5Cands, 1},
			{"cophy-p1", StrategyCoPhy, cophyCands, 1},
			{"cophy-p2", StrategyCoPhy, cophyCands, 2},
		}
		want := map[Strategy]float64{}
		for rep := 0; rep < 20; rep++ {
			for _, r := range runs {
				rec, err := NewAdvisor(w, WithBudgetShare(0.5), WithCandidates(r.cands), WithParallelism(r.p),
					WithGap(0.05), WithTimeLimit(20*time.Second)).Select(r.s)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed %d %s rep %d", seed, r.name, rep)
				ref, ok := want[r.s]
				if !ok {
					want[r.s] = rec.Cost
					continue
				}
				if math.Float64bits(rec.Cost) != math.Float64bits(ref) {
					t.Fatalf("%s: cost %v differs from the first run's %v", name, rec.Cost, ref)
				}
			}
		}
	}
}

// TestQueryCostSumsIgnoreMapOrder: the per-query cost of a write adds the
// maintenance of every selected index. The analytic model (both modes) must
// sum it in a fixed order, so pricing one insert against one
// 55-index selection gives the same bits every time.
func TestQueryCostSumsIgnoreMapOrder(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Seed, cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 1, 10, 10
	w, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, sel := insertAgainstEveryIndex(w)
	single := costmodel.New(w, costmodel.SingleIndex)
	for name, src := range map[string]WhatIfSource{
		"single": single,
		"multi":  costmodel.New(w, costmodel.MultiIndex),
	} {
		want := src.QueryCost(q, sel)
		for rep := 0; rep < 100; rep++ {
			if got := src.QueryCost(q, sel); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s rep %d: cost %v differs from the first call's %v", name, rep, got, want)
			}
		}
	}
}

// insertAgainstEveryIndex returns an insert into w's first table and the
// selection of every one- and two-attribute index on that table: an insert
// maintains all of them, with costs of varied magnitude.
func insertAgainstEveryIndex(w *Workload) (Query, Selection) {
	attrs := w.Tables[0].Attrs
	q := Query{ID: 0, Table: 0, Kind: workload.Insert, Attrs: attrs, Freq: 1}
	sel := workload.NewSelection()
	for i, a := range attrs {
		sel.Add(Index{Table: 0, Attrs: []int{a}})
		for _, b := range attrs[i+1:] {
			sel.Add(Index{Table: 0, Attrs: []int{a, b}})
		}
	}
	return q, sel
}

// renderSQL writes w as a schema script plus a query log with one
// `-- freq:` annotated statement per template.
func renderSQL(w *Workload) string {
	var b strings.Builder
	for _, t := range w.Tables {
		cols := make([]string, len(t.Attrs))
		for i, id := range t.Attrs {
			a := w.Attr(id)
			cols[i] = fmt.Sprintf("a%d CHAR(%d) CARDINALITY %d", id, a.ValueSize, a.Distinct)
		}
		fmt.Fprintf(&b, "CREATE TABLE t%d (%s) ROWS %d;\n", t.ID, strings.Join(cols, ", "), t.Rows)
	}
	for _, q := range w.Queries {
		cols := make([]string, len(q.Attrs))
		for i, a := range q.Attrs {
			cols[i] = fmt.Sprintf("a%d", a)
		}
		fmt.Fprintf(&b, "-- freq: %d\n", q.Freq)
		switch q.Kind {
		case workload.Insert:
			marks := strings.TrimSuffix(strings.Repeat("?, ", len(cols)), ", ")
			fmt.Fprintf(&b, "INSERT INTO t%d (%s) VALUES (%s);\n", q.Table, strings.Join(cols, ", "), marks)
		case workload.Update:
			fmt.Fprintf(&b, "UPDATE t%d SET %s = ?;\n", q.Table, strings.Join(cols, " = ?, "))
		default:
			fmt.Fprintf(&b, "SELECT * FROM t%d WHERE %s = ?;\n", q.Table, strings.Join(cols, " = ? AND "))
		}
	}
	return b.String()
}
