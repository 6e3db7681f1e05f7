package candidates

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqllog"
	"repro/internal/workload"
)

type namedWorkload struct {
	name string
	w    *workload.Workload
}

// differentialWorkloads covers Appendix-C workloads with and without
// full-row inserts (seeds 1-3), TPC-C, a scaled ERP, and a workload built
// to tie.
func differentialWorkloads(t *testing.T) []namedWorkload {
	t.Helper()
	var out []namedWorkload
	for seed := int64(1); seed <= 3; seed++ {
		for _, share := range []float64{0, 0.2} {
			cfg := workload.DefaultGenConfig()
			cfg.Seed, cfg.WriteShare = seed, share
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 4, 20, 30, 10_000
			w, err := workload.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedWorkload{fmt.Sprintf("gen-s%d-w%g", seed, share), w})
		}
	}
	tpcc, err := workload.TPCC(1)
	if err != nil {
		t.Fatal(err)
	}
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Tables, erpCfg.TotalAttrs, erpCfg.Queries = 60, 500, 280
	erpCfg.MinRows, erpCfg.MaxRows = 50_000, 2_000_000
	erpCfg.TotalExecutions = 1_000_000
	erp, err := workload.GenerateERP(erpCfg)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, namedWorkload{"tpcc", tpcc}, namedWorkload{"erp", erp}, namedWorkload{"ties", tiedWorkload(t)})
}

// tiedWorkload has attributes with equal occurrence counts and equal
// selectivities, so representative orderings fall through to the attribute
// ID tie-break and many combinations share H1-M, H2-M and H3-M keys.
func tiedWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	table := workload.Table{ID: 0, Name: "T", Rows: 10_000, Attrs: []int{0, 1, 2, 3, 4, 5, 6, 7}}
	attrs := make([]workload.Attribute, 8)
	for i := range attrs {
		attrs[i] = workload.Attribute{ID: i, Table: 0, Name: fmt.Sprintf("T.a%d", i), Distinct: int64(10 + 90*(i/4)), ValueSize: 4}
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{7, 6, 5, 4, 3, 2, 1, 0}, Freq: 5},
		{ID: 1, Table: 0, Attrs: []int{0, 1, 4, 5}, Freq: 5},
		{ID: 2, Table: 0, Attrs: []int{2, 3, 6, 7}, Freq: 5},
		{ID: 3, Table: 0, Attrs: []int{0, 1, 4, 5}, Freq: 5, Kind: workload.Update},
		{ID: 4, Table: 0, Attrs: []int{2, 3, 6, 7}, Freq: 5},
	}
	w, err := workload.New([]workload.Table{table}, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// sqlWritesWorkload is the Appendix-C write workload (10 tables x 30
// attributes x 50 templates, a fifth of them writes) rendered as a SQL log
// and read back through the parser, which merges each table's identical
// full-row inserts into one template.
func sqlWritesWorkload(tb testing.TB, seed int64) *workload.Workload {
	tb.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Seed, cfg.AttrsPerTable, cfg.WriteShare = seed, 30, 0.2
	w, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	parsed, err := sqllog.ParseString(renderSQL(w))
	if err != nil {
		tb.Fatal(err)
	}
	return parsed
}

// renderSQL writes w as a schema script plus a query log with one
// `-- freq:` annotated statement per template.
func renderSQL(w *workload.Workload) string {
	var b strings.Builder
	col := func(attr int) string { return fmt.Sprintf("a%d", attr) }
	tab := func(t int) string { return fmt.Sprintf("t%d", t) }
	for _, t := range w.Tables {
		cols := make([]string, len(t.Attrs))
		for i, id := range t.Attrs {
			a := w.Attr(id)
			cols[i] = fmt.Sprintf("%s CHAR(%d) CARDINALITY %d", col(id), a.ValueSize, a.Distinct)
		}
		fmt.Fprintf(&b, "CREATE TABLE %s (%s) ROWS %d;\n", tab(t.ID), strings.Join(cols, ", "), t.Rows)
	}
	for _, q := range w.Queries {
		cols := make([]string, len(q.Attrs))
		for i, a := range q.Attrs {
			cols[i] = col(a)
		}
		fmt.Fprintf(&b, "-- freq: %d\n", q.Freq)
		switch q.Kind {
		case workload.Insert:
			marks := strings.TrimSuffix(strings.Repeat("?, ", len(cols)), ", ")
			fmt.Fprintf(&b, "INSERT INTO %s (%s) VALUES (%s);\n", tab(q.Table), strings.Join(cols, ", "), marks)
		case workload.Update:
			fmt.Fprintf(&b, "UPDATE %s SET %s = ?;\n", tab(q.Table), strings.Join(cols, " = ?, "))
		default:
			fmt.Fprintf(&b, "SELECT * FROM %s WHERE %s = ?;\n", tab(q.Table), strings.Join(cols, " = ? AND "))
		}
	}
	return b.String()
}

// sameCombos fails unless got equals want exactly: order, attribute sets,
// weights and the bits of every selectivity.
func sameCombos(t *testing.T, name string, got, want []Combo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d combos, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Selectivity) != math.Float64bits(want[i].Selectivity) {
			t.Fatalf("%s: combo %d selectivity %v, reference %v", name, i, got[i].Selectivity, want[i].Selectivity)
		}
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: combo %d = %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}

var allHeuristics = []Heuristic{H1M, H2M, H3M}

// checkAgainstReference compares Combos and the record-ranked Select with
// the oracle on w at maxWidth for the given heuristics and totals.
func checkAgainstReference(t *testing.T, name string, w *workload.Workload, maxWidth int, hs []Heuristic, totals []int) {
	t.Helper()
	combos, err := Combos(w, maxWidth)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := combosReference(w, maxWidth)
	sameCombos(t, fmt.Sprintf("%s/m%d", name, maxWidth), combos, ref)
	set, err := Enumerate(w, maxWidth)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, h := range hs {
		classes := rankReference(ref, h, maxWidth)
		for _, total := range totals {
			got, err := set.Select(h, total)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := selectReference(w, classes, total, maxWidth)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/m%d/%v/%d: Select differs from the reference (%d vs %d indexes)",
					name, maxWidth, h, total, len(got), len(want))
			}
		}
	}
}

// TestCombosSelectMatchReference: the radix-sorted enumeration and the
// record-ranked selection reproduce the map-and-sort oracle exactly, on
// every workload family, width bound and heuristic, for totals below and
// above the size of the combination universe.
func TestCombosSelectMatchReference(t *testing.T) {
	for _, nw := range differentialWorkloads(t) {
		for m := 1; m <= MaxWidth; m++ {
			checkAgainstReference(t, nw.name, nw.w, m, allHeuristics, []int{m, 500, 15000, 1 << 20})
		}
	}
}

// TestCombosSelectMatchReferenceParsedSQL: the same on the SQL-log write
// workload (seeds 1-3) at the advisor's width, at its candidate totals and
// at one above the universe of about 319 000 combinations.
func TestCombosSelectMatchReferenceParsedSQL(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := sqlWritesWorkload(t, seed)
		checkAgainstReference(t, fmt.Sprintf("sql-writes-s%d", seed), w, MaxWidth, allHeuristics,
			[]int{MaxWidth, 500, 15000, 1 << 20})
	}
}

// TestSelectIgnoresInputOrder: ties fall back to the canonical combination
// order, so the oracle fed the combinations in any order still equals the
// record-ranked selection.
func TestSelectIgnoresInputOrder(t *testing.T) {
	for _, nw := range differentialWorkloads(t) {
		set, err := Enumerate(nw.w, MaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := combosReference(nw.w, MaxWidth)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, h := range allHeuristics {
			classes := rankReference(shuffled, h, MaxWidth)
			for _, total := range []int{MaxWidth, 500} {
				want, _ := set.Select(h, total)
				got := selectReference(nw.w, classes, total, MaxWidth)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%v/%d: the selection depends on the order of the combinations", nw.name, h, total)
				}
			}
		}
	}
}

// TestRadixSortMatchesSort: the record sort orders keys of every used
// width like a comparison sort and keeps equal keys in input order.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tmp []comboRec
	for _, keyBits := range []uint{3, 7, 8, 9, 23, 63} {
		for _, n := range []int{0, 1, 2, 100, 5000} {
			recs := make([]comboRec, n)
			for i := range recs {
				recs[i] = comboRec{key: rng.Uint64() & (1<<keyBits - 1) &^ 0xf0, weight: int64(i)}
			}
			want := append([]comboRec(nil), recs...)
			slices.SortStableFunc(want, func(a, b comboRec) int { return cmp.Compare(a.key, b.key) })
			tmp = radixSort(recs, tmp, keyBits)
			if !slices.Equal(recs, want) {
				t.Fatalf("keyBits %d, n %d: radix sort differs from a stable comparison sort", keyBits, n)
			}
		}
	}
}

// wideTable is one table of n attributes with a single query accessing all
// of them.
func wideTable(t *testing.T, n int) *workload.Workload {
	t.Helper()
	table := workload.Table{ID: 0, Name: "wide", Rows: 1_000_000, Attrs: make([]int, n)}
	attrs := make([]workload.Attribute, n)
	for i := range attrs {
		table.Attrs[i] = i
		attrs[i] = workload.Attribute{ID: i, Table: 0, Name: fmt.Sprintf("wide.a%d", i), Distinct: int64(i%97 + 1), ValueSize: 4}
	}
	q := workload.Query{ID: 0, Table: 0, Attrs: append([]int(nil), table.Attrs...), Freq: 3}
	w, err := workload.New([]workload.Table{table}, attrs, []workload.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCombosTableAttrLimit: a table whose queries access more attributes
// than a packed-key rank field can hold is rejected by name; one at the
// limit still enumerates exactly.
func TestCombosTableAttrLimit(t *testing.T) {
	_, err := Combos(wideTable(t, MaxTableAttrs+1), 1)
	if err == nil || !strings.Contains(err.Error(), `"wide"`) {
		t.Fatalf("Combos over the attribute limit: err = %v, want an error naming table \"wide\"", err)
	}
	w := wideTable(t, MaxTableAttrs)
	combos, err := Combos(w, 1)
	if err != nil {
		t.Fatalf("Combos at the attribute limit: %v", err)
	}
	sameCombos(t, "at-limit", combos, combosReference(w, 1))
}
