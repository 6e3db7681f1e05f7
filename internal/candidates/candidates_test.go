package candidates

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/workload"
)

// tiny: one table, attrs 0..3, three queries with overlapping access sets.
func tiny(t *testing.T) *workload.Workload {
	t.Helper()
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 1000, Attrs: []int{0, 1, 2, 3}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "T.a", Distinct: 10, ValueSize: 4},
		{ID: 1, Table: 0, Name: "T.b", Distinct: 100, ValueSize: 4},
		{ID: 2, Table: 0, Name: "T.c", Distinct: 1000, ValueSize: 4},
		{ID: 3, Table: 0, Name: "T.d", Distinct: 5, ValueSize: 4},
	}
	queries := []workload.Query{
		{ID: 0, Table: 0, Attrs: []int{0, 1}, Freq: 10},
		{ID: 1, Table: 0, Attrs: []int{0, 1, 2}, Freq: 5},
		{ID: 2, Table: 0, Attrs: []int{3}, Freq: 7},
	}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCombosEnumeration(t *testing.T) {
	w := tiny(t)
	combos, err := Combos(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: {0},{1},{2},{3},{0,1},{0,2},{1,2},{0,1,2} = 8 combos.
	if len(combos) != 8 {
		t.Fatalf("combos = %d, want 8: %+v", len(combos), combos)
	}
	byKey := map[string]Combo{}
	for _, c := range combos {
		k := ""
		for i, a := range c.Attrs {
			if i > 0 {
				k += ","
			}
			k += string(rune('0' + a))
		}
		byKey[k] = c
	}
	wantWeights := map[string]int64{
		"0": 15, "1": 15, "2": 5, "3": 7,
		"0,1": 15, "0,2": 5, "1,2": 5, "0,1,2": 5,
	}
	for k, want := range wantWeights {
		c, ok := byKey[k]
		if !ok {
			t.Errorf("combo %s missing", k)
			continue
		}
		if c.Weight != want {
			t.Errorf("combo %s weight = %d, want %d", k, c.Weight, want)
		}
	}
	// Combined selectivity of {0,1} = 1/10 * 1/100.
	if got, want := byKey["0,1"].Selectivity, 0.001; got != want {
		t.Errorf("combo 0,1 selectivity = %v, want %v", got, want)
	}
	// Deterministic ordering: sorted output.
	again, _ := Combos(w, 4)
	if !reflect.DeepEqual(combos, again) {
		t.Error("Combos not deterministic")
	}
}

func TestCombosWidthLimit(t *testing.T) {
	w := tiny(t)
	combos, err := Combos(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range combos {
		if len(c.Attrs) > 2 {
			t.Errorf("combo wider than limit: %v", c.Attrs)
		}
	}
	if len(combos) != 7 { // drops only {0,1,2}
		t.Errorf("combos = %d, want 7", len(combos))
	}
	if _, err := Combos(w, 0); err == nil {
		t.Error("Combos(0) accepted")
	}
	if _, err := Combos(w, 9); err == nil {
		t.Error("Combos(9) accepted")
	}
}

func TestCountPermutations(t *testing.T) {
	w := tiny(t)
	combos, _ := Combos(w, 4)
	// 4 singles (1 each) + 3 pairs (2 each) + 1 triple (6) = 4 + 6 + 6 = 16.
	if got := CountPermutations(combos); got != 16 {
		t.Errorf("CountPermutations = %d, want 16", got)
	}
	if got := len(Permutations(combos)); got != 16 {
		t.Errorf("len(Permutations) = %d, want 16", got)
	}
}

func TestPermutationsDistinctAndComplete(t *testing.T) {
	w := tiny(t)
	combos, _ := Combos(w, 4)
	perms := Permutations(combos)
	seen := map[string]bool{}
	for _, k := range perms {
		if seen[k.Key()] {
			t.Errorf("duplicate permutation %s", k.Key())
		}
		seen[k.Key()] = true
	}
	// All 6 orderings of the triple {0,1,2} must appear.
	for _, key := range []string{"0,1,2", "0,2,1", "1,0,2", "1,2,0", "2,0,1", "2,1,0"} {
		if !seen[key] {
			t.Errorf("missing permutation %s", key)
		}
	}
}

func TestRepresentativeOrdering(t *testing.T) {
	w := tiny(t)
	combos, _ := Combos(w, 4)
	g := w.Occurrences() // g = [15, 15, 5, 7]
	for _, c := range combos {
		if len(c.Attrs) == 3 {
			k := Representative(c, g, w)
			// g ties 0 and 1 at 15; selectivity breaks the tie: attr 1
			// (d=100) is more selective than attr 0 (d=10). Then attr 2.
			want := []int{1, 0, 2}
			if !reflect.DeepEqual(k.Attrs, want) {
				t.Errorf("Representative({0,1,2}) = %v, want %v", k.Attrs, want)
			}
		}
	}
	set, err := Enumerate(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	reps := set.Representatives(w)
	if len(reps) != len(combos) {
		t.Fatalf("Representatives returned %d of %d", len(reps), len(combos))
	}
	for i, c := range combos {
		if want := Representative(c, g, w); !reflect.DeepEqual(reps[i], want) {
			t.Errorf("Representatives[%d] = %v, want %v", i, reps[i], want)
		}
	}
}

func TestSelectHeuristics(t *testing.T) {
	w := tiny(t)
	set, err := Enumerate(w, 4)
	if err != nil {
		t.Fatal(err)
	}

	// H1-M with one slot per width: width-1 winner is {0} or {1} (weight 15),
	// width-2 winner is {0,1} (weight 15), width-3 winner {0,1,2}.
	sel, err := set.Select(H1M, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 { // width 4 class is empty
		t.Fatalf("H1M selected %d candidates, want 3: %v", len(sel), sel)
	}
	if w1 := sel[0]; len(w1.Attrs) != 1 || (w1.Attrs[0] != 0 && w1.Attrs[0] != 1) {
		t.Errorf("H1M width-1 pick = %v, want attr 0 or 1", w1)
	}
	sortedAttrs := append([]int(nil), sel[1].Attrs...)
	sort.Ints(sortedAttrs)
	if !reflect.DeepEqual(sortedAttrs, []int{0, 1}) {
		t.Errorf("H1M width-2 pick = %v, want {0,1}", sel[1])
	}

	// H2-M width-1 winner is the most selective single: attr 2 (d=1000).
	sel2, err := set.Select(H2M, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sel2[0].Attrs[0] != 2 {
		t.Errorf("H2M width-1 pick = %v, want attr 2", sel2[0])
	}

	// H3-M ranks by selectivity/weight; width-1: attr2 1e-3/5=2e-4,
	// attr1 1e-2/15=6.7e-4, attr3 0.2/7, attr0 0.1/15 -> attr 2 first.
	sel3, err := set.Select(H3M, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sel3[0].Attrs[0] != 2 {
		t.Errorf("H3M width-1 pick = %v, want attr 2", sel3[0])
	}

	if _, err := set.Select(H1M, 2); err == nil {
		t.Error("Select accepted total below width classes")
	}
}

func TestSelectBudgetSplit(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 3, 20, 50, 10_000
	w := workload.MustGenerate(cfg)
	set, err := Enumerate(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := set.Select(H1M, 40)
	if err != nil {
		t.Fatal(err)
	}
	perWidth := map[int]int{}
	for _, k := range sel {
		perWidth[k.Width()]++
	}
	for m := 1; m <= 4; m++ {
		if perWidth[m] > 10 {
			t.Errorf("width %d received %d candidates, want <= 10", m, perWidth[m])
		}
	}
	if len(sel) > 40 {
		t.Errorf("Select returned %d candidates, want <= 40", len(sel))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, k := range sel {
		if seen[k.Key()] {
			t.Errorf("duplicate candidate %s", k.Key())
		}
		seen[k.Key()] = true
	}
}

func TestHeuristicString(t *testing.T) {
	if H1M.String() != "H1-M" || H2M.String() != "H2-M" || H3M.String() != "H3-M" {
		t.Error("Heuristic.String wrong")
	}
	if Heuristic(9).String() == "" {
		t.Error("unknown heuristic string empty")
	}
}
