package workload

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// tiny returns a two-table workload used across tests:
// table 0 (rows 1000): attrs 0,1,2; table 1 (rows 500): attrs 3,4.
func tiny(t *testing.T) *Workload {
	t.Helper()
	tables := []Table{
		{ID: 0, Name: "A", Rows: 1000, Attrs: []int{0, 1, 2}},
		{ID: 1, Name: "B", Rows: 500, Attrs: []int{3, 4}},
	}
	attrs := []Attribute{
		{ID: 0, Table: 0, Name: "A.x", Distinct: 10, ValueSize: 4},
		{ID: 1, Table: 0, Name: "A.y", Distinct: 100, ValueSize: 8},
		{ID: 2, Table: 0, Name: "A.z", Distinct: 1000, ValueSize: 4},
		{ID: 3, Table: 1, Name: "B.u", Distinct: 5, ValueSize: 2},
		{ID: 4, Table: 1, Name: "B.v", Distinct: 500, ValueSize: 4},
	}
	queries := []Query{
		{ID: 0, Table: 0, Attrs: []int{0, 1}, Freq: 10},
		{ID: 1, Table: 0, Attrs: []int{1, 2}, Freq: 5},
		{ID: 2, Table: 1, Attrs: []int{3}, Freq: 20},
	}
	w, err := New(tables, attrs, queries)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	base := func() ([]Table, []Attribute, []Query) {
		return []Table{{ID: 0, Name: "A", Rows: 10, Attrs: []int{0}}},
			[]Attribute{{ID: 0, Table: 0, Name: "A.x", Distinct: 2, ValueSize: 4}},
			[]Query{{ID: 0, Table: 0, Attrs: []int{0}, Freq: 1}}
	}
	cases := []struct {
		name   string
		mutate func(*[]Table, *[]Attribute, *[]Query)
	}{
		{"non-dense table ID", func(ts *[]Table, _ *[]Attribute, _ *[]Query) { (*ts)[0].ID = 1 }},
		{"zero rows", func(ts *[]Table, _ *[]Attribute, _ *[]Query) { (*ts)[0].Rows = 0 }},
		{"unknown table attr", func(ts *[]Table, _ *[]Attribute, _ *[]Query) { (*ts)[0].Attrs = []int{7} }},
		{"non-dense attr ID", func(_ *[]Table, as *[]Attribute, _ *[]Query) { (*as)[0].ID = 3 }},
		{"zero distinct", func(_ *[]Table, as *[]Attribute, _ *[]Query) { (*as)[0].Distinct = 0 }},
		{"zero value size", func(_ *[]Table, as *[]Attribute, _ *[]Query) { (*as)[0].ValueSize = 0 }},
		{"attr on unknown table", func(_ *[]Table, as *[]Attribute, _ *[]Query) { (*as)[0].Table = 5 }},
		{"empty query", func(_ *[]Table, _ *[]Attribute, qs *[]Query) { (*qs)[0].Attrs = nil }},
		{"zero freq", func(_ *[]Table, _ *[]Attribute, qs *[]Query) { (*qs)[0].Freq = 0 }},
		{"unknown query attr", func(_ *[]Table, _ *[]Attribute, qs *[]Query) { (*qs)[0].Attrs = []int{9} }},
		{"duplicate query attr", func(_ *[]Table, _ *[]Attribute, qs *[]Query) { (*qs)[0].Attrs = []int{0, 0} }},
		{"non-dense query ID", func(_ *[]Table, _ *[]Attribute, qs *[]Query) { (*qs)[0].ID = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, as, qs := base()
			tc.mutate(&ts, &as, &qs)
			if _, err := New(ts, as, qs); err == nil {
				t.Fatalf("New accepted invalid input (%s)", tc.name)
			}
		})
	}
	ts, as, qs := base()
	if _, err := New(ts, as, qs); err != nil {
		t.Fatalf("New rejected valid input: %v", err)
	}
}

func TestDerivedStats(t *testing.T) {
	w := tiny(t)
	if got := w.NumAttrs(); got != 5 {
		t.Errorf("NumAttrs = %d, want 5", got)
	}
	if got := w.NumQueries(); got != 3 {
		t.Errorf("NumQueries = %d, want 3", got)
	}
	g := w.Occurrences()
	want := []int64{10, 15, 5, 20, 0}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("Occurrences = %v, want %v", g, want)
	}
	if got := w.AvgQueryWidth(); got != 5.0/3 {
		t.Errorf("AvgQueryWidth = %v, want %v", got, 5.0/3)
	}
	if got := w.TotalFreq(); got != 35 {
		t.Errorf("TotalFreq = %d, want 35", got)
	}
	if got := queriesOnTable(w, 1); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("queries on table 1 = %v, want [2]", got)
	}
	if got := w.Tables[w.TableOf(3)].Rows; got != 500 {
		t.Errorf("rows of attribute 3's table = %d, want 500", got)
	}
	if got := w.Attr(1).Selectivity(); got != 0.01 {
		t.Errorf("Selectivity = %v, want 0.01", got)
	}
}

func TestIndexConstruction(t *testing.T) {
	w := tiny(t)
	k, err := NewIndex(w, 1, 0)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if k.Table != 0 || len(k.Attrs) != 2 || k.Leading() != 1 {
		t.Errorf("index = %+v, want table 0, width 2, leading 1", k)
	}
	if !k.Contains(0) || k.Contains(2) {
		t.Errorf("Contains wrong: %+v", k)
	}
	k2 := k.Append(2)
	if len(k2.Attrs) != 3 || len(k.Attrs) != 2 {
		t.Errorf("Append mutated receiver or wrong width: %v -> %v", k, k2)
	}
	if k2.Key() != "1,0,2" {
		t.Errorf("Key = %q, want \"1,0,2\"", k2.Key())
	}
	back, err := ParseIndexKey(w, k2.Key())
	if err != nil || !reflect.DeepEqual(back, k2) {
		t.Errorf("ParseIndexKey round trip: got %+v, %v", back, err)
	}

	for _, bad := range [][]int{{}, {0, 3}, {0, 0}, {99}} {
		if _, err := NewIndex(w, bad...); err == nil {
			t.Errorf("NewIndex(%v) accepted invalid attrs", bad)
		}
	}
	if _, err := ParseIndexKey(w, "not-a-key"); err == nil {
		t.Error("ParseIndexKey accepted garbage")
	}
}

func TestCoverablePrefixAndApplicable(t *testing.T) {
	w := tiny(t)
	q := w.Queries[0] // attrs {0,1} on table 0
	cases := []struct {
		attrs  []int
		prefix int
		app    bool
	}{
		{[]int{0}, 1, true},
		{[]int{0, 1}, 2, true},
		{[]int{0, 2}, 1, true},    // second attr not in q
		{[]int{0, 2, 1}, 1, true}, // prefix stops at first miss
		{[]int{2}, 0, false},      // leading attr not in q
		{[]int{2, 0}, 0, false},
	}
	for _, tc := range cases {
		k := MustIndex(w, tc.attrs...)
		if got := len(CoverablePrefix(q, k)); got != tc.prefix {
			t.Errorf("CoverablePrefix(q0, %v) = %d attrs, want %d", tc.attrs, got, tc.prefix)
		}
		if got := Applicable(q, k); got != tc.app {
			t.Errorf("Applicable(q0, %v) = %v, want %v", tc.attrs, got, tc.app)
		}
	}
	// Cross-table index is never applicable.
	kb := MustIndex(w, 3)
	if Applicable(q, kb) {
		t.Error("index on table 1 applicable to query on table 0")
	}
}

func TestSelectionOps(t *testing.T) {
	w := tiny(t)
	k1, k2 := MustIndex(w, 0), MustIndex(w, 1, 2)
	s := NewSelection(k1)
	if !s.Has(k1) || s.Has(k2) {
		t.Fatalf("NewSelection contents wrong: %v", s)
	}
	if !s.Add(k2) || s.Add(k2) {
		t.Error("Add should report first insert true, second false")
	}
	c := s.Clone()
	if !s.Remove(k1) || s.Remove(k1) {
		t.Error("Remove should report first delete true, second false")
	}
	if !c.Has(k1) {
		t.Error("Clone shares storage with original")
	}
	sorted := c.Sorted()
	keys := []string{sorted[0].Key(), sorted[1].Key()}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("Sorted not sorted: %v", keys)
	}
}

func TestGenerateAppendixC(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.RowsBase = 10_000 // keep d_i ranges small for the test
	w, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := len(w.Tables); got != 10 {
		t.Fatalf("tables = %d, want 10", got)
	}
	if got := w.NumAttrs(); got != 500 {
		t.Fatalf("attrs = %d, want 500", got)
	}
	if got := w.NumQueries(); got != 500 {
		t.Fatalf("queries = %d, want 500", got)
	}
	for ti, tb := range w.Tables {
		if want := int64(ti+1) * cfg.RowsBase; tb.Rows != want {
			t.Errorf("table %d rows = %d, want %d", ti, tb.Rows, want)
		}
	}
	for _, a := range w.Attrs() {
		n := w.Tables[a.Table].Rows
		if a.Distinct < 1 || a.Distinct > n {
			t.Errorf("attr %d distinct %d outside [1, %d]", a.ID, a.Distinct, n)
		}
		if a.ValueSize < 1 || a.ValueSize > 8 {
			t.Errorf("attr %d value size %d outside [1, 8]", a.ID, a.ValueSize)
		}
	}
	for _, q := range w.Queries {
		if len(q.Attrs) > cfg.MaxQueryAttrs {
			t.Errorf("query %d width %d exceeds %d", q.ID, len(q.Attrs), cfg.MaxQueryAttrs)
		}
		if q.Freq < 1 || q.Freq > cfg.MaxFreq {
			t.Errorf("query %d freq %d outside [1, %d]", q.ID, q.Freq, cfg.MaxFreq)
		}
	}

	// The Appendix-C position distribution round(U(1, N^(1/0.3))^0.3) has
	// CDF (p/N)^(1/0.3): access skews strongly toward HIGH positions (which
	// the d_{t,i} formula in turn gives few distinct values). The last 10
	// attributes of each table must be accessed far more often than the
	// first 10.
	g := w.Occurrences()
	var firstTen, lastTen int64
	for t0 := 0; t0 < cfg.Tables; t0++ {
		base := t0 * cfg.AttrsPerTable
		for i := 0; i < 10; i++ {
			firstTen += g[base+i]
			lastTen += g[base+cfg.AttrsPerTable-1-i]
		}
	}
	if lastTen < 4*firstTen {
		t.Errorf("access skew too weak: last-10 weight %d vs first-10 weight %d", lastTen, firstTen)
	}

	// Determinism.
	w2 := MustGenerate(cfg)
	if !reflect.DeepEqual(w.Queries, w2.Queries) {
		t.Error("Generate is not deterministic for equal configs")
	}
	cfg2 := cfg
	cfg2.Seed++
	w3 := MustGenerate(cfg2)
	if reflect.DeepEqual(w.Queries, w3.Queries) {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{},
		{Tables: 1, AttrsPerTable: 1, QueriesPerTable: 1, RowsBase: 0, MaxQueryAttrs: 1, MaxFreq: 1},
		{Tables: 1, AttrsPerTable: 1, QueriesPerTable: 1, RowsBase: 1, MaxQueryAttrs: 0, MaxFreq: 1},
		{Tables: 1, AttrsPerTable: 1, QueriesPerTable: 1, RowsBase: 1, MaxQueryAttrs: 1, MaxFreq: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted invalid config %+v", i, cfg)
		}
	}
}

func TestTPCC(t *testing.T) {
	w, err := TPCC(100)
	if err != nil {
		t.Fatalf("TPCC: %v", err)
	}
	if got := len(w.Tables); got != 8 {
		t.Errorf("tables = %d, want 8", got)
	}
	if got := w.NumQueries(); got != 10 {
		t.Errorf("queries = %d, want 10", got)
	}
	// Figure 1 shape checks: q6 is the only 4-attribute template; q7/q8 are
	// single-attribute lookups on ITEM and WHOUS.
	widths := make([]int, 10)
	for i, q := range w.Queries {
		widths[i] = len(q.Attrs)
	}
	if widths[5] != 4 {
		t.Errorf("q6 width = %d, want 4 (ORDER_LINE)", widths[5])
	}
	if widths[6] != 1 || widths[7] != 1 {
		t.Errorf("q7/q8 widths = %d/%d, want 1/1", widths[6], widths[7])
	}
	// The STOCK table dominates in rows; ORDER_LINE is the largest.
	var maxRows int64
	var largest string
	for _, tb := range w.Tables {
		if tb.Rows > maxRows {
			maxRows, largest = tb.Rows, tb.Name
		}
	}
	if largest != "ORDLN" {
		t.Errorf("largest table = %s, want ORDLN", largest)
	}
	if _, err := TPCC(0); err == nil {
		t.Error("TPCC(0) accepted")
	}
}

func TestGenerateERP(t *testing.T) {
	cfg := DefaultERPConfig()
	cfg.MaxRows = 2_000_000 // keep memory small in tests
	w, err := GenerateERP(cfg)
	if err != nil {
		t.Fatalf("GenerateERP: %v", err)
	}
	if got := len(w.Tables); got != 500 {
		t.Errorf("tables = %d, want 500", got)
	}
	if got := w.NumAttrs(); got != 4204 {
		t.Errorf("attrs = %d, want 4204", got)
	}
	if got := w.NumQueries(); got != 2271 {
		t.Errorf("queries = %d, want 2271", got)
	}
	total := w.TotalFreq()
	if total < 45_000_000 || total > 60_000_000 {
		t.Errorf("total executions = %d, want ~50M", total)
	}
	// Mostly transactional: >= 80% of templates access <= 3 attributes.
	narrow := 0
	for _, q := range w.Queries {
		if len(q.Attrs) <= 3 {
			narrow++
		}
	}
	if float64(narrow) < 0.8*float64(len(w.Queries)) {
		t.Errorf("narrow templates = %d of %d, want >= 80%%", narrow, len(w.Queries))
	}
	// Determinism.
	w2 := MustGenerateERP(cfg)
	if !reflect.DeepEqual(w.Queries[:50], w2.Queries[:50]) {
		t.Error("GenerateERP is not deterministic")
	}
}

func TestGenerateERPValidation(t *testing.T) {
	bad := []ERPConfig{
		{},
		{Tables: 10, TotalAttrs: 5, Queries: 1, MinRows: 1, MaxRows: 2},
		{Tables: 1, TotalAttrs: 2, Queries: 1, MinRows: 5, MaxRows: 2},
		{Tables: 1, TotalAttrs: 2, Queries: 1, MinRows: 1, MaxRows: 2, AnalyticalShare: 1.5},
	}
	for i, cfg := range bad {
		if _, err := GenerateERP(cfg); err == nil {
			t.Errorf("case %d: GenerateERP accepted invalid config %+v", i, cfg)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := tiny(t)
	data, err := Marshal(w)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	w2, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(w.Tables, w2.Tables) {
		t.Errorf("tables differ after round trip:\n%+v\n%+v", w.Tables, w2.Tables)
	}
	if !reflect.DeepEqual(w.Queries, w2.Queries) {
		t.Errorf("queries differ after round trip:\n%+v\n%+v", w.Queries, w2.Queries)
	}
}

func TestJSONErrors(t *testing.T) {
	cases := []string{
		"{",
		`{"tables":[{"name":"A","rows":10,"attributes":[{"name":"x","distinct":2,"value_size":4}]}],"queries":[{"attributes":["nope"],"frequency":1}]}`,
		`{"tables":[{"name":"A","rows":10,"attributes":[{"name":"x","distinct":2,"value_size":4},{"name":"x","distinct":2,"value_size":4}]}]}`,
		`{"tables":[{"name":"A","rows":10,"attributes":[{"name":"x","distinct":2,"value_size":4}]}],"queries":[{"attributes":[],"frequency":1}]}`,
	}
	for i, in := range cases {
		if _, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("case %d: Unmarshal accepted invalid input", i)
		}
	}
}

// TestIndexKeyRoundTripProperty checks Key/ParseIndexKey inversion for random
// index shapes over a generated workload.
func TestIndexKeyRoundTripProperty(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 10, 5
	cfg.RowsBase = 1000
	w := MustGenerate(cfg)
	f := func(tableRaw uint8, pick [4]uint8) bool {
		table := int(tableRaw) % len(w.Tables)
		attrs := w.Tables[table].Attrs
		var key []int
		seen := map[int]bool{}
		for _, p := range pick {
			a := attrs[int(p)%len(attrs)]
			if !seen[a] {
				seen[a] = true
				key = append(key, a)
			}
		}
		k := MustIndex(w, key...)
		back, err := ParseIndexKey(w, k.Key())
		return err == nil && reflect.DeepEqual(back, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResampleQueries(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 15, 30
	cfg.RowsBase = 10_000
	w := MustGenerate(cfg)
	w2, err := ResampleQueries(w, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Schema preserved.
	if !reflect.DeepEqual(w.Tables, w2.Tables) {
		t.Error("ResampleQueries changed tables")
	}
	if !reflect.DeepEqual(w.Attrs(), w2.Attrs()) {
		t.Error("ResampleQueries changed attributes")
	}
	// Queries actually drift.
	if reflect.DeepEqual(w.Queries, w2.Queries) {
		t.Error("ResampleQueries produced identical queries")
	}
	if w2.NumQueries() != cfg.Tables*cfg.QueriesPerTable {
		t.Errorf("resampled query count %d, want %d", w2.NumQueries(), cfg.Tables*cfg.QueriesPerTable)
	}
	// Deterministic per seed.
	w3, err := ResampleQueries(w, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w2.Queries, w3.Queries) {
		t.Error("ResampleQueries not deterministic")
	}
	// Validation.
	bad := cfg
	bad.QueriesPerTable = 0
	if _, err := ResampleQueries(w, bad, 1); err == nil {
		t.Error("ResampleQueries accepted zero queries per table")
	}
}

func TestGenerateWriteShare(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 40
	cfg.RowsBase = 10_000
	cfg.WriteShare = 0.25
	w := MustGenerate(cfg)
	var inserts, updates int
	for _, q := range w.Queries {
		switch q.Kind {
		case Insert:
			inserts++
			if len(q.Attrs) != cfg.AttrsPerTable {
				t.Errorf("insert %d writes %d attrs, want full row %d", q.ID, len(q.Attrs), cfg.AttrsPerTable)
			}
		case Update:
			updates++
		}
	}
	want := int(0.25 * float64(w.NumQueries()))
	if got := inserts + updates; got != want {
		t.Errorf("writes = %d, want %d", got, want)
	}
	if inserts == 0 || updates == 0 {
		t.Errorf("want both kinds: %d inserts, %d updates", inserts, updates)
	}
	bad := cfg
	bad.WriteShare = 1.0
	if _, err := Generate(bad); err == nil {
		t.Error("WriteShare=1.0 accepted")
	}
}

func TestQueryKindSemantics(t *testing.T) {
	w := tiny(t)
	k01 := MustIndex(w, 0, 1)
	sel := Query{Table: 0, Attrs: []int{0, 1}, Kind: Select}
	ins := Query{Table: 0, Attrs: []int{0, 1, 2}, Kind: Insert}
	upd := Query{Table: 0, Attrs: []int{1}, Kind: Update}
	updOther := Query{Table: 0, Attrs: []int{2}, Kind: Update}

	if sel.IsWrite() || !ins.IsWrite() || !upd.IsWrite() {
		t.Error("IsWrite wrong")
	}
	if sel.Maintains(k01) {
		t.Error("select maintains")
	}
	if !ins.Maintains(k01) {
		t.Error("insert must maintain every index on its table")
	}
	if !upd.Maintains(k01) || updOther.Maintains(k01) {
		t.Error("update maintenance membership wrong")
	}
	// Inserts have no read path.
	if Applicable(ins, k01) {
		t.Error("insert applicable")
	}
	if !Applicable(upd, MustIndex(w, 1)) {
		t.Error("update locate path not applicable")
	}
	// Cross-table never maintains.
	insB := Query{Table: 1, Attrs: []int{3}, Kind: Insert}
	if insB.Maintains(k01) {
		t.Error("cross-table maintains")
	}
	if Select.String() != "select" || Insert.String() != "insert" || Update.String() != "update" {
		t.Error("QueryKind.String wrong")
	}
	if QueryKind(9).String() == "" {
		t.Error("unknown kind string empty")
	}
}

func TestJSONKindRoundTrip(t *testing.T) {
	tables := []Table{{ID: 0, Name: "T", Rows: 100, Attrs: []int{0, 1}}}
	attrs := []Attribute{
		{ID: 0, Table: 0, Name: "T.a", Distinct: 10, ValueSize: 4},
		{ID: 1, Table: 0, Name: "T.b", Distinct: 10, ValueSize: 4},
	}
	queries := []Query{
		{ID: 0, Table: 0, Attrs: []int{0}, Freq: 1, Kind: Select},
		{ID: 1, Table: 0, Attrs: []int{0, 1}, Freq: 2, Kind: Insert},
		{ID: 2, Table: 0, Attrs: []int{1}, Freq: 3, Kind: Update},
	}
	w, err := New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w2.Queries {
		if q.Kind != queries[i].Kind {
			t.Errorf("query %d kind %v, want %v", i, q.Kind, queries[i].Kind)
		}
	}
	// Unknown kind rejected.
	if _, err := Unmarshal([]byte(`{"tables":[{"name":"T","rows":10,"attributes":[{"name":"a","distinct":2,"value_size":4}]}],"queries":[{"attributes":["a"],"frequency":1,"kind":"upsert"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

// queriesOnTable returns the IDs of queries accessing table t.
func queriesOnTable(w *Workload, t int) []int {
	var ids []int
	for _, q := range w.Queries {
		if q.Table == t {
			ids = append(ids, q.ID)
		}
	}
	return ids
}
