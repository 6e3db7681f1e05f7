package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// buildFills are the column shapes the differential test sorts by: heavy
// ties, a span wider than one counting pass, a constant, small negatives,
// and arbitrary int32 values with both extremes.
var buildFills = []struct {
	name string
	gen  func(r *rand.Rand, row int) int32
}{
	{"ties", func(r *rand.Rand, _ int) int32 { return int32(r.Intn(5)) }},
	{"wide", func(r *rand.Rand, _ int) int32 { return int32(r.Intn(70_000)) }},
	{"const", func(*rand.Rand, int) int32 { return -7 }},
	{"negative", func(r *rand.Rand, _ int) int32 { return int32(r.Intn(6)) - 3 }},
	{"int32", func(r *rand.Rand, row int) int32 {
		switch row % 7 {
		case 0:
			return math.MinInt32
		case 1:
			return math.MaxInt32
		case 2:
			return int32(r.Intn(3)) - 1
		}
		return int32(r.Uint32())
	}},
}

// fillDB materializes one table whose column i follows buildFills[i].
func fillDB(rows int, seed int64) *DB {
	r := rand.New(rand.NewSource(seed))
	td := &tableData{rows: rows, cols: make(map[int][]int32, len(buildFills))}
	for a, f := range buildFills {
		col := make([]int32, rows)
		for i := range col {
			col[i] = f.gen(r, i)
		}
		td.cols[a] = col
	}
	return &DB{tables: []*tableData{td}}
}

// TestBuildIndexMatchesSortOracle: the counting-sort build reproduces the
// comparison sort's permutation element for element, for widths 1-4 over
// every rotation of the column shapes (forwards and backwards), on tables
// of 1, 2, odd and 20 000 rows. The large table comes first, so the small
// builds reuse a pooled pass buffer longer than they need.
func TestBuildIndexMatchesSortOracle(t *testing.T) {
	for _, rows := range []int{20_000, 1, 2, 7, 333} {
		db := fillDB(rows, int64(rows))
		for width := 1; width <= 4; width++ {
			for start := range buildFills {
				for _, dir := range []int{1, len(buildFills) - 1} {
					attrs := make([]int, width)
					names := make([]string, width)
					for j := range attrs {
						attrs[j] = (start + j*dir) % len(buildFills)
						names[j] = buildFills[attrs[j]].name
					}
					k := workload.Index{Table: 0, Attrs: attrs}
					got := db.BuildIndex(k).perm
					want := buildIndexSorted(db, k)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("rows=%d key %v: permutation differs from the sort oracle at %d: row %d, want %d",
							rows, names, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// firstDiff returns the first position where two equal-length
// permutations differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestNewClampsWideDomains: an attribute whose distinct count exceeds the
// int32 range still gets values in [0, MaxInt32), never wrapped negatives.
func TestNewClampsWideDomains(t *testing.T) {
	tables := []workload.Table{{ID: 0, Name: "T", Rows: 1_000, Attrs: []int{0, 1}}}
	attrs := []workload.Attribute{
		{ID: 0, Table: 0, Name: "wide", Distinct: 5_000_000_000, ValueSize: 8},
		{ID: 1, Table: 0, Name: "narrow", Distinct: 10, ValueSize: 4},
	}
	queries := []workload.Query{{ID: 0, Table: 0, Attrs: []int{0}, Freq: 1}}
	w, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for row, v := range column(db, 0) {
		if v < 0 {
			t.Fatalf("row %d of a 5e9-distinct column is %d", row, v)
		}
	}
	for row, v := range column(db, 1) {
		if v < 0 || v >= 10 {
			t.Fatalf("row %d of a 10-distinct column is %d", row, v)
		}
	}
}

// column returns the raw values of a global attribute (shared storage).
func column(db *DB, attr int) []int32 {
	return db.tables[db.w.TableOf(attr)].cols[attr]
}
