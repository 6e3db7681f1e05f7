package engine

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// testWorkload: 2 tables with small rows so data materializes instantly.
func testWorkload(t *testing.T, rows int64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 8, 15
	cfg.RowsBase = rows
	return workload.MustGenerate(cfg)
}

func TestNewDeterministicAndBounded(t *testing.T) {
	w := testWorkload(t, 5_000)
	db1, err := New(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := New(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range w.Attrs() {
		c1, c2 := column(db1, a.ID), column(db2, a.ID)
		if len(c1) != int(w.Tables[a.Table].Rows) {
			t.Fatalf("column %d has %d rows, want %d", a.ID, len(c1), w.Tables[a.Table].Rows)
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("column %d differs at row %d across same-seed builds", a.ID, i)
			}
			if c1[i] < 0 || int64(c1[i]) >= a.Distinct {
				t.Fatalf("column %d row %d value %d outside [0, %d)", a.ID, i, c1[i], a.Distinct)
			}
		}
	}
	db3, err := New(w, 43)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i, v := range column(db1, 0) {
		if column(db3, 0)[i] != v {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestNewRejectsHugeWorkloads(t *testing.T) {
	cfg := workload.DefaultGenConfig() // 10 tables, up to 10M rows each
	w := workload.MustGenerate(cfg)
	if _, err := New(w, 1); err == nil {
		t.Error("New accepted a workload above MaxRows")
	}
}

func TestIndexSortedAndRangeCorrect(t *testing.T) {
	w := testWorkload(t, 3_000)
	db, err := New(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	k := workload.MustIndex(w, 1, 0)
	ix := db.BuildIndex(k)
	c1, c0 := column(db, 1), column(db, 0)
	for i := 1; i < len(ix.perm); i++ {
		a, b := ix.perm[i-1], ix.perm[i]
		if c1[a] > c1[b] || (c1[a] == c1[b] && c0[a] > c0[b]) {
			t.Fatalf("permutation not sorted at %d", i)
		}
	}
	// prefixRange on a known value pair matches a naive scan.
	row := 123
	vals := []int32{c1[row], c0[row]}
	lo, hi, steps := ix.prefixRange(vals)
	if steps <= 0 {
		t.Error("prefixRange reported no comparison steps")
	}
	want := 0
	for r := 0; r < len(c1); r++ {
		if c1[r] == vals[0] && c0[r] == vals[1] {
			want++
		}
	}
	if hi-lo != want {
		t.Errorf("prefixRange found %d rows, naive scan %d", hi-lo, want)
	}
	for _, pos := range ix.perm[lo:hi] {
		if c1[pos] != vals[0] || c0[pos] != vals[1] {
			t.Errorf("row %d in range does not match prefix", pos)
		}
	}
}

// naiveCount scans all columns for the reference result size.
func naiveCount(db *DB, pq PointQuery) int {
	rows := db.Rows(pq.Table)
	count := 0
	for r := 0; r < rows; r++ {
		ok := true
		for _, p := range pq.Preds {
			if column(db, p.Attr)[r] != p.Value {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func TestExecutorMatchesNaiveReference(t *testing.T) {
	w := testWorkload(t, 3_000)
	db, err := New(w, 11)
	if err != nil {
		t.Fatal(err)
	}
	// One index per table on hot attributes; plus a composite.
	var indexes []*SecondaryIndex
	for _, tb := range w.Tables {
		indexes = append(indexes, db.BuildIndex(workload.MustIndex(w, tb.Attrs[len(tb.Attrs)-1])))
		indexes = append(indexes, db.BuildIndex(workload.MustIndex(w, tb.Attrs[len(tb.Attrs)-2], tb.Attrs[len(tb.Attrs)-3])))
	}
	withIdx := NewExecutor(db, indexes...)
	without := NewExecutor(db)
	for _, q := range w.Queries {
		pq := db.Instantiate(q, 99)
		want := naiveCount(db, pq)
		if want == 0 {
			t.Errorf("query %d instantiation yielded empty result", q.ID)
		}
		if got := withIdx.Run(pq).Rows; got != want {
			t.Errorf("query %d with indexes: %d rows, want %d", q.ID, got, want)
		}
		if got := without.Run(pq).Rows; got != want {
			t.Errorf("query %d full scan: %d rows, want %d", q.ID, got, want)
		}
	}
}

// TestExecutorResultInvariantProperty: property — result cardinality is
// identical with and without arbitrary index sets.
func TestExecutorResultInvariantProperty(t *testing.T) {
	w := testWorkload(t, 2_000)
	db, err := New(w, 13)
	if err != nil {
		t.Fatal(err)
	}
	built := map[string]*SecondaryIndex{}
	f := func(qRaw uint8, seed int64, picks [3]uint8) bool {
		q := w.Queries[int(qRaw)%w.NumQueries()]
		pq := db.Instantiate(q, seed)
		e := NewExecutor(db)
		tb := w.Tables[q.Table]
		for _, p := range picks {
			a := tb.Attrs[int(p)%len(tb.Attrs)]
			k := workload.MustIndex(w, a)
			ix, ok := built[k.Key()]
			if !ok {
				ix = db.BuildIndex(k)
				built[k.Key()] = ix
			}
			addIndex(e, ix)
		}
		return e.Run(pq).Rows == naiveCount(db, pq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIndexBeatsScanOnBytes(t *testing.T) {
	w := testWorkload(t, 5_000)
	db, err := New(w, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Find a query and a selective single-attribute index for it.
	for _, q := range w.Queries {
		var bestAttr int
		var bestD int64
		for _, a := range q.Attrs {
			if d := w.Attr(a).Distinct; d > bestD {
				bestD, bestAttr = d, a
			}
		}
		if bestD < 50 {
			continue
		}
		pq := db.Instantiate(q, 23)
		scan := NewExecutor(db).Run(pq)
		probe := NewExecutor(db, db.BuildIndex(workload.MustIndex(w, bestAttr))).Run(pq)
		if probe.BytesTouched >= scan.BytesTouched {
			t.Errorf("query %d: probe bytes %d not below scan bytes %d",
				q.ID, probe.BytesTouched, scan.BytesTouched)
		}
		return
	}
	t.Skip("no sufficiently selective query found")
}

func TestMeasuredSourceInterface(t *testing.T) {
	w := testWorkload(t, 3_000)
	db, err := New(w, 19)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 5)
	q := w.Queries[0]
	base := ms.BaseCost(q)
	if base <= 0 {
		t.Fatalf("base cost %v", base)
	}
	// Most selective attribute of q should beat base.
	var bestAttr int
	var bestD int64
	for _, a := range q.Attrs {
		if d := w.Attr(a).Distinct; d > bestD {
			bestD, bestAttr = d, a
		}
	}
	k := workload.MustIndex(w, bestAttr)
	withIdx := ms.CostWithIndex(q, k)
	if withIdx >= base {
		t.Errorf("selective index cost %v not below base %v", withIdx, base)
	}
	// Non-applicable index falls back to base.
	var other int
	for _, a := range w.Tables[q.Table].Attrs {
		if !q.Accesses(a) {
			other = a
			break
		}
	}
	if got := ms.CostWithIndex(q, workload.MustIndex(w, other)); got != base {
		t.Errorf("non-applicable cost %v, want base %v", got, base)
	}
	// QueryCost takes the best of base and selected indexes.
	sel := workload.NewSelection(k, workload.MustIndex(w, other))
	if got := ms.QueryCost(q, sel); got != withIdx {
		t.Errorf("QueryCost %v, want %v", got, withIdx)
	}
	if ms.IndexSize(k) <= 0 {
		t.Error("IndexSize not positive")
	}
	if ms.Budget(0.5) != ms.SingleAttrBudget()/2 {
		t.Error("Budget(0.5) != half SingleAttrBudget")
	}
}

func TestMeasuredSourceWallTime(t *testing.T) {
	w := testWorkload(t, 2_000)
	db, err := New(w, 29)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 5)
	ms.UseWallTime = true
	ms.Repeats = 2
	if c := ms.BaseCost(w.Queries[0]); c <= 0 {
		t.Errorf("wall-time cost %v", c)
	}
}

// TestEndToEndWithAlgorithm1 runs the full Section IV-B pipeline at test
// scale: measured costs feed Algorithm 1, whose selection must be feasible
// and improve the measured workload cost.
func TestEndToEndWithAlgorithm1(t *testing.T) {
	w := testWorkload(t, 3_000)
	db, err := New(w, 31)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 5)
	opt := whatif.New(ms)
	budget := ms.Budget(0.5)
	if opt.PrefixInvariant() {
		t.Fatal("a measured source must not be served through prefix invariance")
	}
	res, err := core.Select(w, opt, core.Options{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Memory > budget {
		t.Errorf("selection memory %d exceeds budget %d", res.Memory, budget)
	}
	if res.Cost >= res.InitialCost {
		t.Errorf("measured cost did not improve: %v -> %v", res.InitialCost, res.Cost)
	}
	// Re-measure the final selection from scratch: executing the workload
	// with the chosen indexes must beat executing without.
	var withSel, without float64
	exec := NewExecutor(db)
	for _, k := range res.Selection.Sorted() {
		addIndex(exec, db.BuildIndex(k))
	}
	plain := NewExecutor(db)
	for _, q := range w.Queries {
		pq := db.Instantiate(q, 5)
		withSel += float64(q.Freq) * float64(exec.Run(pq).BytesTouched)
		without += float64(q.Freq) * float64(plain.Run(pq).BytesTouched)
	}
	if withSel >= without {
		t.Errorf("selection does not beat full scans: %v vs %v", withSel, without)
	}
}

// TestConcurrentIndexBuildDeduped: concurrent requests for the same
// (not yet built) index must all resolve to one SecondaryIndex instance,
// with late arrivals waiting on the in-flight build instead of sorting a
// duplicate permutation. Run under -race in CI.
func TestConcurrentIndexBuildDeduped(t *testing.T) {
	w := testWorkload(t, 2000)
	db, err := New(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 1)
	q := w.Queries[0]
	k := workload.MustIndex(w, q.Attrs[0])

	got := make([]*SecondaryIndex, 16)
	done := make(chan int)
	for g := range got {
		go func(g int) {
			got[g] = ms.index(k)
			done <- g
		}(g)
	}
	for range got {
		<-done
	}
	for g := 1; g < len(got); g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different index instance", g)
		}
	}
	// Concurrent measurement over the shared instance must agree with a
	// serial re-measurement.
	want := ms.CostWithIndex(q, k)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c := ms.CostWithIndex(q, k); c != want {
				t.Errorf("concurrent CostWithIndex = %v, want %v", c, want)
			}
		}()
	}
	wg.Wait()
}

// addIndex makes an index available to an executor.
func addIndex(e *Executor, ix *SecondaryIndex) { e.indexes[ix.Key.Key()] = ix }
