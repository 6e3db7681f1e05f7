package drift

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/workload"
)

// testSchema builds a small two-table schema workload.
func testSchema(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.GenConfig{
		Tables: 2, AttrsPerTable: 4, QueriesPerTable: 3,
		Seed: 7, RowsBase: 10000, MaxQueryAttrs: 3, MaxFreq: 50,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return w
}

// obsFor renders workload queries as observations, the way a serving
// database would report them.
func obsFor(w *workload.Workload, qs ...workload.Query) []Observation {
	out := make([]Observation, 0, len(qs))
	for _, q := range qs {
		names := make([]string, len(q.Attrs))
		for i, a := range q.Attrs {
			names[i] = w.Attr(a).Name
		}
		out = append(out, Observation{
			Table: w.Tables[q.Table].Name,
			Attrs: names,
			Kind:  q.Kind.String(),
			Count: q.Freq,
		})
	}
	return out
}

func TestWindowObserveAndSnapshot(t *testing.T) {
	schema := testSchema(t)
	win := NewWindow(schema, WindowConfig{})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, obs := range obsFor(schema, schema.Queries...) {
		if err := win.Observe(obs, t0); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if win.Len() != len(schema.Queries) && win.Len() <= 0 {
		t.Fatalf("window retained %d templates", win.Len())
	}
	snap := win.Snapshot(t0)
	if snap == nil {
		t.Fatal("nil snapshot after observations")
	}
	// Every snapshot query must resolve back to a schema-consistent
	// template with the observed frequency.
	total := int64(0)
	for _, q := range snap.Queries {
		total += q.Freq
	}
	want := int64(0)
	for _, q := range schema.Queries {
		want += q.Freq
	}
	if total != want {
		t.Fatalf("snapshot total freq %d, want %d", total, want)
	}
}

func TestWindowSnapshotDeterministicAcrossOrder(t *testing.T) {
	schema := testSchema(t)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	obs := obsFor(schema, schema.Queries...)

	a := NewWindow(schema, WindowConfig{})
	for _, o := range obs {
		if err := a.Observe(o, t0); err != nil {
			t.Fatal(err)
		}
	}
	b := NewWindow(schema, WindowConfig{})
	for i := len(obs) - 1; i >= 0; i-- {
		if err := b.Observe(obs[i], t0); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.Snapshot(t0), b.Snapshot(t0)
	if len(sa.Queries) != len(sb.Queries) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(sa.Queries), len(sb.Queries))
	}
	for i := range sa.Queries {
		qa, qb := sa.Queries[i], sb.Queries[i]
		if qa.Table != qb.Table || qa.Freq != qb.Freq || qa.Kind != qb.Kind {
			t.Fatalf("query %d differs: %+v vs %+v", i, qa, qb)
		}
		for j := range qa.Attrs {
			if qa.Attrs[j] != qb.Attrs[j] {
				t.Fatalf("query %d attrs differ: %v vs %v", i, qa.Attrs, qb.Attrs)
			}
		}
	}
}

func TestWindowDecayHalvesWeight(t *testing.T) {
	schema := testSchema(t)
	hl := time.Hour
	win := NewWindow(schema, WindowConfig{HalfLife: hl})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	q := schema.Queries[0]
	obs := obsFor(schema, q)[0]
	obs.Count = 100
	if err := win.Observe(obs, t0); err != nil {
		t.Fatal(err)
	}
	got := win.TotalWeight(t0.Add(hl))
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("weight after one half-life = %g, want 50", got)
	}
	// A fresh observation at t0+hl outweighs the decayed old one.
	if err := win.Observe(obs, t0.Add(hl)); err != nil {
		t.Fatal(err)
	}
	got = win.TotalWeight(t0.Add(hl))
	if math.Abs(got-150) > 1e-9 {
		t.Fatalf("combined weight = %g, want 150", got)
	}
}

func TestWindowRenormalizationSurvivesLongHorizons(t *testing.T) {
	schema := testSchema(t)
	hl := time.Second
	win := NewWindow(schema, WindowConfig{HalfLife: hl})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	obs := obsFor(schema, schema.Queries[0])[0]
	obs.Count = 1000
	// Walk far past the 64-half-life renormalization threshold, observing
	// along the way; weights must stay finite and the newest observation
	// must dominate.
	at := t0
	for i := 0; i < 50; i++ {
		at = at.Add(10 * time.Second) // 10 half-lives per hop
		if err := win.Observe(obs, at); err != nil {
			t.Fatal(err)
		}
	}
	w := win.TotalWeight(at)
	if math.IsInf(w, 0) || math.IsNaN(w) {
		t.Fatalf("weight overflowed: %g", w)
	}
	// Newest contributes 1000; everything older decayed by >= 2^-10.
	if w < 1000 || w > 1002 {
		t.Fatalf("weight = %g, want ~1000 (newest dominates)", w)
	}
	snap := win.Snapshot(at)
	// The decayed tail of older observations can round the frequency up by 1.
	if snap == nil || len(snap.Queries) != 1 || snap.Queries[0].Freq < 1000 || snap.Queries[0].Freq > 1001 {
		t.Fatalf("snapshot after renormalization: %+v", snap)
	}
}

func TestWindowCapEvictsLowestWeight(t *testing.T) {
	schema := testSchema(t)
	win := NewWindow(schema, WindowConfig{Cap: 2})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Three guaranteed-distinct templates: single-attribute selects on
	// distinct attributes of table 0 (generated queries can coincide
	// structurally, so build observations by hand).
	var names []string
	for _, a := range schema.Attrs() {
		if schema.TableOf(a.ID) == 0 {
			names = append(names, a.Name)
		}
	}
	if len(names) < 3 {
		t.Skip("schema too small")
	}
	weights := []int64{100, 1, 50} // middle one must be evicted
	for i := 0; i < 3; i++ {
		obs := Observation{Attrs: []string{names[i]}, Count: weights[i]}
		if err := win.Observe(obs, t0); err != nil {
			t.Fatal(err)
		}
	}
	if win.Len() != 2 {
		t.Fatalf("window len = %d, want 2", win.Len())
	}
	if win.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", win.Evictions())
	}
	snap := win.Snapshot(t0)
	for _, q := range snap.Queries {
		if q.Freq == 1 {
			t.Fatal("lowest-weight template survived eviction")
		}
	}
}

func TestWindowMalformedObservations(t *testing.T) {
	schema := testSchema(t)
	win := NewWindow(schema, WindowConfig{})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	good := obsFor(schema, schema.Queries[0])[0]

	cases := []struct {
		name string
		mut  func(Observation) Observation
	}{
		{"zero count", func(o Observation) Observation { o.Count = 0; return o }},
		{"negative count", func(o Observation) Observation { o.Count = -3; return o }},
		{"bad kind", func(o Observation) Observation { o.Kind = "merge"; return o }},
		{"no attrs", func(o Observation) Observation { o.Attrs = nil; return o }},
		{"unknown attr", func(o Observation) Observation { o.Attrs = []string{"NO_SUCH"}; return o }},
		{"unknown table", func(o Observation) Observation { o.Table = "NO_SUCH"; return o }},
		{"repeated attr", func(o Observation) Observation {
			o.Attrs = append(append([]string(nil), o.Attrs...), o.Attrs[0])
			return o
		}},
	}
	for _, tc := range cases {
		err := win.Observe(tc.mut(good), t0)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, err)
		}
	}
	if win.Len() != 0 {
		t.Fatalf("malformed observations changed the window: len=%d", win.Len())
	}
	// Cross-table attrs: take one attr from each table.
	var a0, a1 string
	for _, a := range schema.Attrs() {
		if schema.TableOf(a.ID) == 0 && a0 == "" {
			a0 = a.Name
		}
		if schema.TableOf(a.ID) == 1 && a1 == "" {
			a1 = a.Name
		}
	}
	err := win.Observe(Observation{Attrs: []string{a0, a1}, Count: 1}, t0)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("cross-table attrs: err = %v, want ErrMalformed", err)
	}
}

func TestWindowStaleTimestampsFoldAtHorizon(t *testing.T) {
	schema := testSchema(t)
	win := NewWindow(schema, WindowConfig{HalfLife: time.Hour})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	obs := obsFor(schema, schema.Queries[0])[0]
	obs.Count = 10
	if err := win.Observe(obs, t0); err != nil {
		t.Fatal(err)
	}
	// An observation timestamped in the past still lands (at the horizon).
	if err := win.Observe(obs, t0.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if win.Stale() != 1 {
		t.Fatalf("stale = %d, want 1", win.Stale())
	}
	if got := win.TotalWeight(t0); math.Abs(got-20) > 1e-9 {
		t.Fatalf("weight = %g, want 20", got)
	}
}

// TotalWeight sums in first-seen template order, so one window reads the
// same bits on every call: /status and the daemon's window-weight gauge
// report it, and a replayed stream must report the same value.
func TestTotalWeightIsBitIdentical(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Seed, cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 2, 8, 30
	schema, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	win := NewWindow(schema, WindowConfig{HalfLife: time.Hour})
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, obs := range obsFor(schema, schema.Queries...) {
		if err := win.Observe(obs, t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if win.Len() < 30 {
		t.Fatalf("window holds %d templates; the sum needs many terms to show its order", win.Len())
	}
	at := t0.Add(3 * time.Hour)
	patterns := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		patterns[math.Float64bits(win.TotalWeight(at))] = true
	}
	if len(patterns) != 1 {
		t.Fatalf("TotalWeight gave %d bit patterns over 200 calls on one window", len(patterns))
	}
}

// Compare is summed in each profile's first-seen template order, so the
// same two profiles score the same bits on every call: the score is compared
// to the daemon's drift threshold, and replay must take the same branch.
func TestCompareIsBitIdentical(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Seed = 3
	base, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := workload.ResampleQueries(base, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, cur := NewProfile(base, nil), NewProfile(drifted, nil)
	want := math.Float64bits(Compare(b, cur).CostShift)
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(Compare(b, cur).CostShift); got != want {
			t.Fatalf("call %d: cost shift bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestProfileCompare(t *testing.T) {
	schema := testSchema(t)
	p1 := NewProfile(schema, nil)
	if s := Compare(p1, p1); s.Score != 0 {
		t.Fatalf("self-compare score = %g, want 0", s.Score)
	}
	if s := Compare(nil, p1); s.Score != 1 {
		t.Fatalf("nil-baseline score = %g, want 1", s.Score)
	}
	if s := Compare(nil, nil); s.Score != 0 {
		t.Fatalf("empty-vs-empty score = %g, want 0", s.Score)
	}

	// Frequency shift with identical structure: fingerprint 0, cost shift > 0.
	shifted, err := workload.PerturbFrequencies(schema, 3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	s := Compare(p1, NewProfile(shifted, nil))
	if s.Fingerprint != 0 {
		t.Fatalf("fingerprint = %g, want 0 for same structure", s.Fingerprint)
	}
	if s.CostShift <= 0 || s.Score != s.CostShift {
		t.Fatalf("cost shift = %g, score = %g; want shift > 0 driving score", s.CostShift, s.Score)
	}

	// Template churn: fingerprint rises.
	churned, err := workload.PerturbTemplates(schema, 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s = Compare(p1, NewProfile(churned, nil))
	if s.Fingerprint <= 0 {
		t.Fatalf("fingerprint = %g, want > 0 after template churn", s.Fingerprint)
	}

	// A hostile cost function (NaN / zero) must not poison the profile.
	bad := NewProfile(schema, func(q workload.Query) float64 {
		if q.ID%2 == 0 {
			return math.NaN()
		}
		return 0
	})
	for sig, share := range bad.shares {
		if math.IsNaN(share) || share < 0 {
			t.Fatalf("poisoned share %q = %g", sig, share)
		}
	}
	if top := bad.Top(3); len(top) == 0 {
		t.Fatal("Top returned nothing")
	}
}
