package whatif_test

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// Hot-path microbenchmarks behind `make bench-whatif`. The flat/reference
// pairs quantify exactly what the interned flat tables buy over the
// string-keyed whatiftest maps; CI guards the cached-probe allocation count
// (the candidate-evaluation inner loop) against regressing back to
// allocating.

// prober is the probe both caches share.
type prober interface {
	CostWithIndex(q workload.Query, k workload.Index) float64
}

func benchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 4, 16, 64, 100_000
	cfg.Seed = 17
	return workload.MustGenerate(cfg)
}

// benchPool returns a pool of (query, multi-attribute index) pairs large
// enough that a cold-probe benchmark can take thousands of misses without
// recycling.
func benchPool(b *testing.B, w *workload.Workload) ([]workload.Query, []workload.Index) {
	b.Helper()
	var qs []workload.Query
	var ks []workload.Index
	for _, q := range w.Queries {
		if len(q.Attrs) < 2 {
			continue
		}
		// Every prefix permutation starting at each attr: realistic morphing
		// candidates, all applicable to q.
		for _, lead := range q.Attrs {
			k := workload.Index{Table: q.Table, Attrs: []int{lead}}
			qs = append(qs, q)
			ks = append(ks, k)
			for _, a := range q.Attrs {
				if k.Contains(a) {
					continue
				}
				k = k.Append(a)
				qs = append(qs, q)
				ks = append(ks, k)
			}
		}
	}
	if len(ks) < 1024 {
		b.Fatalf("bench pool too small: %d pairs", len(ks))
	}
	return qs, ks
}

func benchCachedProbe[O prober](b *testing.B, mk func(whatif.Source) O) {
	w := benchWorkload(b)
	o := mk(costmodel.New(w, costmodel.SingleIndex))
	qs, ks := benchPool(b, w)
	for i := range ks {
		o.CostWithIndex(qs[i], ks[i]) // warm every pair
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i % len(ks)
		sink += o.CostWithIndex(qs[j], ks[j])
	}
	_ = sink
}

func BenchmarkWhatifCachedProbe_Flat(b *testing.B)      { benchCachedProbe(b, whatif.New) }
func BenchmarkWhatifCachedProbe_Reference(b *testing.B) { benchCachedProbe(b, whatiftest.New) }

func benchColdProbe[O prober](b *testing.B, mk func(whatif.Source) O) {
	w := benchWorkload(b)
	m := costmodel.New(w, costmodel.SingleIndex)
	qs, ks := benchPool(b, w)
	o := mk(m)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		j := i % len(ks)
		if j == 0 && i > 0 {
			b.StopTimer()
			o = mk(m) // pool exhausted: fresh caches, still cold
			b.StartTimer()
		}
		sink += o.CostWithIndex(qs[j], ks[j])
	}
	_ = sink
}

func BenchmarkWhatifColdProbe_Flat(b *testing.B)      { benchColdProbe(b, whatif.New) }
func BenchmarkWhatifColdProbe_Reference(b *testing.B) { benchColdProbe(b, whatiftest.New) }

// Applicable: the per-query attribute bitset versus the linear scan fallback
// (a hand-built Query value has no precomputed access set).
func benchApplicable(b *testing.B, q workload.Query, ks []workload.Index) {
	b.ReportAllocs()
	b.ResetTimer()
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = workload.Applicable(q, ks[i%len(ks)])
	}
	_ = sink
}

func BenchmarkApplicable_Bitset(b *testing.B) {
	w := benchWorkload(b)
	qs, ks := benchPool(b, w)
	benchApplicable(b, qs[0], ks[:256])
}

func BenchmarkApplicable_Scan(b *testing.B) {
	w := benchWorkload(b)
	qs, ks := benchPool(b, w)
	bare := workload.Query{ID: qs[0].ID, Table: qs[0].Table, Kind: qs[0].Kind, Attrs: qs[0].Attrs}
	benchApplicable(b, bare, ks[:256])
}

// SelectionClone: the per-candidate cost of snapshotting the current
// selection (Remark-2 mode clones per candidate per step).
func BenchmarkSelectionClone_IDSet(b *testing.B) {
	w := benchWorkload(b)
	in := workload.NewInterner()
	sel := workload.NewIDSelection(in)
	_, ks := benchPool(b, w)
	for i := 0; i < len(ks) && sel.Len() < 32; i += 7 {
		sel.Add(in.Intern(ks[i]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sel.Clone()
		_ = c
	}
}

func BenchmarkSelectionClone_Map(b *testing.B) {
	w := benchWorkload(b)
	sel := workload.NewSelection()
	_, ks := benchPool(b, w)
	for i := 0; i < len(ks) && len(sel) < 32; i += 7 {
		sel.Add(ks[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sel.Clone()
		_ = c
	}
}
