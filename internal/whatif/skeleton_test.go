package whatif_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// skeletonWorkloads are the differential test's workloads: Generate seeds
// 1-3, TPC-C and a scaled ERP.
func skeletonWorkloads(t *testing.T) map[string]*workload.Workload {
	t.Helper()
	out := map[string]*workload.Workload{"tpcc": workload.MustTPCC(2)}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 25
		cfg.Seed, cfg.WriteShare = seed, 0.2
		out[fmt.Sprintf("generate/seed%d", seed)] = workload.MustGenerate(cfg)
	}
	erp := workload.DefaultERPConfig()
	erp.Tables, erp.TotalAttrs, erp.Queries = 20, 170, 90
	erp.MinRows, erp.MaxRows = 100_000, 5_000_000
	erp.TotalExecutions = 1_000_000
	out["erp"] = workload.MustGenerateERP(erp)
	return out
}

// probeIndexes builds, from every query's attributes, indexes whose
// coverable prefix for some query is shorter than the index: the query's
// attributes in order and reversed, extended by an attribute it does not
// access, and with that attribute second. Longer indexes come first, so
// their skeletons are filled before the prefixes themselves are probed.
func probeIndexes(w *workload.Workload) []workload.Index {
	var out []workload.Index
	for _, q := range w.Queries {
		a := q.Attrs
		if len(a) == 0 {
			continue
		}
		other := -1
		for _, x := range w.Tables[q.Table].Attrs {
			if !q.Accesses(x) {
				other = x
				break
			}
		}
		rev := make([]int, len(a))
		for i, x := range a {
			rev[len(a)-1-i] = x
		}
		if other >= 0 {
			out = append(out,
				workload.Index{Table: q.Table, Attrs: append(append([]int(nil), a...), other)},
				workload.Index{Table: q.Table, Attrs: append([]int{a[0], other}, a[1:]...)},
				workload.Index{Table: q.Table, Attrs: []int{other, a[0]}})
		}
		out = append(out, workload.Index{Table: q.Table, Attrs: a}, workload.Index{Table: q.Table, Attrs: rev})
		for i := len(a) - 1; i >= 1; i-- {
			out = append(out, workload.Index{Table: q.Table, Attrs: a[:i]})
		}
	}
	return out
}

// TestSkeletonFillMatchesDirectSource is the plan-skeleton differential: over
// a prefix-invariant source, every (query, index) value the optimizer serves,
// through either entry point and through a fleet View, equals a direct
// source call bit for bit; its Calls equal the direct-probe reference's
// (distinct probes, however many the skeletons saved); and it runs no more
// source evaluations than calls.
func TestSkeletonFillMatchesDirectSource(t *testing.T) {
	for name, w := range skeletonWorkloads(t) {
		m := costmodel.New(w, costmodel.SingleIndex)
		idx := probeIndexes(w)

		// The View serves a tenant listing the templates in reverse order:
		// tenant query j is superset template canon[j] = n-1-j.
		n := len(w.Queries)
		tenant := make([]workload.Query, n)
		canon := make([]workload.Query, n)
		for j := range tenant {
			canon[j] = w.Queries[n-1-j]
			tenant[j] = canon[j]
			tenant[j].ID = j
		}
		for _, route := range []string{"base", "view"} {
			label := name + "/" + route
			o, qs := whatif.New(m), w.Queries
			if route == "view" {
				o, qs = o.View(canon), tenant
			}
			ref := whatiftest.New(m)
			in := o.Interner()
			probes := 0
			for i, k := range idx {
				id := in.Intern(k)
				for j := range qs {
					q := &qs[j]
					if q.Table != k.Table {
						continue
					}
					canonQ := w.Queries[q.ID]
					if route == "view" {
						canonQ = canon[q.ID]
					}
					var got float64
					if (i+j)%2 == 0 {
						got = o.CostWithIndex(*q, k)
					} else {
						got = o.CostWithInterned(q, k, id)
					}
					want := whatif.SanitizeCost(m.CostWithIndex(canonQ, k))
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: (q%d, %s) = %v, source %v", label, q.ID, k.Key(), got, want)
					}
					ref.CostWithIndex(canonQ, k)
					probes++
				}
			}
			gs, rs := o.Stats(), ref.Stats()
			if gs.Calls != rs.Calls || gs.CacheHits != rs.CacheHits {
				t.Errorf("%s: calls/hits %d/%d, reference %d/%d", label, gs.Calls, gs.CacheHits, rs.Calls, rs.CacheHits)
			}
			if gs.SourceCalls > gs.Calls {
				t.Errorf("%s: %d source calls exceed %d calls", label, gs.SourceCalls, gs.Calls)
			}
			if gs.SourceCalls == gs.Calls {
				t.Errorf("%s: no probe of %d was served from a skeleton", label, probes)
			}
		}
	}
}

// A source declaring measured costs is asked about every (query, index)
// pair: no probe is served from another index's skeleton.
func TestMeasuredSourceSkipsSkeletons(t *testing.T) {
	w := whatif.SmallWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	o := whatif.New(whatiftest.Measured{Source: m})
	if o.PrefixInvariant() || !whatif.New(m).PrefixInvariant() {
		t.Fatal("PrefixInvariant does not follow the source's declaration")
	}
	for _, k := range probeIndexes(w) {
		for _, q := range w.Queries {
			o.CostWithIndex(q, k)
		}
	}
	if s := o.Stats(); s.SourceCalls != s.Calls {
		t.Errorf("measured source: %d source calls for %d calls", s.SourceCalls, s.Calls)
	}
}
