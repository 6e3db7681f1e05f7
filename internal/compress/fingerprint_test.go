package compress

import (
	"testing"

	"repro/internal/workload"
)

func famBase(t *testing.T, seed int64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
	cfg.RowsBase = 5000
	cfg.Seed = seed
	return workload.MustGenerate(cfg)
}

// exactTwins reports whether a and b land in one cluster at overlap 1.0 —
// the fleet's exact-twin sharing test.
func exactTwins(a, b *workload.Workload) bool {
	return len(ClusterNear([]*workload.Workload{a, b}, 1.0)) == 1
}

func TestFingerprintIgnoresFrequenciesAndNames(t *testing.T) {
	w := famBase(t, 1)
	fp := SchemaFingerprint(w)

	p, err := workload.PerturbFrequencies(w, 9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got := SchemaFingerprint(p); got != fp {
		t.Fatalf("frequency perturbation changed fingerprint: %v -> %v", fp, got)
	}
	if !exactTwins(w, p) {
		t.Fatal("overlap 1.0 separates a frequency perturbation")
	}

	// Renaming tables/attributes must not matter either: rebuild with blank names.
	tables := make([]workload.Table, len(w.Tables))
	copy(tables, w.Tables)
	for i := range tables {
		tables[i].Name = ""
	}
	attrs := make([]workload.Attribute, w.NumAttrs())
	copy(attrs, w.Attrs())
	for i := range attrs {
		attrs[i].Name = "renamed"
	}
	queries := make([]workload.Query, len(w.Queries))
	copy(queries, w.Queries)
	renamed, err := workload.New(tables, attrs, queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := SchemaFingerprint(renamed); got != fp {
		t.Fatalf("renaming changed fingerprint: %v -> %v", fp, got)
	}
	if !exactTwins(w, renamed) {
		t.Fatal("overlap 1.0 separates a renamed workload")
	}
}

// Schema mutations must change the schema fingerprint; every structural
// mutation, schema or template, must split exact twins at overlap 1.0.
func TestFingerprintSensitiveToStructure(t *testing.T) {
	w := famBase(t, 1)
	fp := SchemaFingerprint(w)

	mutate := func(name string, schema bool, f func(tables []workload.Table, attrs []workload.Attribute, queries []workload.Query)) {
		tables := make([]workload.Table, len(w.Tables))
		copy(tables, w.Tables)
		for i := range tables {
			tables[i].Attrs = append([]int(nil), tables[i].Attrs...)
		}
		attrs := make([]workload.Attribute, w.NumAttrs())
		copy(attrs, w.Attrs())
		queries := make([]workload.Query, len(w.Queries))
		copy(queries, w.Queries)
		for i := range queries {
			queries[i].Attrs = append([]int(nil), queries[i].Attrs...)
		}
		f(tables, attrs, queries)
		mw, err := workload.New(tables, attrs, queries)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := SchemaFingerprint(mw); schema && got == fp {
			t.Errorf("%s: fingerprint unchanged", name)
		}
		if exactTwins(w, mw) {
			t.Errorf("%s: still exact twins at overlap 1.0", name)
		}
	}

	mutate("row count", true, func(tables []workload.Table, _ []workload.Attribute, _ []workload.Query) {
		tables[0].Rows++
	})
	mutate("distinct count", true, func(_ []workload.Table, attrs []workload.Attribute, _ []workload.Query) {
		attrs[3].Distinct++
	})
	mutate("value size", true, func(_ []workload.Table, attrs []workload.Attribute, _ []workload.Query) {
		attrs[3].ValueSize++
	})
	mutate("template kind", false, func(_ []workload.Table, _ []workload.Attribute, queries []workload.Query) {
		queries[0].Kind = workload.Update
	})
	mutate("template attrs", false, func(tables []workload.Table, _ []workload.Attribute, queries []workload.Query) {
		// Swap the first query's attribute set for the full first-table row.
		queries[0].Table = tables[0].ID
		queries[0].Attrs = append([]int(nil), tables[0].Attrs...)
	})
}

func TestTemplateSignatureExcludesFreq(t *testing.T) {
	w := famBase(t, 2)
	q := w.Queries[0]
	sig := TemplateSignature(q)
	q.Freq *= 17
	if TemplateSignature(q) != sig {
		t.Fatal("signature depends on frequency")
	}
	q2 := w.Queries[1]
	if TemplateSignature(q2) == sig && q2.Table == w.Queries[0].Table &&
		len(q2.Attrs) == len(w.Queries[0].Attrs) {
		same := true
		for i := range q2.Attrs {
			if q2.Attrs[i] != w.Queries[0].Attrs[i] {
				same = false
			}
		}
		if !same {
			t.Fatal("distinct templates share a signature")
		}
	}
}

func TestClusterGroupsFamilies(t *testing.T) {
	// Three families with distinct structures, interleaved: exact-twin
	// clustering (overlap 1.0) must recover the families regardless of input
	// order.
	var tenants []*workload.Workload
	var want []int // tenant position -> family
	for fam := 0; fam < 3; fam++ {
		base := famBase(t, int64(fam+1)*10)
		members, err := workload.TenantFamily(base, 4, int64(fam)*100, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range members {
			tenants = append(tenants, m)
			want = append(want, fam)
		}
	}
	// Interleave: positions 0,4,8,1,5,9,...
	perm := make([]int, 0, len(tenants))
	for off := 0; off < 4; off++ {
		for fam := 0; fam < 3; fam++ {
			perm = append(perm, fam*4+off)
		}
	}
	shuffled := make([]*workload.Workload, len(tenants))
	famOf := make([]int, len(tenants))
	for i, p := range perm {
		shuffled[i] = tenants[p]
		famOf[i] = want[p]
	}

	clusters := ClusterNear(shuffled, 1.0)
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	seen := 0
	for _, c := range clusters {
		if len(c.Members) != 4 {
			t.Fatalf("cluster %v has %d members, want 4", c.Schema, len(c.Members))
		}
		fam := famOf[c.Members[0].Pos]
		for i, m := range c.Members {
			if famOf[m.Pos] != fam {
				t.Fatalf("cluster mixes families: member %d from family %d, representative from %d",
					m.Pos, famOf[m.Pos], fam)
			}
			if i > 0 && c.Members[i-1].Pos >= m.Pos {
				t.Fatalf("cluster members not in input order: %v", c.Members)
			}
		}
		seen += len(c.Members)
	}
	if seen != len(shuffled) {
		t.Fatalf("clusters cover %d of %d tenants", seen, len(shuffled))
	}

	// Determinism: same input, same clustering.
	again := ClusterNear(shuffled, 1.0)
	if len(again) != len(clusters) {
		t.Fatal("clustering not deterministic")
	}
	for i := range again {
		if again[i].Schema != clusters[i].Schema || len(again[i].Members) != len(clusters[i].Members) {
			t.Fatal("clustering not deterministic")
		}
	}
}

func TestClusterSingletons(t *testing.T) {
	a := famBase(t, 1)
	b := famBase(t, 2)
	clusters := ClusterNear([]*workload.Workload{a, b}, 1.0)
	if len(clusters) != 2 {
		t.Fatalf("structurally distinct workloads clustered together: %d clusters", len(clusters))
	}
	one := ClusterNear([]*workload.Workload{a}, 1.0)
	if len(one) != 1 || len(one[0].Members) != 1 || one[0].Members[0].Pos != 0 {
		t.Fatalf("cluster-of-one wrong: %+v", one)
	}
	if len(ClusterNear(nil, 1.0)) != 0 {
		t.Fatal("empty input should produce no clusters")
	}
}
