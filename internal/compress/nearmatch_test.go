package compress

import (
	"testing"

	"repro/internal/workload"
)

// nearCloneFleet builds n near-clones of base: frequencies skewed, a couple
// of templates dropped and added per tenant.
func nearCloneFleet(t *testing.T, base *workload.Workload, n int) []*workload.Workload {
	t.Helper()
	fam, err := workload.TenantFamily(base, n, 42, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*workload.Workload, n)
	for i, w := range fam {
		p, err := workload.PerturbTemplates(w, int64(1000+i), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

func TestNearMatchClustersNearClones(t *testing.T) {
	base := famBase(t, 3)
	ws := nearCloneFleet(t, base, 16)

	// Exact-twin clustering (overlap 1.0) scatters near-clones: template
	// drift changes the signature set.
	if exact := ClusterNear(ws, 1.0); len(exact) < 8 {
		t.Fatalf("near-clones unexpectedly exact-cluster into %d groups", len(exact))
	}

	clusters := ClusterNear(ws, DefaultNearMatchOverlap)
	if len(clusters) != 1 {
		t.Fatalf("near-match split %d near-clones into %d clusters", len(ws), len(clusters))
	}
	c := clusters[0]
	if len(c.Members) != len(ws) {
		t.Fatalf("cluster has %d members, want %d", len(c.Members), len(ws))
	}

	sup, err := c.SupersetWorkload()
	if err != nil {
		t.Fatalf("SupersetWorkload: %v", err)
	}
	if sup.NumQueries() != len(c.Templates) {
		t.Fatalf("superset has %d queries, templates list %d", sup.NumQueries(), len(c.Templates))
	}
	// The superset must be a true union: every member template appears under
	// its mapped superset ID with an identical signature.
	for _, m := range c.Members {
		w := ws[m.Pos]
		if len(m.QueryMap) != len(w.Queries) {
			t.Fatalf("member %d: QueryMap covers %d of %d queries", m.Pos, len(m.QueryMap), len(w.Queries))
		}
		for j, q := range w.Queries {
			sq := sup.Queries[m.QueryMap[j]]
			if TemplateSignature(q) != TemplateSignature(sq) {
				t.Errorf("member %d query %d maps to superset %d with signature %q != %q",
					m.Pos, j, m.QueryMap[j], TemplateSignature(sq), TemplateSignature(q))
			}
		}
	}
}

func TestNearMatchRespectsSchemaBoundary(t *testing.T) {
	a := famBase(t, 3)
	b := famBase(t, 4) // different seed -> different schema stats
	if SchemaFingerprint(a) == SchemaFingerprint(b) {
		t.Skip("generated schemas collided; adjust seeds")
	}
	clusters := ClusterNear([]*workload.Workload{a, b}, 0)
	if len(clusters) != 2 {
		t.Fatalf("tenants with different schemas merged into %d clusters", len(clusters))
	}
}

func TestNearMatchThresholdExtremes(t *testing.T) {
	base := famBase(t, 3)
	ws := nearCloneFleet(t, base, 8)
	if got := len(ClusterNear(ws, 0)); got != 1 {
		t.Errorf("threshold 0: %d clusters, want 1", got)
	}
	if got := len(ClusterNear(ws, 1.01)); got != len(ws) {
		t.Errorf("threshold >1: %d clusters, want %d", got, len(ws))
	}
}

func TestNearMatchDeterministic(t *testing.T) {
	base := famBase(t, 3)
	ws := nearCloneFleet(t, base, 12)
	a := ClusterNear(ws, DefaultNearMatchOverlap)
	b := ClusterNear(ws, DefaultNearMatchOverlap)
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Templates) != len(b[i].Templates) || len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("cluster %d differs across runs", i)
		}
		for j := range a[i].Members {
			if a[i].Members[j].Pos != b[i].Members[j].Pos {
				t.Fatalf("cluster %d member %d position differs", i, j)
			}
			for k := range a[i].Members[j].QueryMap {
				if a[i].Members[j].QueryMap[k] != b[i].Members[j].QueryMap[k] {
					t.Fatalf("cluster %d member %d query map differs at %d", i, j, k)
				}
			}
		}
	}
}

func TestNearMatcherOnlineMatchesBatch(t *testing.T) {
	base := famBase(t, 3)
	ws := nearCloneFleet(t, base, 10)
	batch := ClusterNear(ws, DefaultNearMatchOverlap)

	m := NewNearMatcher(DefaultNearMatchOverlap)
	for i, w := range ws {
		m.Add(i, w)
	}
	online := m.Clusters()
	if len(online) != len(batch) {
		t.Fatalf("online %d clusters, batch %d", len(online), len(batch))
	}
	for i := range online {
		if len(online[i].Members) != len(batch[i].Members) {
			t.Fatalf("cluster %d member counts differ", i)
		}
	}
}

// withRepeats returns base with query 0 repeated k more times under new IDs.
func withRepeats(t *testing.T, base *workload.Workload, k int) *workload.Workload {
	t.Helper()
	qs := append([]workload.Query(nil), base.Queries...)
	for i := 0; i < k; i++ {
		d := base.Queries[0]
		d.ID = len(qs)
		d.Freq += int64(i + 1)
		qs = append(qs, d)
	}
	w, err := workload.New(base.Tables, base.Attrs(), qs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Templates that repeat a signature keep superset templates of their own:
// the k-th repeat maps to the k-th superset template with that signature, so
// a cluster's first member maps through the identity, a member with one more
// repeat adds one superset template, and overlap 1.0 separates the two.
func TestNearMatchKeysRepeatedSignaturesByOccurrence(t *testing.T) {
	base := famBase(t, 3)
	one, two := withRepeats(t, base, 1), withRepeats(t, base, 2)

	cs := ClusterNear([]*workload.Workload{one, two}, DefaultNearMatchOverlap)
	if len(cs) != 1 || len(cs[0].Templates) != two.NumQueries() {
		t.Fatalf("got %d clusters, want 1 with %d superset templates", len(cs), two.NumQueries())
	}
	for _, m := range cs[0].Members {
		for j, sid := range m.QueryMap {
			if int(sid) != j {
				t.Fatalf("member %d maps query %d to superset template %d, want the identity", m.Pos, j, sid)
			}
		}
	}
	if exact := ClusterNear([]*workload.Workload{one, two}, 1.0); len(exact) != 2 {
		t.Fatalf("overlap 1.0 put workloads with 1 and 2 repeats into %d clusters, want 2", len(exact))
	}
}
