// Near-match clustering for fleet mode. Real fleets are full of
// near-clones — the same schema with template sets that drift a little per
// tenant (an added report here, a dropped batch job there, cf. AIM's
// production fleets). Per-execution what-if costs decompose per (template,
// index) and never read frequencies (cf. CoPhy's decomposition), so tenants
// can share cost tables at template granularity: cluster tenants whose
// template sets overlap enough, take the UNION of their templates as the
// cluster superset, and give each member a mapping from its local query IDs
// into the superset. A shared what-if optimizer keyed on superset template
// IDs then serves every member exactly — a member simply never probes the
// superset templates it does not have.
//
// Sharing is only sound when the schema (tables, row counts, attribute
// statistics) is identical across members: schema feeds every cost formula.
// Near-match therefore clusters within exact schema-fingerprint groups and
// lets only the template sets differ. At threshold 1.0 it groups exact twins:
// identical template-signature multisets, frequencies and names free.
//
// Templates are keyed by (signature, occurrence): the k-th template with a
// given signature in a tenant maps to the k-th superset template with that
// signature. Templates with equal signatures are therefore never merged, so a
// tenant that founds its cluster — every singleton, and every twin listing
// its templates in the same order — gets the identity query map, and a
// source that answers by template ID (the measured engine seeds each point
// query from it) prices exactly the queries the tenant would alone.
package compress

import "repro/internal/workload"

// NearMember is one tenant's membership in a near-match cluster: its input
// position and the mapping from tenant-local query IDs to superset template
// IDs (positions in the cluster's template list).
type NearMember struct {
	Pos      int
	QueryMap []int32
}

// NearClusterInfo describes one near-match cluster: the shared schema
// (fingerprint plus retained table/attribute copies), the union template list
// (template ID = list position, frequencies normalized to 1 — members
// reweight via their own Freq), and the members in input order. The first
// member is the representative whose template set later tenants were matched
// against.
type NearClusterInfo struct {
	Schema    Fingerprint
	Tables    []workload.Table
	Attrs     []workload.Attribute
	Templates []workload.Query
	Members   []NearMember
}

// SupersetWorkload materializes the cluster's union templates over its schema
// as a full workload — the workload a shared cost model and optimizer are
// built over. Template IDs equal superset template IDs, so
// Queries[m.QueryMap[j]] is the canonical query for member m's local query j.
func (c NearClusterInfo) SupersetWorkload() (*workload.Workload, error) {
	qs := make([]workload.Query, len(c.Templates))
	copy(qs, c.Templates)
	return workload.New(c.Tables, c.Attrs, qs)
}

// NearMatcher clusters workloads online, one at a time, retaining only
// per-cluster skeletons (schema copy + union templates + template-key index) —
// never the workloads themselves. That is what lets a fleet of lazily loaded
// tenants be clustered without holding the manifest in memory: pass one
// loads each workload, feeds it to Add, and releases it.
//
// Assignment is greedy and deterministic in input order: a workload joins the
// first cluster (in creation order) with an identical schema whose
// REPRESENTATIVE template set overlaps its own by Jaccard >= threshold.
// Matching against the representative — not the growing union — keeps cluster
// drift bounded: every member is within the threshold of the first member, so
// the superset stays within (2 - threshold)/threshold of any member's size.
type NearMatcher struct {
	threshold float64
	clusters  []*nearCluster
	bySchema  map[Fingerprint][]int
}

type nearCluster struct {
	schema Fingerprint
	// tables/attrs are deep copies of the first member's schema, safe to
	// retain after the member workload is released.
	tables []workload.Table
	attrs  []workload.Attribute
	// keyIndex maps template keys to superset template IDs; repKeys is the
	// frozen key set of the first member.
	keyIndex  map[templateKey]int32
	repKeys   map[templateKey]bool
	templates []workload.Query
	members   []NearMember
}

// DefaultNearMatchOverlap is the default Jaccard threshold: half the
// templates shared is where union-superset sharing starts winning over
// per-tenant tables in the fleet bench.
const DefaultNearMatchOverlap = 0.5

// templateKey identifies a template within a tenant for matching: its
// signature and how many earlier templates of the tenant share it.
type templateKey struct {
	sig string
	occ int
}

// NewNearMatcher returns an online near-match clusterer. threshold is the
// minimum Jaccard overlap |A∩B|/|A∪B| between a tenant's template-signature
// multiset and a cluster representative's; values <= 0 merge every tenant with an
// identical schema, values > 1 make every tenant its own cluster.
func NewNearMatcher(threshold float64) *NearMatcher {
	return &NearMatcher{threshold: threshold, bySchema: make(map[Fingerprint][]int)}
}

// Add assigns the workload at input position pos to a cluster, extending the
// cluster's template superset with any templates the tenant has that the
// superset lacks. w is not retained.
func (m *NearMatcher) Add(pos int, w *workload.Workload) {
	sf := SchemaFingerprint(w)
	keys := make([]templateKey, len(w.Queries))
	keySet := make(map[templateKey]bool, len(w.Queries))
	seen := make(map[string]int, len(w.Queries))
	for j, q := range w.Queries {
		sig := TemplateSignature(q)
		keys[j] = templateKey{sig, seen[sig]}
		seen[sig]++
		keySet[keys[j]] = true
	}

	var c *nearCluster
	for _, ci := range m.bySchema[sf] {
		cand := m.clusters[ci]
		if !sameSchema(cand, w) {
			continue
		}
		if jaccard(keySet, cand.repKeys) >= m.threshold {
			c = cand
			break
		}
	}
	if c == nil {
		c = &nearCluster{
			schema:   sf,
			tables:   copyTables(w.Tables),
			attrs:    append([]workload.Attribute(nil), w.Attrs()...),
			keyIndex: make(map[templateKey]int32, len(w.Queries)),
			repKeys:  keySet,
		}
		m.bySchema[sf] = append(m.bySchema[sf], len(m.clusters))
		m.clusters = append(m.clusters, c)
	}

	qmap := make([]int32, len(w.Queries))
	for j, q := range w.Queries {
		id, ok := c.keyIndex[keys[j]]
		if !ok {
			id = int32(len(c.templates))
			t := q
			t.ID = int(id)
			t.Freq = 1
			t.Attrs = append([]int(nil), q.Attrs...)
			c.templates = append(c.templates, t)
			c.keyIndex[keys[j]] = id
		}
		qmap[j] = id
	}
	c.members = append(c.members, NearMember{Pos: pos, QueryMap: qmap})
}

// Clusters returns the assignments so far, in cluster-creation order (which
// is input order of each cluster's first member).
func (m *NearMatcher) Clusters() []NearClusterInfo {
	out := make([]NearClusterInfo, len(m.clusters))
	for i, c := range m.clusters {
		out[i] = NearClusterInfo{
			Schema:    c.schema,
			Tables:    c.tables,
			Attrs:     c.attrs,
			Templates: c.templates,
			Members:   c.members,
		}
	}
	return out
}

// ClusterNear is the batch form of NearMatcher: partition ws into near-match
// clusters at the given Jaccard threshold.
func ClusterNear(ws []*workload.Workload, threshold float64) []NearClusterInfo {
	m := NewNearMatcher(threshold)
	for i, w := range ws {
		m.Add(i, w)
	}
	return m.Clusters()
}

// jaccard computes |a∩b| / |a∪b| over template-key sets; two empty sets
// count as fully overlapping.
func jaccard(a, b map[templateKey]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for s := range a {
		if b[s] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// sameSchema compares w's schema against a cluster's retained skeleton — the
// collision guard behind SchemaFingerprint.
func sameSchema(c *nearCluster, w *workload.Workload) bool {
	if len(c.tables) != len(w.Tables) || len(c.attrs) != w.NumAttrs() {
		return false
	}
	for i, ta := range c.tables {
		tb := w.Tables[i]
		if ta.Rows != tb.Rows || len(ta.Attrs) != len(tb.Attrs) {
			return false
		}
		for j, at := range ta.Attrs {
			if at != tb.Attrs[j] {
				return false
			}
		}
	}
	wa := w.Attrs()
	for i, aa := range c.attrs {
		ab := wa[i]
		if aa.Table != ab.Table || aa.Distinct != ab.Distinct || aa.ValueSize != ab.ValueSize {
			return false
		}
	}
	return true
}

func copyTables(ts []workload.Table) []workload.Table {
	out := make([]workload.Table, len(ts))
	for i, t := range ts {
		out[i] = t
		out[i].Attrs = append([]int(nil), t.Attrs...)
	}
	return out
}
