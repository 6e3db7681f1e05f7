package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// PerturbFrequencies returns a structural copy of w whose template
// frequencies are redrawn multiplicatively: each b_j becomes
// round(b_j * exp(skew * Z)) with Z ~ N(0,1), clamped to >= 1. Tables,
// attributes and query attribute sets are untouched, so the result is
// structurally identical to w (an exact twin, sharing what-if costs at
// overlap 1.0 in fleet mode) while its frequency-weighted objective differs. skew = 0
// returns an exact copy; larger skews model tenants whose traffic mixes have
// drifted further apart. The draw is deterministic for a given seed.
func PerturbFrequencies(w *Workload, seed int64, skew float64) (*Workload, error) {
	if skew < 0 {
		return nil, fmt.Errorf("workload: skew must be >= 0 (got %g)", skew)
	}
	r := rand.New(rand.NewSource(seed))
	queries := make([]Query, len(w.Queries))
	for i, q := range w.Queries {
		q.Attrs = append([]int(nil), q.Attrs...)
		f := math.Round(float64(q.Freq) * math.Exp(skew*r.NormFloat64()))
		if f < 1 {
			f = 1
		}
		q.Freq = int64(f)
		queries[i] = q
	}
	tables := make([]Table, len(w.Tables))
	copy(tables, w.Tables)
	attrs := make([]Attribute, w.NumAttrs())
	copy(attrs, w.Attrs())
	return New(tables, attrs, queries)
}

// PerturbTemplates returns a near-clone of w: drop templates removed (chosen
// uniformly), add fresh templates synthesized over w's schema, and all query
// IDs re-densified. Unlike PerturbFrequencies the result is structurally
// DIFFERENT from w — near-clone tenants land in separate exact clusters and
// only share via near-match clustering (compress.ClusterNear), which is
// precisely what fleet benches and tests need near-clone families for.
// Synthesized templates are mostly selects with an occasional update, 1–3
// attributes wide, drawn deterministically from seed. At least one template
// always survives: drop is capped at len(w.Queries)-1.
func PerturbTemplates(w *Workload, seed int64, drop, add int) (*Workload, error) {
	if drop < 0 || add < 0 {
		return nil, fmt.Errorf("workload: drop/add must be >= 0 (got %d/%d)", drop, add)
	}
	if drop >= len(w.Queries) {
		drop = len(w.Queries) - 1
	}
	r := rand.New(rand.NewSource(seed))
	dropped := make(map[int]bool, drop)
	for _, i := range r.Perm(len(w.Queries))[:drop] {
		dropped[i] = true
	}
	queries := make([]Query, 0, len(w.Queries)-drop+add)
	for i, q := range w.Queries {
		if dropped[i] {
			continue
		}
		q.ID = len(queries)
		q.Attrs = append([]int(nil), q.Attrs...)
		queries = append(queries, q)
	}
	for i := 0; i < add; i++ {
		t := w.Tables[r.Intn(len(w.Tables))]
		width := 1 + r.Intn(3)
		if width > len(t.Attrs) {
			width = len(t.Attrs)
		}
		attrs := make([]int, width)
		for j, p := range r.Perm(len(t.Attrs))[:width] {
			attrs[j] = t.Attrs[p]
		}
		kind := Select
		if r.Float64() < 0.2 {
			kind = Update
		}
		queries = append(queries, Query{
			ID:    len(queries),
			Table: t.ID,
			Attrs: attrs,
			Freq:  1 + r.Int63n(100),
			Kind:  kind,
		})
	}
	tables := make([]Table, len(w.Tables))
	copy(tables, w.Tables)
	attrs := make([]Attribute, w.NumAttrs())
	copy(attrs, w.Attrs())
	return New(tables, attrs, queries)
}

// TenantFamily derives n tenants from one base workload by frequency
// perturbation: member i uses seed+i, so families are reproducible and
// individual members can be regenerated in isolation. All members share the
// base's structure — a fleet clustering them (compress.Cluster) places the
// whole family in one cluster and shares candidate enumeration and what-if
// costs across it.
func TenantFamily(base *Workload, n int, seed int64, skew float64) ([]*Workload, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: tenant family size must be >= 1 (got %d)", n)
	}
	out := make([]*Workload, n)
	for i := range out {
		w, err := PerturbFrequencies(base, seed+int64(i), skew)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}
