// Structural identities for fleet clustering. Tenants of a large fleet are
// frequently near-duplicates of one another: the same schema and mostly the
// same query templates, differing in template frequencies, cosmetic names
// and a few added or dropped templates. Every per-execution what-if cost
// f_j(k) depends only on the schema and on the template's structure — the
// cost model and the measured engine price one execution of a template
// against an index, and frequencies only enter as the linear weights of
// TotalCost. Two identities capture exactly that: SchemaFingerprint for the
// schema, TemplateSignature for one template. NearMatcher clusters on both.
package compress

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Fingerprint is a 64-bit structural hash of a workload's schema, invariant
// under renaming and template changes.
type Fingerprint uint64

// TemplateSignature returns the canonical structural signature of one query
// template: table, kind, and the sorted accessed-attribute IDs — everything
// that determines the template's per-execution costs, and nothing else
// (frequency and names are excluded). Two templates with equal signatures are
// interchangeable for what-if costing.
func TemplateSignature(q workload.Query) string {
	var b strings.Builder
	b.Grow(8 + 4*len(q.Attrs))
	b.WriteString("t")
	b.WriteString(strconv.Itoa(q.Table))
	b.WriteByte(':')
	b.WriteString(q.Kind.String())
	b.WriteByte(':')
	for i, a := range q.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

// SchemaFingerprint hashes the schema of w as 64-bit FNV-1a: tables (row
// counts, attribute ownership) and attributes (distinct counts, value
// sizes). Query templates, frequencies and all names are excluded — it is
// the sharing-soundness boundary for near-match clustering, which guards
// against collisions by comparing the schemas themselves.
func SchemaFingerprint(w *workload.Workload) Fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(w.Tables)))
	for _, t := range w.Tables {
		u64(uint64(t.Rows))
		u64(uint64(len(t.Attrs)))
		for _, a := range t.Attrs {
			u64(uint64(a))
		}
	}
	u64(uint64(w.NumAttrs()))
	for _, a := range w.Attrs() {
		u64(uint64(a.Table))
		u64(uint64(a.Distinct))
		u64(uint64(a.ValueSize))
	}
	return Fingerprint(h.Sum64())
}
