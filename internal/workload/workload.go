// Package workload models multi-attribute index-selection workloads: tables,
// attributes, conjunctive queries with frequencies, and (multi-attribute)
// indexes, following the notation of Schlosser et al., "Efficient Scalable
// Multi-Attribute Index Selection Using Recursive Strategies" (ICDE 2019),
// Appendix A.
//
// Attributes carry global IDs (unique across all tables of a workload); each
// attribute belongs to exactly one table, and each query accesses attributes
// of exactly one table (the paper's w.l.o.g. assumption in Section II-B).
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Attribute describes a single column. Selectivity follows the paper's
// definition s_i = 1/d_i where d_i is the number of distinct values.
type Attribute struct {
	// ID is the global attribute identifier, unique across the workload.
	ID int
	// Table is the ID of the owning table.
	Table int
	// Name is a human-readable label (e.g. "ORD.W_ID").
	Name string
	// Distinct is d_i, the number of distinct values (>= 1).
	Distinct int64
	// ValueSize is a_i, the size of one value in bytes (>= 1).
	ValueSize int
}

// Selectivity returns s_i = 1/d_i.
func (a Attribute) Selectivity() float64 { return 1 / float64(a.Distinct) }

// Table groups attributes and carries the row count n.
type Table struct {
	// ID is the table identifier, 0-based and dense within a workload.
	ID int
	// Name is a human-readable label.
	Name string
	// Rows is n, the number of rows.
	Rows int64
	// Attrs lists the global IDs of the table's attributes in schema order.
	Attrs []int
}

// QueryKind distinguishes read templates from write templates. The paper's
// model admits selections, inserts and updates (Section II-A); its
// evaluation uses selections only, and so do this repository's paper
// experiments — writes are the model's documented extension point and carry
// index-maintenance costs (see costmodel.MaintenanceCost).
type QueryKind int

const (
	// Select reads the accessed attributes (conjunctive equality).
	Select QueryKind = iota
	// Insert appends a row; every index on the table must be maintained.
	Insert
	// Update locates rows by the accessed attributes and rewrites them;
	// indexes containing any accessed attribute must be maintained.
	Update
)

func (k QueryKind) String() string {
	switch k {
	case Select:
		return "select"
	case Insert:
		return "insert"
	case Update:
		return "update"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// Query is a conjunctive access over a set of attributes of one table,
// weighted by its number of occurrences b_j.
type Query struct {
	// ID is the query identifier, 0-based and dense within a workload.
	ID int
	// Table is the ID of the single table the query accesses.
	Table int
	// Attrs is q_j: the global IDs of accessed attributes. Order is not
	// meaningful; the slice is kept sorted for deterministic iteration.
	// For Insert templates these are the written attributes; for Update,
	// the located-and-rewritten attributes.
	Attrs []int
	// Freq is b_j, the number of occurrences of the query (>= 1).
	Freq int64
	// Kind is the template type; the zero value is Select.
	Kind QueryKind

	// aset is a bitset over the span [asetBase, asetBase+64*len(aset)) of
	// global attribute IDs, mirroring Attrs for O(1) Accesses tests. It is
	// populated by New; hand-built Query values leave it nil and fall back
	// to the linear scan. Query attribute IDs cluster per table, so the
	// span (first..last accessed attribute) stays a handful of words even
	// when the workload has thousands of attributes.
	aset     []uint64
	asetBase int32
}

// initAccessSet builds the attribute bitset; Attrs must already be sorted.
func (q *Query) initAccessSet() {
	if len(q.Attrs) == 0 {
		return
	}
	base := q.Attrs[0]
	span := q.Attrs[len(q.Attrs)-1] - base + 1
	q.asetBase = int32(base)
	q.aset = make([]uint64, (span+63)/64)
	for _, a := range q.Attrs {
		off := a - base
		q.aset[off>>6] |= 1 << (off & 63)
	}
}

// IsWrite reports whether the query maintains indexes (Insert or Update).
func (q Query) IsWrite() bool { return q.Kind == Insert || q.Kind == Update }

// Maintains reports whether executing q requires maintaining index k:
// inserts maintain every index on their table, updates those indexes
// containing an accessed attribute, selects none.
func (q Query) Maintains(k Index) bool {
	if q.Table != k.Table {
		return false
	}
	switch q.Kind {
	case Insert:
		return true
	case Update:
		// Equivalent to scanning q.Attrs for membership in k, but driven by
		// the (typically shorter) index key so each test is one bit probe.
		for _, a := range k.Attrs {
			if q.Accesses(a) {
				return true
			}
		}
	}
	return false
}

// Accesses reports whether the query accesses global attribute id.
func (q Query) Accesses(id int) bool {
	if q.aset != nil {
		off := id - int(q.asetBase)
		return off >= 0 && off < len(q.aset)*64 && q.aset[off>>6]&(1<<(off&63)) != 0
	}
	for _, a := range q.Attrs {
		if a == id {
			return true
		}
	}
	return false
}

// Workload bundles tables and queries. Construct with New (or the package's
// generators) so that derived lookups are initialized and invariants checked.
type Workload struct {
	Tables  []Table
	Queries []Query

	attrs     []Attribute // indexed by global attribute ID
	attrTable []int       // attr ID -> table ID (redundant fast path)

	// Inverted indexes from attribute to the (ascending) IDs of queries
	// accessing it, so candidate evaluation iterates only applicable
	// queries instead of filtering all Q. attrReadQueries excludes Insert
	// templates (which have no read path and can never match Applicable).
	attrQueries     [][]int32
	attrReadQueries [][]int32
}

// New validates tables, attributes and queries and returns a Workload.
// Attribute IDs must be dense 0..N-1 and consistent with table membership;
// query attribute sets must be non-empty, single-table, and duplicate-free.
func New(tables []Table, attrs []Attribute, queries []Query) (*Workload, error) {
	w := &Workload{Tables: tables, Queries: queries, attrs: attrs}
	if err := w.validate(); err != nil {
		return nil, err
	}
	w.attrTable = make([]int, len(attrs))
	for i, a := range attrs {
		w.attrTable[i] = a.Table
	}
	w.attrQueries = make([][]int32, len(attrs))
	w.attrReadQueries = make([][]int32, len(attrs))
	for qi := range w.Queries {
		q := &w.Queries[qi]
		sort.Ints(q.Attrs)
		q.initAccessSet()
		for _, a := range q.Attrs {
			w.attrQueries[a] = append(w.attrQueries[a], int32(q.ID))
			if q.Kind != Insert {
				w.attrReadQueries[a] = append(w.attrReadQueries[a], int32(q.ID))
			}
		}
	}
	return w, nil
}

func (w *Workload) validate() error {
	for ti, t := range w.Tables {
		if t.ID != ti {
			return fmt.Errorf("workload: table %q has ID %d, want dense ID %d", t.Name, t.ID, ti)
		}
		if t.Rows < 1 {
			return fmt.Errorf("workload: table %q has %d rows, want >= 1", t.Name, t.Rows)
		}
		for _, id := range t.Attrs {
			if id < 0 || id >= len(w.attrs) {
				return fmt.Errorf("workload: table %q references unknown attribute %d", t.Name, id)
			}
			if w.attrs[id].Table != t.ID {
				return fmt.Errorf("workload: attribute %d listed under table %d but owned by table %d",
					id, t.ID, w.attrs[id].Table)
			}
		}
	}
	for ai, a := range w.attrs {
		if a.ID != ai {
			return fmt.Errorf("workload: attribute %q has ID %d, want dense ID %d", a.Name, a.ID, ai)
		}
		if a.Table < 0 || a.Table >= len(w.Tables) {
			return fmt.Errorf("workload: attribute %q references unknown table %d", a.Name, a.Table)
		}
		if a.Distinct < 1 {
			return fmt.Errorf("workload: attribute %q has %d distinct values, want >= 1", a.Name, a.Distinct)
		}
		if a.ValueSize < 1 {
			return fmt.Errorf("workload: attribute %q has value size %d, want >= 1", a.Name, a.ValueSize)
		}
	}
	for qi, q := range w.Queries {
		if q.ID != qi {
			return fmt.Errorf("workload: query %d has ID %d, want dense ID %d", qi, q.ID, qi)
		}
		if len(q.Attrs) == 0 {
			return fmt.Errorf("workload: query %d accesses no attributes", q.ID)
		}
		if q.Freq < 1 {
			return fmt.Errorf("workload: query %d has frequency %d, want >= 1", q.ID, q.Freq)
		}
		if q.Kind < Select || q.Kind > Update {
			return fmt.Errorf("workload: query %d has unknown kind %d", q.ID, int(q.Kind))
		}
		seen := make(map[int]bool, len(q.Attrs))
		for _, id := range q.Attrs {
			if id < 0 || id >= len(w.attrs) {
				return fmt.Errorf("workload: query %d references unknown attribute %d", q.ID, id)
			}
			if w.attrs[id].Table != q.Table {
				return fmt.Errorf("workload: query %d on table %d accesses attribute %d of table %d",
					q.ID, q.Table, id, w.attrs[id].Table)
			}
			if seen[id] {
				return fmt.Errorf("workload: query %d accesses attribute %d twice", q.ID, id)
			}
			seen[id] = true
		}
	}
	return nil
}

// NumAttrs returns N, the total number of attributes.
func (w *Workload) NumAttrs() int { return len(w.attrs) }

// NumQueries returns Q, the number of query templates.
func (w *Workload) NumQueries() int { return len(w.Queries) }

// Attr returns the attribute with the given global ID.
func (w *Workload) Attr(id int) Attribute { return w.attrs[id] }

// Attrs returns all attributes indexed by global ID. The returned slice is
// shared; callers must not modify it.
func (w *Workload) Attrs() []Attribute { return w.attrs }

// TableOf returns the table ID owning attribute id.
func (w *Workload) TableOf(id int) int { return w.attrTable[id] }

// TableRows returns n for the table owning attribute id.
func (w *Workload) TableRows(id int) int64 { return w.Tables[w.attrTable[id]].Rows }

// Occurrences returns g_i for every attribute: the frequency-weighted number
// of occurrences of attribute i across all queries,
// g_i = sum over queries j with i in q_j of b_j.
func (w *Workload) Occurrences() []int64 {
	g := make([]int64, len(w.attrs))
	for _, q := range w.Queries {
		for _, a := range q.Attrs {
			g[a] += q.Freq
		}
	}
	return g
}

// WriteQueries returns the IDs of Insert/Update templates.
func (w *Workload) WriteQueries() []int {
	var ids []int
	for _, q := range w.Queries {
		if q.IsWrite() {
			ids = append(ids, q.ID)
		}
	}
	return ids
}

// WritesByTable returns, per table, the IDs (ascending) of its Insert/Update
// templates: the only queries whose maintenance cost an index on that table
// can be charged.
func (w *Workload) WritesByTable() [][]int32 {
	out := make([][]int32, len(w.Tables))
	for _, q := range w.Queries {
		if q.IsWrite() {
			out[q.Table] = append(out[q.Table], int32(q.ID))
		}
	}
	return out
}

// AvgQueryWidth returns q-bar, the average number of attributes accessed per
// query template (unweighted, as in Section II-B).
func (w *Workload) AvgQueryWidth() float64 {
	if len(w.Queries) == 0 {
		return 0
	}
	var total int
	for _, q := range w.Queries {
		total += len(q.Attrs)
	}
	return float64(total) / float64(len(w.Queries))
}

// TotalFreq returns the total number of query executions, sum of b_j.
func (w *Workload) TotalFreq() int64 {
	var total int64
	for _, q := range w.Queries {
		total += q.Freq
	}
	return total
}

// FootprintBytes is a deterministic estimate of the heap bytes a resident
// Workload retains: tables, attributes, queries (attribute lists and access
// bitsets included) and the inverted attribute->query indexes. Like
// whatif.TableBytes it is an accounting measure, not measured RSS — the
// streaming fleet's resident-workload gauge and its bench guard use the same
// estimator on both sides of the comparison.
func (w *Workload) FootprintBytes() int64 {
	const (
		tableBytes = 64 // Table struct + slice/string headers
		attrBytes  = 48 // Attribute struct incl. name header
		queryBytes = 96 // Query struct incl. slice headers
		sliceHdr   = 24
	)
	b := int64(len(w.Tables)) * tableBytes
	for _, t := range w.Tables {
		b += int64(len(t.Attrs))*8 + int64(len(t.Name))
	}
	b += int64(len(w.attrs)) * attrBytes
	for _, a := range w.attrs {
		b += int64(len(a.Name))
	}
	b += int64(len(w.attrTable)) * 8
	b += int64(len(w.Queries)) * queryBytes
	for _, q := range w.Queries {
		b += int64(len(q.Attrs))*8 + int64(len(q.aset))*8
	}
	for _, ids := range w.attrQueries {
		b += sliceHdr + int64(len(ids))*4
	}
	for _, ids := range w.attrReadQueries {
		b += sliceHdr + int64(len(ids))*4
	}
	return b
}

// QueriesWithAttr returns the IDs (ascending) of all queries accessing
// global attribute id, Inserts included. The slice is shared; callers must
// not modify it.
func (w *Workload) QueriesWithAttr(id int) []int32 { return w.attrQueries[id] }

// ReadQueriesWithAttr is QueriesWithAttr restricted to templates with a read
// path (Kind != Insert) — exactly the queries for which an index led by id
// can be Applicable. The slice is shared; callers must not modify it.
func (w *Workload) ReadQueriesWithAttr(id int) []int32 { return w.attrReadQueries[id] }

// QueriesOnTable returns the IDs of queries accessing table t.
func (w *Workload) QueriesOnTable(t int) []int {
	var ids []int
	for _, q := range w.Queries {
		if q.Table == t {
			ids = append(ids, q.ID)
		}
	}
	return ids
}

// Index is an ordered multi-attribute index k = (i_1, ..., i_K) over
// attributes of a single table. The zero value is invalid; construct with
// NewIndex or extend an existing index with Append.
type Index struct {
	// Table is the ID of the indexed table.
	Table int
	// Attrs is the ordered list of global attribute IDs forming the key.
	Attrs []int
}

// NewIndex builds an index over the given attributes of workload w.
// All attributes must belong to the same table and be distinct.
func NewIndex(w *Workload, attrs ...int) (Index, error) {
	if len(attrs) == 0 {
		return Index{}, fmt.Errorf("workload: index needs at least one attribute")
	}
	t := -1
	seen := make(map[int]bool, len(attrs))
	for _, a := range attrs {
		if a < 0 || a >= w.NumAttrs() {
			return Index{}, fmt.Errorf("workload: index references unknown attribute %d", a)
		}
		if seen[a] {
			return Index{}, fmt.Errorf("workload: index repeats attribute %d", a)
		}
		seen[a] = true
		at := w.TableOf(a)
		if t == -1 {
			t = at
		} else if at != t {
			return Index{}, fmt.Errorf("workload: index spans tables %d and %d", t, at)
		}
	}
	return Index{Table: t, Attrs: append([]int(nil), attrs...)}, nil
}

// MustIndex is NewIndex that panics on error; intended for tests and examples
// with statically known attribute IDs.
func MustIndex(w *Workload, attrs ...int) Index {
	k, err := NewIndex(w, attrs...)
	if err != nil {
		panic(err)
	}
	return k
}

// Width returns K, the number of key attributes.
func (k Index) Width() int { return len(k.Attrs) }

// Leading returns l(k), the first key attribute.
func (k Index) Leading() int { return k.Attrs[0] }

// Contains reports whether attribute id appears anywhere in the key.
func (k Index) Contains(id int) bool {
	for _, a := range k.Attrs {
		if a == id {
			return true
		}
	}
	return false
}

// Append returns a new index with attribute id appended to the key
// ("morphing" step 3b of Algorithm 1). The receiver is not modified.
func (k Index) Append(id int) Index {
	attrs := make([]int, len(k.Attrs)+1)
	copy(attrs, k.Attrs)
	attrs[len(k.Attrs)] = id
	return Index{Table: k.Table, Attrs: attrs}
}

// Key returns a canonical string identity for the index, suitable as a map
// key. Attribute order is significant: Key of (1,2) differs from (2,1).
func (k Index) Key() string {
	var b strings.Builder
	b.Grow(4 * len(k.Attrs))
	for i, a := range k.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

// ParseIndexKey reconstructs an index from a canonical Key string using
// workload w to resolve the table. It is the inverse of Index.Key.
func ParseIndexKey(w *Workload, key string) (Index, error) {
	parts := strings.Split(key, ",")
	attrs := make([]int, 0, len(parts))
	for _, p := range parts {
		a, err := strconv.Atoi(p)
		if err != nil {
			return Index{}, fmt.Errorf("workload: bad index key %q: %v", key, err)
		}
		attrs = append(attrs, a)
	}
	return NewIndex(w, attrs...)
}

// String renders the index compactly with raw IDs, e.g. "t0(1,2)". An Index
// value carries no catalog, so names are not available here; use
// Workload.IndexName for a human-readable rendering like "ORD(W_ID,D_ID)".
func (k Index) String() string {
	return fmt.Sprintf("t%d(%s)", k.Table, k.Key())
}

// IndexName renders index k with table and attribute names from the catalog,
// e.g. "ORD(W_ID,D_ID)". Attribute names that repeat the table name as a
// "TABLE."-style prefix are trimmed; unnamed tables or attributes fall back
// to their numeric IDs.
func (w *Workload) IndexName(k Index) string {
	var b strings.Builder
	tname := ""
	if k.Table >= 0 && k.Table < len(w.Tables) {
		tname = w.Tables[k.Table].Name
	}
	if tname == "" {
		tname = fmt.Sprintf("t%d", k.Table)
	}
	b.WriteString(tname)
	b.WriteByte('(')
	for i, a := range k.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		name := ""
		if a >= 0 && a < len(w.attrs) {
			name = w.attrs[a].Name
		}
		if name == "" {
			b.WriteString(strconv.Itoa(a))
			continue
		}
		b.WriteString(strings.TrimPrefix(name, tname+"."))
	}
	b.WriteByte(')')
	return b.String()
}

// CoverablePrefix returns U(q, k): the longest prefix of k's key whose
// attributes are all accessed by q. A non-applicable index (leading attribute
// not in q) has an empty coverable prefix.
func CoverablePrefix(q Query, k Index) []int {
	var n int
	for _, a := range k.Attrs {
		if !q.Accesses(a) {
			break
		}
		n++
	}
	return k.Attrs[:n]
}

// Applicable reports whether index k can serve query q's read path: they
// target the same table, the leading attribute of k is accessed by q
// (Section II-B), and q has a read path at all (inserts do not).
func Applicable(q Query, k Index) bool {
	return q.Kind != Insert && q.Table == k.Table && q.Accesses(k.Leading())
}

// Selection is a set of indexes keyed by canonical index key. It corresponds
// to I* in the paper.
type Selection map[string]Index

// NewSelection builds a selection from the given indexes.
func NewSelection(indexes ...Index) Selection {
	s := make(Selection, len(indexes))
	for _, k := range indexes {
		s[k.Key()] = k
	}
	return s
}

// Add inserts index k; it reports whether k was not already present.
func (s Selection) Add(k Index) bool {
	key := k.Key()
	if _, ok := s[key]; ok {
		return false
	}
	s[key] = k
	return true
}

// Remove deletes index k; it reports whether k was present.
func (s Selection) Remove(k Index) bool {
	key := k.Key()
	if _, ok := s[key]; !ok {
		return false
	}
	delete(s, key)
	return true
}

// Has reports whether index k is in the selection.
func (s Selection) Has(k Index) bool {
	_, ok := s[k.Key()]
	return ok
}

// Clone returns a shallow copy of the selection.
func (s Selection) Clone() Selection {
	c := make(Selection, len(s))
	for key, k := range s {
		c[key] = k
	}
	return c
}

// Sorted returns the indexes ordered by canonical key for deterministic
// iteration.
func (s Selection) Sorted() []Index {
	keys := make([]string, 0, len(s))
	for key := range s {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]Index, 0, len(keys))
	for _, key := range keys {
		out = append(out, s[key])
	}
	return out
}
