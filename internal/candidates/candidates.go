// Package candidates enumerates multi-attribute index candidates and
// implements the paper's candidate-set heuristics H1-M, H2-M, H3-M
// (Example 1 (iv)). Candidates are derived from attribute combinations that
// co-occur in at least one workload query — combinations never accessed
// together cannot help any query, so this universe is exactly the paper's
// I_max of "all potential indexes".
package candidates

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/workload"
)

// MaxWidth is the paper's candidate width bound: heuristics build candidates
// of m = 1..4 attributes (Example 1 (iv)).
const MaxWidth = 4

// Combo is an unordered attribute combination co-occurring in the workload.
type Combo struct {
	// Attrs is the sorted set of global attribute IDs (single table).
	Attrs []int
	// Table is the owning table.
	Table int
	// Weight is the frequency-weighted number of co-occurrences,
	// sum of b_j over queries j with Attrs ⊆ q_j (cf. H1-M).
	Weight int64
	// Selectivity is the combined selectivity prod s_i (cf. H2-M).
	Selectivity float64
}

// Packed combination keys. Within a table whose queries access n distinct
// attributes, a rank field is b = ⌈log₂ n⌉ bits wide, and a width-m
// combination whose attributes have ranks r_0 < ... < r_{m-1} among the
// table's accessed attribute IDs (ascending) packs into one uint64 as
//
//	m<<4b | r_0<<3b | r_1<<2b | r_2<<b | r_3
//
// with unused rank fields zero. Ranks preserve attribute-ID order, so the
// integer order of keys is the canonical combination order within a table:
// width first, then attribute IDs lexicographically. A key uses its low
// 4b+3 bits only, and the radix sort passes over just those.
const (
	maxRankBits = 15

	// MaxTableAttrs is the most distinct attributes the queries of one
	// table may access together: the widest rank field a 64-bit packed
	// combination key holds. Enumerate rejects a workload above it.
	MaxTableAttrs = 1 << maxRankBits
)

// comboRec is one (packed key, weight) record of a table's enumeration.
type comboRec struct {
	key    uint64
	weight int64
}

// attrSet is a distinct attribute set of one table's queries with its
// frequencies summed.
type attrSet struct {
	attrs []int
	freq  int64
}

// Set is a workload's distinct attribute combinations of width 1..maxWidth
// as merged packed-key records, one run per table, in the canonical
// combination order: table, width, then attribute IDs. A record's position
// in that order is its tie-break in every ranking, and only the
// combinations a caller asks for are materialized.
type Set struct {
	w        *workload.Workload
	maxWidth int
	recs     []comboRec
	tables   []tableRecs
}

// tableRecs locates one table's records in Set.recs and decodes their keys.
type tableRecs struct {
	// byWidth[m-1]:byWidth[m] is the table's run of width-m records.
	byWidth [MaxWidth + 1]int
	// ids are the table's accessed attribute IDs, ascending (the rank
	// order), and sel their selectivities.
	ids      []int
	sel      []float64
	rankBits uint
}

// rankShift is the bit offset of the rank field for position i.
func (t *tableRecs) rankShift(i int) uint { return t.rankBits * uint(MaxWidth-1-i) }

// width returns the number of attributes packed into key.
func (t *tableRecs) width(key uint64) int { return int(key >> (t.rankBits * MaxWidth)) }

// decode writes key's attribute IDs (ascending) into attrs, whose length
// must be key's width, and returns the combined selectivity: the product
// of the attributes' selectivities, multiplied in ascending ID order.
func (t *tableRecs) decode(key uint64, attrs []int) float64 {
	s := 1.0
	for j := range attrs {
		rk := key >> t.rankShift(j) & (1<<t.rankBits - 1)
		attrs[j] = t.ids[rk]
		s *= t.sel[rk]
	}
	return s
}

// Enumerate collects every attribute combination of size 1..maxWidth that
// appears (as a subset) in at least one query, with its co-occurrence
// weight. maxWidth must be in [1, MaxWidth], and no table's queries may
// access more than MaxTableAttrs distinct attributes.
//
// Queries are bucketed by table and identical attribute sets merged first,
// so each distinct (table, attribute set) is enumerated once. Each table's
// subsets are then appended as packed-key records to one buffer, radix
// sorted and equal keys merged; keys already come out in the final order,
// so no global sort is needed.
func Enumerate(w *workload.Workload, maxWidth int) (*Set, error) {
	if maxWidth < 1 || maxWidth > MaxWidth {
		return nil, fmt.Errorf("candidates: maxWidth %d out of range [1,%d]", maxWidth, MaxWidth)
	}
	nt := len(w.Tables)

	// Query indexes grouped by table (counting sort, query order kept).
	qOff := make([]int, nt+1)
	for _, q := range w.Queries {
		qOff[q.Table+1]++
	}
	for t := 0; t < nt; t++ {
		qOff[t+1] += qOff[t]
	}
	order := make([]int32, len(w.Queries))
	fill := append([]int(nil), qOff[:nt]...)
	for i, q := range w.Queries {
		order[fill[q.Table]] = int32(i)
		fill[q.Table]++
	}

	// Per table: its distinct attribute sets and its accessed attribute IDs
	// (ascending: the rank order). raw counts the subset records all tables
	// will emit, so the record buffer is allocated once.
	var (
		sets   []attrSet
		ids    []int
		setOff = make([]int, nt+1)
		idOff  = make([]int, nt+1)
		raw    int
	)
	for t := 0; t < nt; t++ {
		qs := order[qOff[t]:qOff[t+1]]
		slices.SortFunc(qs, func(a, b int32) int {
			return slices.Compare(w.Queries[a].Attrs, w.Queries[b].Attrs)
		})
		first := len(sets)
		for _, qi := range qs {
			q := &w.Queries[qi]
			if n := len(sets); n > first && slices.Equal(sets[n-1].attrs, q.Attrs) {
				sets[n-1].freq += q.Freq
				continue
			}
			sets = append(sets, attrSet{attrs: q.Attrs, freq: q.Freq})
			for m := 1; m <= maxWidth; m++ {
				raw += binomial(len(q.Attrs), m)
			}
		}
		setOff[t+1] = len(sets)

		idStart := len(ids)
		for _, s := range sets[first:] {
			ids = append(ids, s.attrs...)
		}
		tids := ids[idStart:]
		slices.Sort(tids)
		ids = ids[:idStart+len(slices.Compact(tids))]
		if n := len(ids) - idStart; n > MaxTableAttrs {
			return nil, fmt.Errorf("candidates: table %q accesses %d distinct attributes, above the limit of %d",
				w.Tables[t].Name, n, MaxTableAttrs)
		}
		idOff[t+1] = len(ids)
	}

	// Enumerate, sort and merge each table's records in one buffer.
	s := &Set{w: w, maxWidth: maxWidth, tables: make([]tableRecs, nt)}
	e := enumerator{recs: make([]comboRec, 0, raw), maxWidth: maxWidth}
	sel := make([]float64, len(ids))
	for i, id := range ids {
		sel[i] = w.Attr(id).Selectivity()
	}
	rank := make([]uint64, w.NumAttrs())
	var tmp []comboRec
	for t := 0; t < nt; t++ {
		tr := &s.tables[t]
		tr.byWidth[0] = len(e.recs)
		tr.ids, tr.sel = ids[idOff[t]:idOff[t+1]], sel[idOff[t]:idOff[t+1]]
		if n := len(tr.ids); n > 1 {
			tr.rankBits = uint(bits.Len(uint(n - 1)))
		}
		for r, id := range tr.ids {
			rank[id] = uint64(r)
		}
		start := len(e.recs)
		e.table = tr
		for _, as := range sets[setOff[t]:setOff[t+1]] {
			e.ranks = e.ranks[:0]
			for _, a := range as.attrs {
				e.ranks = append(e.ranks, rank[a])
			}
			e.emit(0, 0, 0, as.freq)
		}
		seg := e.recs[start:]
		tmp = radixSort(seg, tmp, tr.rankBits*MaxWidth+3)
		n := 0
		for i, r := range seg {
			if i > 0 && r.key == seg[n-1].key {
				seg[n-1].weight += r.weight
				continue
			}
			seg[n] = r
			n++
			tr.byWidth[tr.width(r.key)]++
		}
		e.recs = e.recs[:start+n]
		for m := 0; m < MaxWidth; m++ {
			tr.byWidth[m+1] += tr.byWidth[m]
		}
	}
	s.recs = e.recs
	return s, nil
}

// Combos enumerates the workload's combinations (see Enumerate) and
// materializes all of them in the canonical order, every Attrs slice carved
// from one slab.
func Combos(w *workload.Workload, maxWidth int) ([]Combo, error) {
	s, err := Enumerate(w, maxWidth)
	if err != nil {
		return nil, err
	}
	width := 0
	for i := range s.tables {
		for m, tr := 1, &s.tables[i]; m <= MaxWidth; m++ {
			width += m * (tr.byWidth[m] - tr.byWidth[m-1])
		}
	}
	slab := make([]int, width)
	combos := make([]Combo, len(s.recs))
	for t := range s.tables {
		tr := &s.tables[t]
		for i := tr.byWidth[0]; i < tr.byWidth[MaxWidth]; i++ {
			r := s.recs[i]
			m := tr.width(r.key)
			attrs := slab[:m:m]
			slab = slab[m:]
			combos[i] = Combo{Attrs: attrs, Table: t, Weight: r.weight, Selectivity: tr.decode(r.key, attrs)}
		}
	}
	return combos, nil
}

// Len returns the number of distinct combinations.
func (s *Set) Len() int { return len(s.recs) }

// enumerator appends the packed-key records of every subset of one
// attribute set, given as ascending ranks within table.
type enumerator struct {
	recs     []comboRec
	ranks    []uint64
	table    *tableRecs
	maxWidth int
}

// emit appends the subsets extending prefix (depth ranks already placed,
// the next drawn from ranks[start:]).
func (e *enumerator) emit(start, depth int, prefix uint64, freq int64) {
	width := uint64(depth+1) << (e.table.rankBits * MaxWidth)
	shift := e.table.rankShift(depth)
	for i := start; i < len(e.ranks); i++ {
		k := prefix | e.ranks[i]<<shift
		e.recs = append(e.recs, comboRec{key: k | width, weight: freq})
		if depth+1 < e.maxWidth {
			e.emit(i+1, depth+1, k, freq)
		}
	}
}

// radixSort sorts recs by key with a stable LSD radix sort over the low
// keyBits bits, one byte per pass, skipping passes whose byte is the same
// in every record. tmp is the pass buffer; the (possibly grown) buffer is
// returned for reuse.
func radixSort(recs, tmp []comboRec, keyBits uint) []comboRec {
	if len(recs) < 2 {
		return tmp
	}
	if cap(tmp) < len(recs) {
		tmp = make([]comboRec, len(recs))
	}
	src, dst := recs, tmp[:len(recs)]
	for shift := uint(0); shift < keyBits; shift += 8 {
		var off [256]int
		for _, r := range src {
			off[r.key>>shift&0xff]++
		}
		if off[src[0].key>>shift&0xff] == len(src) {
			continue
		}
		sum := 0
		for d, c := range off {
			off[d] = sum
			sum += c
		}
		for _, r := range src {
			d := r.key >> shift & 0xff
			dst[off[d]] = r
			off[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
	return tmp
}

// binomial returns n choose k for small k.
func binomial(n, k int) int {
	if k > n {
		return 0
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// CountPermutations returns |IC_max|: the number of distinct ordered index
// candidates over the given combinations (each width-m combination yields m!
// permutations; distinct combinations never share a permutation).
func CountPermutations(combos []Combo) int64 {
	fact := [MaxWidth + 1]int64{1, 1, 2, 6, 24}
	var total int64
	for _, c := range combos {
		total += fact[len(c.Attrs)]
	}
	return total
}

// Permutations materializes the full candidate set I_max: every ordering of
// every combination. Use only when CountPermutations is tractable.
func Permutations(combos []Combo) []workload.Index {
	var out []workload.Index
	for _, c := range combos {
		permute(c.Attrs, func(p []int) {
			out = append(out, workload.Index{Table: c.Table, Attrs: append([]int(nil), p...)})
		})
	}
	return out
}

// permute calls f with every permutation of attrs (Heap's algorithm; f must
// copy if it retains the slice).
func permute(attrs []int, f func([]int)) {
	p := append([]int(nil), attrs...)
	var rec func(n int)
	rec = func(n int) {
		if n == 1 {
			f(p)
			return
		}
		for i := 0; i < n-1; i++ {
			rec(n - 1)
			if n%2 == 0 {
				p[i], p[n-1] = p[n-1], p[i]
			} else {
				p[0], p[n-1] = p[n-1], p[0]
			}
		}
		rec(n - 1)
	}
	rec(len(p))
}

// Representative returns the combination's representative ordering: key
// attributes sorted by descending occurrence frequency g_i (most widely
// shared leading attribute first, maximizing applicability to partial
// queries), ties broken by ascending selectivity then attribute ID. This is
// the paper's "presumably best representative" substitution (Section IV-B).
func Representative(c Combo, g []int64, w *workload.Workload) workload.Index {
	attrs := append([]int(nil), c.Attrs...)
	orderRepresentative(attrs, g, w)
	return workload.Index{Table: c.Table, Attrs: attrs}
}

// orderRepresentative sorts attrs into the representative ordering. The
// order is total (attribute IDs are distinct), so an insertion sort, cheap
// for combinations of at most MaxWidth attributes, agrees with any other
// sort.
func orderRepresentative(attrs []int, g []int64, w *workload.Workload) {
	before := func(a, b int) bool {
		if g[a] != g[b] {
			return g[a] > g[b]
		}
		if sa, sb := w.Attr(a).Selectivity(), w.Attr(b).Selectivity(); sa != sb {
			return sa < sb
		}
		return a < b
	}
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && before(attrs[j], attrs[j-1]); j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

// Representatives returns one representative index per combination, in the
// canonical order. The ordering weighs w's occurrence frequencies: w is the
// enumerated workload or one with the same tables, attributes and query
// attribute sets (a fleet tenant sharing its cluster's enumeration).
func (s *Set) Representatives(w *workload.Workload) []workload.Index {
	all := make([]ranked, 0, len(s.recs))
	for t := range s.tables {
		for p := s.tables[t].byWidth[0]; p < s.tables[t].byWidth[MaxWidth]; p++ {
			all = append(all, ranked{pos: int32(p), table: int32(t)})
		}
	}
	return s.representatives(w, all)
}

// representatives materializes the representative ordering of each chosen
// record, every Attrs slice carved from one slab.
func (s *Set) representatives(w *workload.Workload, chosen []ranked) []workload.Index {
	width := 0
	for _, c := range chosen {
		width += s.tables[c.table].width(s.recs[c.pos].key)
	}
	slab := make([]int, width)
	g := w.Occurrences()
	out := make([]workload.Index, len(chosen))
	for i, c := range chosen {
		tr, key := &s.tables[c.table], s.recs[c.pos].key
		m := tr.width(key)
		attrs := slab[:m:m]
		slab = slab[m:]
		tr.decode(key, attrs)
		orderRepresentative(attrs, g, w)
		out[i] = workload.Index{Table: int(c.table), Attrs: attrs}
	}
	return out
}

// Heuristic identifies a candidate-set heuristic of Example 1 (iv).
type Heuristic int

const (
	// H1M ranks width-m combinations by descending co-occurrence frequency.
	H1M Heuristic = iota + 1
	// H2M ranks by ascending combined selectivity.
	H2M
	// H3M ranks by ascending ratio of combined selectivity to co-occurrence
	// frequency.
	H3M
)

func (h Heuristic) String() string {
	switch h {
	case H1M:
		return "H1-M"
	case H2M:
		return "H2-M"
	case H3M:
		return "H3-M"
	default:
		return fmt.Sprintf("Heuristic(%d)", int(h))
	}
}

// Select applies heuristic h to pick approximately total candidates:
// for each width m = 1..maxWidth it takes the top total/maxWidth
// combinations under the heuristic's ranking and emits their representative
// orderings (Example 1: "For M index candidates, let h := M/4 for each
// m = 1,...,4"). Fewer candidates are returned when a width class is
// exhausted. Ties in the heuristic's key fall back to the record position,
// which is the canonical combination order.
func (s *Set) Select(h Heuristic, total int) ([]workload.Index, error) {
	if total < s.maxWidth {
		return nil, fmt.Errorf("candidates: total %d below one candidate per width class (maxWidth %d)", total, s.maxWidth)
	}
	perWidth := total / s.maxWidth

	// Each width class streams through a bounded max-heap of its perWidth
	// best records so far (the root is the worst of them), so a record not
	// beating the root costs one integer comparison and nothing is
	// materialized until the winners are known.
	var chosen, heap []ranked
	var attrs [MaxWidth]int
	for m := 1; m <= s.maxWidth; m++ {
		heap = heap[:0]
		for t := range s.tables {
			tr := &s.tables[t]
			for p := tr.byWidth[m-1]; p < tr.byWidth[m]; p++ {
				r := s.recs[p]
				var key uint64
				switch h {
				case H1M:
					key = ^(uint64(r.weight) ^ 1<<63)
				case H2M:
					key = floatKey(tr.decode(r.key, attrs[:m]))
				case H3M:
					key = floatKey(tr.decode(r.key, attrs[:m]) / float64(r.weight))
				}
				rec := ranked{key: key, pos: int32(p), table: int32(t)}
				switch {
				case len(heap) < perWidth:
					heap = append(heap, rec)
					siftUp(heap, len(heap)-1)
				case rec.compare(heap[0]) < 0:
					heap[0] = rec
					siftDown(heap, 0)
				}
			}
		}
		slices.SortFunc(heap, ranked.compare)
		chosen = append(chosen, heap...)
	}
	return s.representatives(s.w, chosen), nil
}

// ranked is a combination's ranking record: its heuristic key mapped to an
// unsigned integer that orders (and ties) exactly like the heuristic —
// H1-M by descending weight, H2-M by ascending selectivity, H3-M by
// ascending selectivity/weight, each computed once with the same IEEE
// operations; unknown heuristics rank every combination equal — and its
// record position and table.
type ranked struct {
	key   uint64
	pos   int32
	table int32
}

// compare orders records by key, then by position: one total order of
// integers.
func (a ranked) compare(b ranked) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return cmp.Compare(a.pos, b.pos)
}

// floatKey maps f to an unsigned integer with the same order and equality
// as float comparison (-0 and +0 map to one key; selectivities and ratios
// are never NaN).
func floatKey(f float64) uint64 {
	if f == 0 {
		f = 0 // -0 -> +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// siftUp restores the max-heap property of heap above i.
func siftUp(heap []ranked, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if heap[parent].compare(heap[i]) >= 0 {
			return
		}
		heap[i], heap[parent] = heap[parent], heap[i]
		i = parent
	}
}

// siftDown restores the max-heap property of heap below i.
func siftDown(heap []ranked, i int) {
	for {
		worst := i
		if c := 2*i + 1; c < len(heap) && heap[worst].compare(heap[c]) < 0 {
			worst = c
		}
		if c := 2*i + 2; c < len(heap) && heap[worst].compare(heap[c]) < 0 {
			worst = c
		}
		if worst == i {
			return
		}
		heap[i], heap[worst] = heap[worst], heap[i]
		i = worst
	}
}
