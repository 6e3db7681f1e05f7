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

// Packed combination keys. Within one table, a width-m combination whose
// attributes have ranks r_0 < ... < r_{m-1} among the table's accessed
// attribute IDs (ascending) packs into one uint64 as
//
//	m<<60 | r_0<<45 | r_1<<30 | r_2<<15 | r_3
//
// with unused rank fields zero. Ranks preserve attribute-ID order, so the
// integer order of keys is comboCompare order within a table: width first,
// then attribute IDs lexicographically.
const (
	rankBits   = 15
	rankMask   = 1<<rankBits - 1
	widthShift = rankBits * MaxWidth

	// MaxTableAttrs is the most distinct attributes the queries of one
	// table may access together: the width of a rank field in the packed
	// combination key. Combos rejects a workload above it.
	MaxTableAttrs = 1 << rankBits
)

// rankShift is the bit offset of the rank field for position i.
func rankShift(i int) uint { return uint(rankBits * (MaxWidth - 1 - i)) }

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

// Combos enumerates every attribute combination of size 1..maxWidth that
// appears (as a subset) in at least one query, with its co-occurrence weight.
// The result is ordered deterministically (by table, width, then attribute
// IDs). maxWidth must be in [1, MaxWidth], and no table's queries may access
// more than MaxTableAttrs distinct attributes.
//
// Queries are bucketed by table and identical attribute sets merged first,
// so each distinct (table, attribute set) is enumerated once. Each table's
// subsets are then appended as packed-key records to one buffer, sorted as
// integers, and equal keys merged; keys already come out in the final order,
// so no global sort is needed. All Attrs slices are carved from one slab.
func Combos(w *workload.Workload, maxWidth int) ([]Combo, error) {
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

	// Enumerate, sort and merge each table's records in one buffer; after
	// table t, recs[recOff[t]:recOff[t+1]] holds its distinct combinations
	// in key order.
	e := enumerator{
		recs:     make([]comboRec, 0, raw),
		maxWidth: maxWidth,
	}
	rank := make([]uint64, w.NumAttrs())
	recOff := make([]int, nt+1)
	for t := 0; t < nt; t++ {
		for r, id := range ids[idOff[t]:idOff[t+1]] {
			rank[id] = uint64(r)
		}
		start := len(e.recs)
		for _, s := range sets[setOff[t]:setOff[t+1]] {
			e.ranks = e.ranks[:0]
			for _, a := range s.attrs {
				e.ranks = append(e.ranks, rank[a])
			}
			e.emit(0, 0, 0, s.freq)
		}
		seg := e.recs[start:]
		slices.SortFunc(seg, func(a, b comboRec) int { return cmp.Compare(a.key, b.key) })
		n := 0
		for i, r := range seg {
			if i > 0 && r.key == seg[n-1].key {
				seg[n-1].weight += r.weight
				continue
			}
			seg[n] = r
			n++
		}
		e.recs = e.recs[:start+n]
		recOff[t+1] = len(e.recs)
	}

	// Materialize the combinations, every Attrs slice carved from one slab.
	width := 0
	for _, r := range e.recs {
		width += int(r.key >> widthShift)
	}
	slab := make([]int, width)
	sel := make([]float64, len(ids))
	for i, id := range ids {
		sel[i] = w.Attr(id).Selectivity()
	}
	combos := make([]Combo, len(e.recs))
	for t := 0; t < nt; t++ {
		tids, tsel := ids[idOff[t]:idOff[t+1]], sel[idOff[t]:idOff[t+1]]
		for i := recOff[t]; i < recOff[t+1]; i++ {
			r := e.recs[i]
			m := int(r.key >> widthShift)
			attrs := slab[:m:m]
			slab = slab[m:]
			s := 1.0
			for j := range attrs {
				rk := r.key >> rankShift(j) & rankMask
				attrs[j] = tids[rk]
				s *= tsel[rk]
			}
			combos[i] = Combo{Attrs: attrs, Table: t, Weight: r.weight, Selectivity: s}
		}
	}
	return combos, nil
}

// enumerator appends the packed-key records of every subset of one
// attribute set, given as ascending ranks.
type enumerator struct {
	recs     []comboRec
	ranks    []uint64
	maxWidth int
}

// emit appends the subsets extending prefix (depth ranks already placed,
// the next drawn from ranks[start:]).
func (e *enumerator) emit(start, depth int, prefix uint64, freq int64) {
	width := uint64(depth+1) << widthShift
	for i := start; i < len(e.ranks); i++ {
		k := prefix | e.ranks[i]<<rankShift(depth)
		e.recs = append(e.recs, comboRec{key: k | width, weight: freq})
		if depth+1 < e.maxWidth {
			e.emit(i+1, depth+1, k, freq)
		}
	}
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

// comboCompare is the canonical combination order: table, width, then
// attribute IDs lexicographically.
func comboCompare(a, b *Combo) int {
	if c := cmp.Compare(a.Table, b.Table); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.Attrs), len(b.Attrs)); c != 0 {
		return c
	}
	return slices.Compare(a.Attrs, b.Attrs)
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

// Representatives returns one representative index per combination.
func Representatives(w *workload.Workload, combos []Combo) []workload.Index {
	g := w.Occurrences()
	out := make([]workload.Index, len(combos))
	for i, c := range combos {
		out[i] = Representative(c, g, w)
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
// exhausted. Ties in the heuristic's key fall back to the canonical
// combination order, so the result does not depend on the order of combos.
func Select(w *workload.Workload, combos []Combo, h Heuristic, total, maxWidth int) ([]workload.Index, error) {
	if total < maxWidth {
		return nil, fmt.Errorf("candidates: total %d below one candidate per width class (maxWidth %d)", total, maxWidth)
	}
	perWidth := total / maxWidth

	r := ranking{combos: combos}
	recs := make([]ranked, 0, len(combos))
	var chosen []Combo
	for m := 1; m <= maxWidth; m++ {
		recs = recs[:0]
		for i := range combos {
			if c := &combos[i]; len(c.Attrs) == m {
				recs = append(recs, ranked{key: scoreKey(h, c), pos: i})
			}
		}
		for _, rec := range r.top(recs, perWidth) {
			chosen = append(chosen, combos[rec.pos])
		}
	}
	return Representatives(w, chosen), nil
}

// ranked is a combination's compact ranking record: its heuristic key
// mapped to an unsigned integer (smaller ranks first) and its position.
type ranked struct {
	key uint64
	pos int
}

// scoreKey maps the heuristic's ranking of c to an unsigned key that orders
// (and ties) exactly like the heuristic: H1-M by descending weight, H2-M by
// ascending selectivity, H3-M by ascending selectivity/weight, computed once
// with the same IEEE operations. Unknown heuristics rank every combination
// equal.
func scoreKey(h Heuristic, c *Combo) uint64 {
	switch h {
	case H1M:
		return ^(uint64(c.Weight) ^ 1<<63)
	case H2M:
		return floatKey(c.Selectivity)
	case H3M:
		return floatKey(c.Selectivity / float64(c.Weight))
	default:
		return 0
	}
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

// ranking orders the records of one combination slice.
type ranking struct {
	combos []Combo
}

// compare orders records by key, then by the canonical combination order.
func (r *ranking) compare(a, b ranked) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	return comboCompare(&r.combos[a.pos], &r.combos[b.pos])
}

// top returns the best k of recs in ranking order, reordering recs: when
// there are more than k, a bounded max-heap keeps the k best seen so far
// (its root the worst of them), so only records beating the root cost more
// than one comparison.
func (r *ranking) top(recs []ranked, k int) []ranked {
	if k < len(recs) {
		heap := recs[:k]
		for i := k/2 - 1; i >= 0; i-- {
			r.siftDown(heap, i)
		}
		for _, rec := range recs[k:] {
			if r.compare(rec, heap[0]) < 0 {
				heap[0] = rec
				r.siftDown(heap, 0)
			}
		}
		recs = heap
	}
	slices.SortFunc(recs, r.compare)
	return recs
}

// siftDown restores the max-heap property of heap below i.
func (r *ranking) siftDown(heap []ranked, i int) {
	for {
		worst := i
		if c := 2*i + 1; c < len(heap) && r.compare(heap[worst], heap[c]) < 0 {
			worst = c
		}
		if c := 2*i + 2; c < len(heap) && r.compare(heap[worst], heap[c]) < 0 {
			worst = c
		}
		if worst == i {
			return
		}
		heap[i], heap[worst] = heap[worst], heap[i]
		i = worst
	}
}
