// Package costmodel implements the reproducible exemplary cost model of
// Appendix B of Schlosser et al. (ICDE 2019). Costs are expressed as memory
// traffic in bytes, mirroring a vector-at-a-time columnar execution model.
//
// For a query q over table with n rows and an index k with coverable prefix
// U(q,k), an index probe costs
//
//	log2(n) + sum_{i in U(q,k)} a_i*log2(d_i) + 4*n*prod_{m in U(q,k)} s_m
//
// (lookup descent, key comparisons, and writing a 4-byte position-list entry
// per qualifying row). Two clarifications relative to the printed formula:
// the position-list term is scaled by n (a position list holds n*prod(s)
// 4-byte entries — without the factor index costs would be near-constant and
// the performance/memory frontier of Figures 2-5 would not emerge), and the
// key-comparison sum runs over the used prefix U(q,k) rather than all of k.
// The prefix-only sum realizes the paper's Section III-A observation that a
// query's cost "does not change" under an index extension it cannot use —
// which is what lets Algorithm 1 reuse earlier what-if calls and stay at
// roughly 2*Q*q-bar calls.
//
// Scanning an attribute i over r candidate rows costs r*a_i (reads) plus
// 4*r*s_i (position-list writes), after which r shrinks to r*s_i.
//
// The memory footprint of index k on a table with n rows is
//
//	p_k = ceil(ceil(log2(n))*n/8) + sum_{i in k} a_i*n
//
// (packed row-pointer bits plus a copy of each key column).
package costmodel

import (
	"math"

	"repro/internal/workload"
)

// Mode selects how many indexes a single query may combine.
type Mode int

const (
	// SingleIndex is the paper's Example 1 (i) setting: a query uses at most
	// one index, f_j(I*) = min(f_j(0), min_{k in I*} f_j(k)). This is the
	// setting all CoPhy comparisons use.
	SingleIndex Mode = iota
	// MultiIndex follows Appendix B steps 3-4 (and Remark 2): after the best
	// index is applied, further applicable indexes may serve the remaining
	// attributes when cheaper than scanning them.
	MultiIndex
)

// Model evaluates Appendix B costs for one workload.
type Model struct {
	w    *workload.Workload
	mode Mode
}

// New returns a cost model over w in the given mode.
func New(w *workload.Workload, mode Mode) *Model {
	return &Model{w: w, mode: mode}
}

// Workload returns the workload the model evaluates.
func (m *Model) Workload() *workload.Workload { return m.w }

// Mode returns the model's index-combination mode.
func (m *Model) Mode() Mode { return m.mode }

// IndexSize returns p_k in bytes.
func (m *Model) IndexSize(k workload.Index) int64 {
	n := m.w.Tables[k.Table].Rows
	bitsPerRow := int64(math.Ceil(math.Log2(float64(n))))
	if bitsPerRow < 1 {
		bitsPerRow = 1
	}
	size := (bitsPerRow*n + 7) / 8
	for _, a := range k.Attrs {
		size += int64(m.w.Attr(a).ValueSize) * n
	}
	return size
}

// probeCost returns the Appendix B index-probe cost on a table with n rows,
// given the coverable prefix U(q,k) (attribute IDs) the query can use, and
// the number of result rows the probe yields. The cost depends only on the
// used prefix; unused trailing key attributes are free (see package doc).
func (m *Model) probeCost(n int64, prefix []int) (cost, resultRows float64) {
	cost = math.Log2(float64(n))
	sel := 1.0
	for _, a := range prefix {
		attr := m.w.Attr(a)
		cost += float64(attr.ValueSize) * math.Log2(float64(attr.Distinct))
		sel *= attr.Selectivity()
	}
	resultRows = float64(n) * sel
	cost += 4 * resultRows
	return cost, resultRows
}

// scanCost returns the cost of sequentially filtering the given attributes
// (in ascending selectivity order) over r candidate rows, and the remaining
// candidate rows afterwards.
func (m *Model) scanCost(attrs []int, r float64) (cost, remaining float64) {
	// Insertion sort into a stack buffer: queries touch a handful of
	// attributes, and this sits on the what-if hot path where the previous
	// copy + sort.Slice (two allocations, interface calls) dominated the
	// profile. The comparator totally orders by (selectivity, id), so the
	// result matches the previous sort exactly.
	var buf [12]int
	ordered := buf[:0]
	if len(attrs) > len(buf) {
		ordered = make([]int, 0, len(attrs))
	}
	for _, a := range attrs {
		sa := m.w.Attr(a).Selectivity()
		i := len(ordered)
		ordered = append(ordered, a)
		for i > 0 {
			p := ordered[i-1]
			sp := m.w.Attr(p).Selectivity()
			if sp < sa || (sp == sa && p < a) {
				break
			}
			ordered[i] = p
			i--
		}
		ordered[i] = a
	}
	for _, a := range ordered {
		attr := m.w.Attr(a)
		cost += r * float64(attr.ValueSize)
		cost += 4 * r * attr.Selectivity()
		r *= attr.Selectivity()
	}
	return cost, r
}

// BaseCost returns f_j(0): the cost of evaluating q with no index. Selects
// and the locate phase of updates scan all accessed attributes ordered by
// selectivity; inserts write one row (their attribute values), independent
// of any index.
func (m *Model) BaseCost(q workload.Query) float64 {
	n := float64(m.w.Tables[q.Table].Rows)
	switch q.Kind {
	case workload.Insert:
		var row float64
		for _, a := range q.Attrs {
			row += float64(m.w.Attr(a).ValueSize)
		}
		return row
	default:
		cost, _ := m.scanCost(q.Attrs, n)
		return cost
	}
}

// MaintenanceCost returns the per-execution cost of keeping index k
// consistent under write query q (zero when q does not maintain k): locating
// the key position (log2 n descent with per-attribute comparisons), writing
// the key bytes and a 4-byte position entry; updates pay twice (delete +
// re-insert). The units match the query-cost model (bytes of traffic).
func (m *Model) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	if !q.Maintains(k) {
		return 0
	}
	n := m.w.Tables[k.Table].Rows
	cost := math.Log2(float64(n))
	var keyBytes float64
	for _, a := range k.Attrs {
		attr := m.w.Attr(a)
		cost += float64(attr.ValueSize) * math.Log2(float64(attr.Distinct))
		keyBytes += float64(attr.ValueSize)
	}
	cost += keyBytes + 4
	if q.Kind == workload.Update {
		cost *= 2
	}
	return cost
}

// CostWithIndex returns f_j(k): the cost of evaluating q's read path using
// only index k (plus scans for uncovered attributes). If k is not applicable
// to q, the index is unused and the cost equals f_j(0). Maintenance costs of
// write queries are NOT included here — they are additive over the whole
// selection and served by MaintenanceCost.
func (m *Model) CostWithIndex(q workload.Query, k workload.Index) float64 {
	if !workload.Applicable(q, k) {
		return m.BaseCost(q)
	}
	n := m.w.Tables[q.Table].Rows
	prefix := workload.CoverablePrefix(q, k)
	cost, rows := m.probeCost(n, prefix)
	rest := remainingAttrs(q.Attrs, prefix)
	scan, _ := m.scanCost(rest, rows)
	return cost + scan
}

// QueryCost returns f_j(I*) for the model's mode: the read-path cost (best
// index or scan) plus, for write queries, the maintenance cost of every
// selected index the write touches, summed in canonical key order so the
// float sum does not follow the map's random iteration order.
func (m *Model) QueryCost(q workload.Query, sel workload.Selection) float64 {
	var maint float64
	if q.IsWrite() {
		for _, k := range sel.Sorted() {
			maint += m.MaintenanceCost(q, k)
		}
		if q.Kind == workload.Insert {
			return m.BaseCost(q) + maint
		}
	}
	switch m.mode {
	case SingleIndex:
		return m.singleIndexCost(q, sel) + maint
	default:
		return m.multiIndexCost(q, sel) + maint
	}
}

func (m *Model) singleIndexCost(q workload.Query, sel workload.Selection) float64 {
	best := m.BaseCost(q)
	for _, k := range sel {
		if !workload.Applicable(q, k) {
			continue
		}
		if c := m.CostWithIndex(q, k); c < best {
			best = c
		}
	}
	return best
}

// multiIndexCost follows Appendix B steps 1-5: repeatedly pick the applicable
// index with the smallest result set over the remaining attributes, use it as
// long as the probe beats scanning its covered attributes directly, then scan
// whatever remains.
func (m *Model) multiIndexCost(q workload.Query, sel workload.Selection) float64 {
	n := m.w.Tables[q.Table].Rows
	remaining := append([]int(nil), q.Attrs...)
	rows := float64(n)
	var cost float64
	used := make(map[string]bool)

	for len(remaining) > 0 {
		var (
			bestK      workload.Index
			bestPrefix []int
			bestRows   = math.Inf(1)
			found      bool
		)
		rq := workload.Query{Table: q.Table, Attrs: remaining}
		for key, k := range sel {
			if used[key] || !workload.Applicable(rq, k) {
				continue
			}
			prefix := coverableWithin(remaining, k)
			if len(prefix) == 0 {
				continue
			}
			s := 1.0
			for _, a := range prefix {
				s *= m.w.Attr(a).Selectivity()
			}
			res := float64(n) * s
			if res < bestRows || (res == bestRows && found && k.Key() < bestK.Key()) {
				bestK, bestPrefix, bestRows, found = k, prefix, res, true
			}
		}
		if !found {
			break
		}
		probe, probeRows := m.probeCost(n, bestPrefix)
		directScan, _ := m.scanCost(bestPrefix, rows)
		if probe >= directScan {
			break
		}
		cost += probe
		// Position-list intersection with the rows qualified so far: the
		// probe's list is filtered against the current candidates.
		sel := probeRows / float64(n)
		rows *= sel
		remaining = remainingAttrs(remaining, bestPrefix)
		used[bestK.Key()] = true
	}
	scan, _ := m.scanCost(remaining, rows)
	return cost + scan
}

// coverableWithin returns the longest prefix of k fully contained in attrs.
func coverableWithin(attrs []int, k workload.Index) []int {
	contains := func(id int) bool {
		for _, a := range attrs {
			if a == id {
				return true
			}
		}
		return false
	}
	var n int
	for _, a := range k.Attrs {
		if !contains(a) {
			break
		}
		n++
	}
	return k.Attrs[:n]
}

// remainingAttrs returns attrs minus the covered ones, preserving order.
// Both lists are tiny (query attribute counts), so nested loops beat
// building a set — and allocate only when something is actually removed.
func remainingAttrs(attrs, covered []int) []int {
	var out []int
	for i, a := range attrs {
		hit := false
		for _, c := range covered {
			if a == c {
				hit = true
				break
			}
		}
		if hit {
			if out == nil {
				out = make([]int, i, len(attrs))
				copy(out, attrs[:i])
			}
			continue
		}
		if out != nil {
			out = append(out, a)
		}
	}
	if out == nil {
		return attrs
	}
	return out
}

// TotalCost returns F(I*) = sum_j b_j * f_j(I*).
func (m *Model) TotalCost(sel workload.Selection) float64 {
	var total float64
	for _, q := range m.w.Queries {
		total += float64(q.Freq) * m.QueryCost(q, sel)
	}
	return total
}

// SingleAttrBudget returns the paper's budget base of eq. (10): the total
// memory required by all single-attribute indexes, so that A(w) = w * base.
func (m *Model) SingleAttrBudget() int64 {
	var total int64
	for _, a := range m.w.Attrs() {
		k := workload.Index{Table: a.Table, Attrs: []int{a.ID}}
		total += m.IndexSize(k)
	}
	return total
}

// Budget returns A(w) = share * SingleAttrBudget (eq. (10)).
func (m *Model) Budget(share float64) int64 {
	return int64(share * float64(m.SingleAttrBudget()))
}
