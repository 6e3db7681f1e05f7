package candidates

import (
	"sort"

	"repro/internal/workload"
)

// This file holds the differential oracle for Enumerate, Combos and
// Set.Select: the original map-keyed enumeration into []Combo, one global
// comparison sort, and a full comparison sort of every width class. It is deliberately simple and slow;
// the production code must reproduce its output exactly (values, float bits
// and order). It lives in test code so no shipped binary links it.

type refKey [MaxWidth]int32

func refKeyOf(attrs []int) refKey {
	var k refKey
	for i := range k {
		k[i] = -1
	}
	for i, a := range attrs {
		k[i] = int32(a)
	}
	return k
}

// combosReference enumerates every query's attribute subsets of size
// 1..maxWidth into a map, then sorts the combinations with refComboLess.
func combosReference(w *workload.Workload, maxWidth int) []Combo {
	weights := make(map[refKey]int64)
	var buf [MaxWidth]int
	for _, q := range w.Queries {
		attrs := q.Attrs
		var rec func(start, depth int)
		rec = func(start, depth int) {
			for i := start; i < len(attrs); i++ {
				buf[depth] = attrs[i]
				weights[refKeyOf(buf[:depth+1])] += q.Freq
				if depth+1 < maxWidth {
					rec(i+1, depth+1)
				}
			}
		}
		rec(0, 0)
	}

	combos := make([]Combo, 0, len(weights))
	for key, weight := range weights {
		var attrs []int
		for _, a := range key {
			if a >= 0 {
				attrs = append(attrs, int(a))
			}
		}
		s := 1.0
		for _, a := range attrs {
			s *= w.Attr(a).Selectivity()
		}
		combos = append(combos, Combo{
			Attrs:       attrs,
			Table:       w.TableOf(attrs[0]),
			Weight:      weight,
			Selectivity: s,
		})
	}
	sort.Slice(combos, func(i, j int) bool { return refComboLess(combos[i], combos[j]) })
	return combos
}

func refComboLess(a, b Combo) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if len(a.Attrs) != len(b.Attrs) {
		return len(a.Attrs) < len(b.Attrs)
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return a.Attrs[i] < b.Attrs[i]
		}
	}
	return false
}

// rankReference sorts each width class of combos by the heuristic's key,
// computing H3-M's ratio on every comparison, and breaks ties with
// refComboLess.
func rankReference(combos []Combo, h Heuristic, maxWidth int) [][]Combo {
	byWidth := make([][]Combo, maxWidth+1)
	for _, c := range combos {
		if m := len(c.Attrs); m <= maxWidth {
			byWidth[m] = append(byWidth[m], c)
		}
	}
	for _, class := range byWidth {
		sort.Slice(class, func(i, j int) bool {
			a, b := class[i], class[j]
			var less, eq bool
			switch h {
			case H1M:
				less, eq = a.Weight > b.Weight, a.Weight == b.Weight
			case H2M:
				less, eq = a.Selectivity < b.Selectivity, a.Selectivity == b.Selectivity
			case H3M:
				ra := a.Selectivity / float64(a.Weight)
				rb := b.Selectivity / float64(b.Weight)
				less, eq = ra < rb, ra == rb
			default:
				eq = true
			}
			if !eq {
				return less
			}
			return refComboLess(a, b)
		})
	}
	return byWidth
}

// selectReference emits the representatives of the first total/maxWidth
// combinations of each ranked width class.
func selectReference(w *workload.Workload, classes [][]Combo, total, maxWidth int) []workload.Index {
	perWidth := total / maxWidth
	g := w.Occurrences()
	var out []workload.Index
	for m := 1; m <= maxWidth; m++ {
		class := classes[m]
		n := perWidth
		if n > len(class) {
			n = len(class)
		}
		for _, c := range class[:n] {
			out = append(out, representativeReference(c, g, w))
		}
	}
	return out
}

// representativeReference orders a combination's attributes with a
// comparison sort under the representative ordering.
func representativeReference(c Combo, g []int64, w *workload.Workload) workload.Index {
	attrs := append([]int(nil), c.Attrs...)
	sort.Slice(attrs, func(i, j int) bool {
		ai, aj := attrs[i], attrs[j]
		if g[ai] != g[aj] {
			return g[ai] > g[aj]
		}
		si, sj := w.Attr(ai).Selectivity(), w.Attr(aj).Selectivity()
		if si != sj {
			return si < sj
		}
		return ai < aj
	})
	return workload.Index{Table: c.Table, Attrs: attrs}
}
