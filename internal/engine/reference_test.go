package engine

import (
	"sort"

	"repro/internal/workload"
)

// buildIndexSorted is the comparison-sort oracle for BuildIndex: the row
// permutation ordered by (key attributes..., row ID) through sort.Slice.
// The production build must reproduce it element for element.
func buildIndexSorted(db *DB, k workload.Index) []int32 {
	td := db.tables[k.Table]
	perm := make([]int32, td.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	cols := make([][]int32, len(k.Attrs))
	for i, a := range k.Attrs {
		cols[i] = td.cols[a]
	}
	sort.Slice(perm, func(x, y int) bool {
		rx, ry := perm[x], perm[y]
		for _, col := range cols {
			if col[rx] != col[ry] {
				return col[rx] < col[ry]
			}
		}
		return rx < ry
	})
	return perm
}
