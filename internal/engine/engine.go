// Package engine is an in-memory column-store execution engine: the
// stand-in for the commercial columnar main-memory DBMS of the paper's
// end-to-end evaluation (Section IV-B).
//
// It materializes real data for a workload (one int32 column per attribute,
// values uniform over the attribute's distinct count), builds composite
// secondary indexes as key-sorted row permutations, and executes conjunctive
// equality queries either by index probe (binary-searched prefix range plus
// positional residual filtering) or by full column scans. Execution reports
// the bytes actually touched and the wall-clock time; the deterministic
// bytes-touched figure is the default cost metric, matching the paper's
// memory-traffic cost notion while staying reproducible on shared hardware.
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/workload"
)

// DB holds the materialized columns of a workload's tables.
type DB struct {
	w      *workload.Workload
	tables []*tableData
}

type tableData struct {
	rows int
	// cols maps the table-local attribute position to its column values.
	cols map[int][]int32 // keyed by global attribute ID
}

// MaxRows bounds the total materialized rows to keep engine instances within
// laptop-scale memory; New fails beyond it.
const MaxRows = 20_000_000

// New materializes data for every table of w. Column values for attribute i
// are uniform over [0, min(d_i, MaxInt32)), generated deterministically from
// the seed: columns are int32, so a domain wider than int32 is clamped
// rather than wrapped into negative values.
func New(w *workload.Workload, seed int64) (*DB, error) {
	var total int64
	for _, t := range w.Tables {
		total += t.Rows
	}
	if total > MaxRows {
		return nil, fmt.Errorf("engine: workload has %d total rows, above the %d limit — scale the workload down", total, MaxRows)
	}
	db := &DB{w: w}
	r := rand.New(rand.NewSource(seed))
	for _, t := range w.Tables {
		td := &tableData{rows: int(t.Rows), cols: make(map[int][]int32, len(t.Attrs))}
		for _, a := range t.Attrs {
			attr := w.Attr(a)
			col := make([]int32, td.rows)
			d := min(attr.Distinct, math.MaxInt32)
			for i := range col {
				col[i] = int32(r.Int63n(d))
			}
			td.cols[a] = col
		}
		db.tables = append(db.tables, td)
	}
	return db, nil
}

// Workload returns the workload the data was built for.
func (db *DB) Workload() *workload.Workload { return db.w }

// Rows returns the row count of table t.
func (db *DB) Rows(t int) int { return db.tables[t].rows }

// SecondaryIndex is a composite index: the table's row IDs sorted by the key
// attributes (lexicographically), enabling binary-searched prefix ranges.
type SecondaryIndex struct {
	Key  workload.Index
	perm []int32
	db   *DB
}

// BuildIndex sorts a row permutation by the index's key attributes, ties
// broken by row ID. It panics if a key attribute is not a column of the
// index's table.
//
// The sort is a stable LSD counting sort: starting from the identity
// permutation it makes one or more counting passes per key column, last
// attribute first. A stable sort from the identity order breaks every tie
// by row ID, so the result is exactly the (key attributes..., row ID)
// order of a comparison sort, in O(rows + buckets) per pass. A build
// allocates the returned permutation and index header; the pass buffers
// are pooled.
func (db *DB) BuildIndex(k workload.Index) *SecondaryIndex {
	td := db.tables[k.Table]
	for _, a := range k.Attrs {
		if _, ok := td.cols[a]; !ok {
			panic(fmt.Sprintf("engine: index %s: attribute %d is not a column of table %d", k.Key(), a, k.Table))
		}
	}
	perm := make([]int32, td.rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	if td.rows > 1 {
		sc := getScratch(td.rows)
		src, dst := perm, sc.buf
		for i := len(k.Attrs) - 1; i >= 0; i-- {
			src, dst = sortByColumn(td.cols[k.Attrs[i]], src, dst, sc.counts[:])
		}
		if &src[0] != &perm[0] {
			copy(perm, src)
		}
		scratchPool.Put(sc)
	}
	return &SecondaryIndex{Key: k, perm: perm, db: db}
}

// maxDigitBits caps the width of one counting pass: 2^16 buckets.
const maxDigitBits = 16

// sortScratch is the pooled working memory of one index build: the
// ping-pong permutation buffer and the bucket counts.
type sortScratch struct {
	buf    []int32
	counts [1 << maxDigitBits]int32
}

var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// getScratch returns pooled scratch whose buffer holds rows entries.
func getScratch(rows int) *sortScratch {
	sc := scratchPool.Get().(*sortScratch)
	if cap(sc.buf) < rows {
		sc.buf = make([]int32, rows)
	}
	sc.buf = sc.buf[:rows]
	return sc
}

// signFlip maps int32 values to uint32 keys in the same order: flipping
// the sign bit puts negative values below non-negative ones.
const signFlip = 0x80000000

// sortByColumn stably sorts the row IDs of src by their value in col and
// returns the sorted permutation and the free buffer (src and dst, possibly
// swapped). Keys are offset by the column minimum, so the number of
// counting passes follows the column's value span, not the int32 range; a
// constant column costs none. The digit width grows with the row count up
// to maxDigitBits, which keeps the bucket array small next to the rows.
func sortByColumn(col, src, dst, counts []int32) ([]int32, []int32) {
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, v := range col {
		key := uint32(v) ^ signFlip
		lo = min(lo, key)
		hi = max(hi, key)
	}
	nbits := bits.Len32(hi - lo)
	if nbits == 0 {
		return src, dst
	}
	digit := min(maxDigitBits, max(8, bits.Len(uint(len(src)))))
	passes := (nbits + digit - 1) / digit
	digit = (nbits + passes - 1) / passes
	for shift := 0; shift < nbits; shift += digit {
		mask := uint32(1)<<digit - 1
		countingPass(col, src, dst, counts[:min(mask, (hi-lo)>>shift)+1], lo, uint(shift), mask)
		src, dst = dst, src
	}
	return src, dst
}

// countingPass writes src to dst stably ordered by the digit
// ((key - lo) >> shift) & mask of each row's column key; counts holds a
// bucket for every digit value the column can produce.
func countingPass(col, src, dst, counts []int32, lo uint32, shift uint, mask uint32) {
	clear(counts)
	for _, r := range src {
		counts[((uint32(col[r])^signFlip)-lo)>>shift&mask]++
	}
	var sum int32
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	for _, r := range src {
		d := ((uint32(col[r]) ^ signFlip) - lo) >> shift & mask
		dst[counts[d]] = r
		counts[d]++
	}
}

// SizeBytes reports the index's memory footprint: the permutation (4 bytes
// per row) plus a copy of each key column.
func (ix *SecondaryIndex) SizeBytes() int64 {
	rows := int64(len(ix.perm))
	size := 4 * rows
	for _, a := range ix.Key.Attrs {
		size += int64(ix.db.w.Attr(a).ValueSize) * rows
	}
	return size
}

// prefixRange binary-searches the permutation for the rows whose first
// len(vals) key attributes equal vals, returning the half-open range and the
// number of comparison steps (for cost accounting).
func (ix *SecondaryIndex) prefixRange(vals []int32) (lo, hi, steps int) {
	cols := make([][]int32, len(vals))
	for i := range vals {
		cols[i] = ix.db.tables[ix.Key.Table].cols[ix.Key.Attrs[i]]
	}
	cmp := func(row int32) int {
		for i, col := range cols {
			if col[row] != vals[i] {
				if col[row] < vals[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lo = sort.Search(len(ix.perm), func(i int) bool {
		steps++
		return cmp(ix.perm[i]) >= 0
	})
	hi = sort.Search(len(ix.perm), func(i int) bool {
		steps++
		return cmp(ix.perm[i]) > 0
	})
	return lo, hi, steps
}

// Predicate is one conjunctive equality condition.
type Predicate struct {
	Attr  int
	Value int32
}

// PointQuery is an executable instantiation of a workload query template:
// one equality predicate per accessed attribute.
type PointQuery struct {
	Table int
	Preds []Predicate
}

// Instantiate derives an executable point query from a template by taking
// the attribute values of a deterministic existing row — guaranteeing a
// non-empty, realistically correlated result.
func (db *DB) Instantiate(q workload.Query, seed int64) PointQuery {
	td := db.tables[q.Table]
	r := rand.New(rand.NewSource(seed ^ int64(q.ID)*2654435761))
	row := r.Intn(td.rows)
	pq := PointQuery{Table: q.Table}
	for _, a := range q.Attrs {
		pq.Preds = append(pq.Preds, Predicate{Attr: a, Value: td.cols[a][row]})
	}
	return pq
}

// Measurement reports an execution's result size and cost.
type Measurement struct {
	// Rows is the number of qualifying rows.
	Rows int
	// BytesTouched is the deterministic work metric: bytes of column data,
	// permutation entries and position-list traffic read or written.
	BytesTouched int64
}

// Executor runs point queries against the database under a set of available
// secondary indexes.
type Executor struct {
	db      *DB
	indexes map[string]*SecondaryIndex
}

// NewExecutor returns an executor with the given available indexes.
func NewExecutor(db *DB, indexes ...*SecondaryIndex) *Executor {
	e := &Executor{db: db, indexes: make(map[string]*SecondaryIndex, len(indexes))}
	for _, ix := range indexes {
		e.indexes[ix.Key.Key()] = ix
	}
	return e
}

// Run executes the point query: it picks the applicable index with the
// smallest estimated result (longest usable prefix by combined selectivity,
// as in Appendix B step 1), probes it, then filters the remaining predicates
// positionally; with no applicable index it scans columns in ascending
// selectivity order.
func (e *Executor) Run(pq PointQuery) Measurement {
	var bytes int64
	w := e.db.w
	td := e.db.tables[pq.Table]

	predOf := make(map[int]int32, len(pq.Preds))
	for _, p := range pq.Preds {
		predOf[p.Attr] = p.Value
	}

	// Choose the best applicable index: longest coverable prefix, smallest
	// estimated selectivity product.
	var (
		best       *SecondaryIndex
		bestPrefix []int
		bestSel    = 2.0
	)
	for _, ix := range e.indexes {
		if ix.Key.Table != pq.Table {
			continue
		}
		var prefix []int
		for _, a := range ix.Key.Attrs {
			if _, ok := predOf[a]; !ok {
				break
			}
			prefix = append(prefix, a)
		}
		if len(prefix) == 0 {
			continue
		}
		sel := 1.0
		for _, a := range prefix {
			sel *= w.Attr(a).Selectivity()
		}
		if sel < bestSel || (sel == bestSel && best != nil && ix.Key.Key() < best.Key.Key()) {
			best, bestPrefix, bestSel = ix, prefix, sel
		}
	}

	var positions []int32
	remaining := make([]int, 0, len(pq.Preds))
	if best != nil {
		vals := make([]int32, len(bestPrefix))
		for i, a := range bestPrefix {
			vals[i] = predOf[a]
		}
		lo, hi, steps := best.prefixRange(vals)
		// Each binary-search step reads one permutation entry plus the
		// compared key bytes.
		var keyBytes int64
		for _, a := range bestPrefix {
			keyBytes += int64(w.Attr(a).ValueSize)
		}
		bytes += int64(steps) * (4 + keyBytes)
		positions = append(positions, best.perm[lo:hi]...)
		bytes += int64(hi-lo) * 4 // reading the qualifying position range
		covered := make(map[int]bool, len(bestPrefix))
		for _, a := range bestPrefix {
			covered[a] = true
		}
		for _, p := range pq.Preds {
			if !covered[p.Attr] {
				remaining = append(remaining, p.Attr)
			}
		}
		// Positional residual filtering.
		for _, a := range remaining {
			col := td.cols[a]
			v := predOf[a]
			out := positions[:0]
			for _, pos := range positions {
				if col[pos] == v {
					out = append(out, pos)
				}
			}
			bytes += int64(len(positions)) * int64(w.Attr(a).ValueSize)
			bytes += int64(len(out)) * 4
			positions = out
		}
	} else {
		// Full scan: filter columns in ascending selectivity order.
		attrs := make([]int, 0, len(pq.Preds))
		for _, p := range pq.Preds {
			attrs = append(attrs, p.Attr)
		}
		sort.Slice(attrs, func(i, j int) bool {
			si, sj := w.Attr(attrs[i]).Selectivity(), w.Attr(attrs[j]).Selectivity()
			if si != sj {
				return si < sj
			}
			return attrs[i] < attrs[j]
		})
		first := true
		for _, a := range attrs {
			col := td.cols[a]
			v := predOf[a]
			if first {
				for row := 0; row < td.rows; row++ {
					if col[row] == v {
						positions = append(positions, int32(row))
					}
				}
				bytes += int64(td.rows) * int64(w.Attr(a).ValueSize)
				bytes += int64(len(positions)) * 4
				first = false
				continue
			}
			out := positions[:0]
			for _, pos := range positions {
				if col[pos] == v {
					out = append(out, pos)
				}
			}
			bytes += int64(len(positions)) * int64(w.Attr(a).ValueSize)
			bytes += int64(len(out)) * 4
			positions = out
		}
	}
	return Measurement{Rows: len(positions), BytesTouched: bytes}
}
