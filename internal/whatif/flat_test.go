package whatif

import (
	"testing"

	"repro/internal/workload"
)

// TestFlatShardGrowth drives one flat shard through several rehash
// generations: values and skeleton marks must survive growth, a plain put
// must clear a skeleton mark, and live accounting must stay exact. This is
// the open-addressing edge-case coverage the map-based reference never
// needed.
func TestFlatShardGrowth(t *testing.T) {
	var sh flatShard
	const queries = 64
	const perQuery = 32 // 64*32 entries forces multiple rehashes from 64 slots
	val := func(q, i int) float64 { return float64(q*1000 + i) }
	key := func(q, i int) uint64 {
		k := pairKeyOf(q, workload.IndexID(i))
		if q%2 == 0 {
			k |= skeletonBit // even queries' entries are stored as skeletons
		}
		return k
	}
	for q := 0; q < queries; q++ {
		for i := 0; i < perQuery; i++ {
			sh.put(key(q, i), val(q, i))
		}
	}
	if got := sh.len(); got != queries*perQuery {
		t.Fatalf("live = %d, want %d", got, queries*perQuery)
	}
	for q := 0; q < queries; q++ {
		for i := 0; i < perQuery; i++ {
			v, ok, skel := sh.get(pairKeyOf(q, workload.IndexID(i)))
			if !ok || v != val(q, i) || skel != (q%2 == 0) {
				t.Fatalf("entry (%d, %d) = %v, %v, skeleton %v after growth", q, i, v, ok, skel)
			}
		}
	}
	// A skeleton put never marks a probed entry; a plain put clears a mark.
	sh.put(pairKeyOf(1, 0)|skeletonBit, val(1, 0))
	sh.put(pairKeyOf(0, 0), val(0, 0))
	for _, q := range []int{0, 1} {
		if _, ok, skel := sh.get(pairKeyOf(q, 0)); !ok || skel {
			t.Errorf("entry (%d, 0): present %v, skeleton %v; want a probed entry", q, ok, skel)
		}
	}
	if got := sh.len(); got != queries*perQuery {
		t.Errorf("re-puts changed live to %d", got)
	}
	if _, ok, _ := sh.get(pairKeyOf(queries, 0)); ok {
		t.Error("absent key reported present")
	}
}

// TestFlatSizeZeroIsCached: 0 is a legitimate cached index size; a second
// request must not re-ask the source.
func TestFlatSizeZeroIsCached(t *testing.T) {
	var ft flatTables
	ft.sizePut(3, 0)
	if v, ok := ft.sizeGet(3); !ok || v != 0 {
		t.Fatalf("sizeGet(3) = %d, %v; want 0, true", v, ok)
	}
	if _, ok := ft.sizeGet(2); ok {
		t.Error("unset smaller ID reported as cached")
	}
	if _, ok := ft.sizeGet(100); ok {
		t.Error("ID beyond table reported as cached")
	}
}
