package whatif

import (
	"testing"

	"repro/internal/workload"
)

// TestFlatShardGrowthAndTombstones drives one flat shard through several
// rehash generations with interleaved invalidations: values must survive
// growth, tombstoned slots must be reusable, and live accounting must stay
// exact. This is the open-addressing edge-case coverage the map-based
// reference never needed.
func TestFlatShardGrowthAndTombstones(t *testing.T) {
	var sh flatShard
	const queries = 64
	const perQuery = 32 // 64*32 entries forces multiple rehashes from 64 slots
	val := func(q, i int) float64 { return float64(q*1000 + i) }
	for q := 0; q < queries; q++ {
		for i := 0; i < perQuery; i++ {
			sh.put(q, pairKeyOf(q, workload.IndexID(i)), val(q, i))
		}
	}
	if got := sh.len(); got != queries*perQuery {
		t.Fatalf("live = %d, want %d", got, queries*perQuery)
	}
	for q := 0; q < queries; q++ {
		for i := 0; i < perQuery; i++ {
			if v, ok := sh.get(pairKeyOf(q, workload.IndexID(i))); !ok || v != val(q, i) {
				t.Fatalf("entry (%d, %d) = %v, %v after growth", q, i, v, ok)
			}
		}
	}
	// Invalidate every other query: O(entries-for-q) tombstoning.
	for q := 0; q < queries; q += 2 {
		if dropped := sh.invalidate(q); dropped != perQuery {
			t.Fatalf("invalidate(%d) dropped %d, want %d", q, dropped, perQuery)
		}
	}
	if got := sh.len(); got != queries*perQuery/2 {
		t.Fatalf("live after invalidation = %d, want %d", got, queries*perQuery/2)
	}
	for q := 0; q < queries; q++ {
		_, ok := sh.get(pairKeyOf(q, 0))
		if want := q%2 == 1; ok != want {
			t.Fatalf("query %d present=%v, want %v", q, ok, want)
		}
	}
	// Re-insert into tombstoned territory, then verify a subsequent rehash
	// (triggered by more inserts) drops the dead weight without losing data.
	for q := 0; q < queries; q += 2 {
		for i := 0; i < 2*perQuery; i++ {
			sh.put(q, pairKeyOf(q, workload.IndexID(i)), -val(q, i))
		}
	}
	for q := 0; q < queries; q++ {
		if q%2 == 0 {
			if v, ok := sh.get(pairKeyOf(q, 1)); !ok || v != -val(q, 1) {
				t.Fatalf("re-inserted (%d, 1) = %v, %v", q, v, ok)
			}
		} else if v, ok := sh.get(pairKeyOf(q, 1)); !ok || v != val(q, 1) {
			t.Fatalf("untouched (%d, 1) = %v, %v", q, v, ok)
		}
	}
	// A second invalidate of an already-invalidated query is a no-op on the
	// perQuery ledger (no stale keys double-counted).
	sh.invalidate(1)
	if dropped := sh.invalidate(1); dropped != 0 {
		t.Errorf("double invalidate dropped %d entries", dropped)
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
