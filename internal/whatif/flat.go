package whatif

import (
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// Flat cache backend: every cached quantity lives in a numeric table keyed by
// dense IDs instead of a Go map keyed by (int, string) pairs. A cached probe
// is then a read lock, one multiplicative hash of a uint64, and a short
// linear scan over a contiguous array — no string construction, no string
// hashing, no interface boxing — which is what makes the what-if facade cheap
// enough to sit inside the candidate-evaluation inner loop.

// A pair key packs (query ID, interned index ID) into one uint64. Query IDs
// are dense int31 values, so bit 63 of a real key is always zero: emptyKey
// can never collide with one, and a stored key may carry skeletonBit.
func pairKeyOf(qid int, id workload.IndexID) uint64 {
	return uint64(uint32(qid))<<32 | uint64(id)
}

const (
	emptyKey = ^uint64(0) // slot never used
	// skeletonBit marks a stored key whose entry was filled as another
	// index's plan skeleton (Optimizer.fill) and has not been probed under
	// its own key yet. The value is exact; the mark only keeps the first
	// probe of the key itself counted as a what-if call.
	skeletonBit = uint64(1) << 63
)

// flatHash finalizes a pair key (murmur3 fmix64) so linear probing sees
// well-mixed low bits even though query/index IDs are dense.
func flatHash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key
}

// flatShard is one shard of an open-addressed (pair key -> cost) table with
// linear probing. Entries are never deleted one by one; EvictTables clears
// whole shards.
type flatShard struct {
	mu   sync.RWMutex
	keys []uint64 // power-of-two length, emptyKey-filled
	vals []float64
	live int // stored entries
}

// lookup returns the slot of key (stored with or without skeletonBit), or
// false if absent. Caller holds mu.
func (s *flatShard) lookup(key uint64) (int, bool) {
	if len(s.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(s.keys) - 1)
	for slot := flatHash(key) & mask; ; slot = (slot + 1) & mask {
		switch k := s.keys[slot]; k {
		case emptyKey:
			return -1, false
		case key, key | skeletonBit:
			return int(slot), true
		}
	}
}

// get returns key's value. skeleton reports an entry stored only as a plan
// skeleton, which no probe of key itself has stored since.
func (s *flatShard) get(key uint64) (v float64, ok, skeleton bool) {
	s.mu.RLock()
	slot, ok := s.lookup(key)
	if ok {
		v, skeleton = s.vals[slot], s.keys[slot]&skeletonBit != 0
	}
	s.mu.RUnlock()
	return v, ok, skeleton
}

// put stores key -> v, tolerating a concurrent miss having inserted it
// first. A key with skeletonBit set stores a plan skeleton; a plain key
// clears the mark of an existing skeleton entry.
func (s *flatShard) put(key uint64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	plain := key &^ skeletonBit
	if slot, ok := s.lookup(plain); ok {
		if key == plain {
			s.keys[slot] = key // the key's own probe clears a skeleton mark
		}
		s.vals[slot] = v // deterministic sources: identical value
		return
	}
	const initialSlots = 64
	if len(s.keys) == 0 {
		s.rehash(initialSlots)
	} else if (s.live+1)*4 > len(s.keys)*3 {
		s.rehash(2 * len(s.keys))
	}
	mask := uint64(len(s.keys) - 1)
	for slot := flatHash(plain) & mask; ; slot = (slot + 1) & mask {
		if s.keys[slot] == emptyKey {
			s.keys[slot] = key
			s.vals[slot] = v
			s.live++
			return
		}
	}
}

// rehash rebuilds the table at n slots (power of two). Caller holds the
// write lock.
func (s *flatShard) rehash(n int) {
	for n < 2*s.live {
		n *= 2
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = emptyKey
	}
	vals := make([]float64, n)
	mask := uint64(n - 1)
	for i, k := range s.keys {
		if k == emptyKey {
			continue
		}
		for slot := flatHash(k&^skeletonBit) & mask; ; slot = (slot + 1) & mask {
			if keys[slot] == emptyKey {
				keys[slot] = k
				vals[slot] = s.vals[i]
				break
			}
		}
	}
	s.keys, s.vals = keys, vals
}

func (s *flatShard) len() int {
	s.mu.RLock()
	n := s.live
	s.mu.RUnlock()
	return n
}

// flatTables bundles the flat backend's caches: base costs as a slice indexed
// by query ID, index sizes as a slice indexed by interned index ID, and the
// two sharded pair tables.
type flatTables struct {
	mu        sync.RWMutex
	base      []float64 // query ID -> f_j(0), valid where baseSet
	baseSet   []bool
	sizes     []int64 // interned index ID -> p_k; -1 = missing
	sizeCount int

	indexCache [optShards]flatShard // f_j(k)
	maintCache [optShards]flatShard // per-execution maintenance cost

	// queryLimit and indexLimit are one past the largest query and index
	// IDs ever cached or restored. They survive EvictTables, like the
	// interner, and bound the IDs a spill restore accepts.
	queryLimit, indexLimit atomic.Int64
}

// raiseLimit raises limit to cover id.
func raiseLimit(limit *atomic.Int64, id int64) {
	for {
		cur := limit.Load()
		if id < cur || limit.CompareAndSwap(cur, id+1) {
			return
		}
	}
}

// notePair raises the ID limits to cover a pair key's query and index.
func (t *flatTables) notePair(key uint64) {
	raiseLimit(&t.queryLimit, int64(key>>32))
	raiseLimit(&t.indexLimit, int64(uint32(key)))
}

func (t *flatTables) baseGet(qid int) (float64, bool) {
	t.mu.RLock()
	ok := qid < len(t.baseSet) && t.baseSet[qid]
	var v float64
	if ok {
		v = t.base[qid]
	}
	t.mu.RUnlock()
	return v, ok
}

func (t *flatTables) basePut(qid int, v float64) {
	raiseLimit(&t.queryLimit, int64(qid))
	t.mu.Lock()
	for qid >= len(t.base) {
		t.base = append(t.base, 0)
		t.baseSet = append(t.baseSet, false)
	}
	t.base[qid], t.baseSet[qid] = v, true
	t.mu.Unlock()
}

func (t *flatTables) sizeGet(id workload.IndexID) (int64, bool) {
	t.mu.RLock()
	ok := int(id) < len(t.sizes) && t.sizes[id] >= 0
	var v int64
	if ok {
		v = t.sizes[id]
	}
	t.mu.RUnlock()
	return v, ok
}

func (t *flatTables) sizePut(id workload.IndexID, v int64) {
	raiseLimit(&t.indexLimit, int64(id))
	t.mu.Lock()
	for int(id) >= len(t.sizes) {
		t.sizes = append(t.sizes, -1)
	}
	if t.sizes[id] < 0 {
		t.sizeCount++
	}
	t.sizes[id] = v
	t.mu.Unlock()
}
