package whatif

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/workload"
)

// Spill-to-disk for evicted cost tables (fleet mode). Every cached value is a
// deterministic function of the source, so an evicted table can always be
// rebuilt — but rebuilding replays what-if source calls, which on an
// engine-measured source means re-executing queries. Spilling instead
// serializes the flat tables to a compact binary file on eviction and
// restores them bit-identically on re-dispatch: restore is a sequential read
// plus hash inserts, orders of magnitude cheaper than the source.
//
// Format (little-endian throughout):
//
//	magic     [8]byte  "WIFSPIL1"
//	nBase     uint32   then nBase x (qid uint32, costBits uint64)
//	nSizes    uint32   then nSizes x (indexID uint32, size uint64)
//	32 index-cost shards: count uint32, then count x (pairKey uint64, costBits uint64)
//	32 maintenance shards: same layout
//	checksum  uint64   FNV-1a over every preceding byte
//
// Costs are stored as math.Float64bits so the round trip is bit-exact (the
// differential tests compare restored values bitwise). Pair keys pack
// (query ID << 32 | interned index ID); the per-query invalidation lists are
// reconstructed from key>>32 on restore rather than stored. Interned index
// IDs are assigned in first-intern order and are therefore process-local:
// a spill file is only meaningful to the optimizer (strictly: the interner)
// that wrote it, within one process run. Fleet spill files live under a
// per-run directory and are consumed on restore.

// spillMagic identifies a whatif spill file; the trailing digit versions the
// layout.
var spillMagic = [8]byte{'W', 'I', 'F', 'S', 'P', 'I', 'L', '1'}

// ErrSpillCorrupt tags every way a spill file can fail structural
// verification — truncation, checksum mismatch, bad magic, a count larger
// than the bytes left, an out-of-range ID, cost or size, trailing bytes.
// Callers (fleet's TableBudget) classify restore failures with
// errors.Is(err, ErrSpillCorrupt) and degrade to a source
// rebuild instead of failing the tenant: corruption costs performance,
// never correctness. No table entry is applied before verification passes.
var ErrSpillCorrupt = errors.New("whatif: spill file corrupt")

// WriteTables serializes the optimizer's cost tables to w in the spill format
// and returns the number of bytes written. The tables are left intact; pair
// EvictTables after a successful write to free them (or use SpillTables,
// which does both).
func (o *Optimizer) WriteTables(w io.Writer) (int64, error) {
	if o.canon != nil {
		return 0, errors.New("whatif: spill through the base optimizer, not a tenant View")
	}
	buf := o.appendTables(make([]byte, 0, o.spillSizeHint()))
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, h.Sum64())
	n, err := w.Write(buf)
	return int64(n), err
}

// spillSizeHint estimates the serialized size so appendTables allocates once.
func (o *Optimizer) spillSizeHint() int {
	t := o.flat
	t.mu.RLock()
	n := 8 + 4 + 12*len(t.base) + 4 + 12*len(t.sizes) + 8
	t.mu.RUnlock()
	for i := range t.indexCache {
		n += 4 + 16*t.indexCache[i].len()
		n += 4 + 16*t.maintCache[i].len()
	}
	return n
}

func (o *Optimizer) appendTables(buf []byte) []byte {
	t := o.flat
	buf = append(buf, spillMagic[:]...)

	t.mu.RLock()
	nBase := 0
	for _, set := range t.baseSet {
		if set {
			nBase++
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nBase))
	for qid, set := range t.baseSet {
		if set {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(qid))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.base[qid]))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.sizeCount))
	for id, sz := range t.sizes {
		if sz >= 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(sz))
		}
	}
	t.mu.RUnlock()

	for i := range t.indexCache {
		buf = t.indexCache[i].appendEntries(buf)
	}
	for i := range t.maintCache {
		buf = t.maintCache[i].appendEntries(buf)
	}
	return buf
}

// appendEntries serializes the shard's live entries: count, then
// (key, valueBits) pairs in slot order.
func (s *flatShard) appendEntries(buf []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.live))
	for i, k := range s.keys {
		if k == emptyKey || k == tombKey {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, k)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.vals[i]))
	}
	return buf
}

// ReadTables restores cost tables from a spill stream written by WriteTables.
// Entries are merged into the current tables (identical values under a
// deterministic source, so merging is safe); the expected use is restoring
// into just-evicted, empty tables. The checksum trailer and the whole
// structure are verified before any entry is applied.
func (o *Optimizer) ReadTables(r io.Reader) error {
	if o.canon != nil {
		return errors.New("whatif: restore through the base optimizer, not a tenant View")
	}
	buf, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("whatif: reading spill: %w", err)
	}
	if len(buf) < len(spillMagic)+8 {
		return fmt.Errorf("%w: truncated header", ErrSpillCorrupt)
	}
	payload, trailer := buf[:len(buf)-8], buf[len(buf)-8:]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(trailer); got != want {
		return fmt.Errorf("%w: checksum mismatch: %#x != %#x", ErrSpillCorrupt, got, want)
	}
	l, err := o.parseSpill(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSpillCorrupt, err)
	}

	t := o.flat
	for b := l.base; len(b) > 0; b = b[12:] {
		t.basePut(int(binary.LittleEndian.Uint32(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[4:])))
	}
	for b := l.sizes; len(b) > 0; b = b[12:] {
		t.sizePut(workload.IndexID(binary.LittleEndian.Uint32(b)), int64(binary.LittleEndian.Uint64(b[4:])))
	}
	for i := range t.indexCache {
		t.indexCache[i].putEntries(l.index[i])
		t.maintCache[i].putEntries(l.maint[i])
	}
	raiseLimit(&t.queryLimit, l.maxQuery)
	raiseLimit(&t.indexLimit, l.maxIndex)
	return nil
}

// spillLayout holds the record sections of a verified spill payload,
// sub-slices of the payload itself: 12-byte (ID, value) records for base
// costs and sizes, 16-byte (pair key, cost) records per shard; and the
// largest query and index IDs the records hold (-1 if none).
type spillLayout struct {
	base, sizes        []byte
	index, maint       [optShards][]byte
	maxQuery, maxIndex int64
}

// parseSpill verifies the whole payload and locates its record sections.
// Every count must fit in the bytes that remain; every query and index ID
// must lie below the optimizer's ID limits or below the payload length;
// pair keys must sit in their query's shard; costs and sizes must lie in
// the range the optimizer boundary lets into the caches. A file the
// optimizer wrote always passes, and a restore's work and table growth are
// bounded by the file's size and the tables the optimizer already held.
func (o *Optimizer) parseSpill(payload []byte) (spillLayout, error) {
	l := spillLayout{maxQuery: -1, maxIndex: -1}
	if magic := payload[:len(spillMagic)]; string(magic) != string(spillMagic[:]) {
		return l, fmt.Errorf("bad magic %q", magic)
	}
	c := spillCursor{buf: payload, off: len(spillMagic)}
	queries := max(o.flat.queryLimit.Load(), int64(len(payload)))
	indexes := max(o.flat.indexLimit.Load(), int64(len(payload)))
	checkQuery := func(qid uint32) error {
		if int64(qid) >= queries {
			return fmt.Errorf("query ID %d above the limit %d", qid, queries)
		}
		l.maxQuery = max(l.maxQuery, int64(qid))
		return nil
	}
	checkIndex := func(id uint32) error {
		if int64(id) >= indexes {
			return fmt.Errorf("index ID %d above the limit %d", id, indexes)
		}
		l.maxIndex = max(l.maxIndex, int64(id))
		return nil
	}
	checkCost := func(bits uint64) error {
		if v := math.Float64frombits(bits); !(v >= 0 && v <= costCap) {
			return fmt.Errorf("cost %v outside [0, %g]", v, costCap)
		}
		return nil
	}

	var err error
	if l.base, err = c.records("base", 12); err != nil {
		return l, err
	}
	for b := l.base; len(b) > 0; b = b[12:] {
		if err := checkQuery(binary.LittleEndian.Uint32(b)); err != nil {
			return l, err
		}
		if err := checkCost(binary.LittleEndian.Uint64(b[4:])); err != nil {
			return l, err
		}
	}
	if l.sizes, err = c.records("size", 12); err != nil {
		return l, err
	}
	for b := l.sizes; len(b) > 0; b = b[12:] {
		if err := checkIndex(binary.LittleEndian.Uint32(b)); err != nil {
			return l, err
		}
		if size := int64(binary.LittleEndian.Uint64(b[4:])); size < 0 {
			return l, fmt.Errorf("negative index size %d", size)
		}
	}
	for _, sections := range []*[optShards][]byte{&l.index, &l.maint} {
		for i := range sections {
			if sections[i], err = c.records("shard", 16); err != nil {
				return l, err
			}
			for b := sections[i]; len(b) > 0; b = b[16:] {
				key := binary.LittleEndian.Uint64(b)
				qid := uint32(key >> 32)
				if err := checkQuery(qid); err != nil {
					return l, err
				}
				if err := checkIndex(uint32(key)); err != nil {
					return l, err
				}
				if shardOf(int(qid)) != uint32(i) {
					return l, fmt.Errorf("pair key %#x in shard %d, not its query's shard %d", key, i, shardOf(int(qid)))
				}
				if err := checkCost(binary.LittleEndian.Uint64(b[8:])); err != nil {
					return l, err
				}
			}
		}
	}
	if len(c.buf) != c.off {
		return l, fmt.Errorf("%d trailing bytes in payload", len(c.buf)-c.off)
	}
	return l, nil
}

// putEntries merges verified 16-byte (pair key, cost) records into s,
// pre-sizing the table so the inserts never rehash mid-restore.
func (s *flatShard) putEntries(records []byte) {
	if len(records) == 0 {
		return
	}
	s.reserve(len(records) / 16)
	for b := records; len(b) > 0; b = b[16:] {
		key := binary.LittleEndian.Uint64(b)
		s.put(int(key>>32), key, math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
	}
}

// reserve grows the shard to hold at least n live entries without rehashing.
func (s *flatShard) reserve(n int) {
	s.mu.Lock()
	need := 64
	for need < 2*(s.live+n) {
		need *= 2
	}
	if need > len(s.keys) {
		s.rehash(need)
	}
	s.mu.Unlock()
}

// spillCursor walks a spill payload.
type spillCursor struct {
	buf []byte
	off int
}

// records reads a uint32 record count and returns that many size-byte
// records, refusing a count the remaining bytes cannot hold.
func (c *spillCursor) records(what string, size int) ([]byte, error) {
	left := len(c.buf) - c.off - 4
	if left < 0 {
		return nil, fmt.Errorf("truncated %s count", what)
	}
	n := uint64(binary.LittleEndian.Uint32(c.buf[c.off:]))
	if n*uint64(size) > uint64(left) {
		return nil, fmt.Errorf("%s count %d needs %d bytes, %d left", what, n, n*uint64(size), left)
	}
	b := c.buf[c.off+4 : c.off+4+int(n)*size]
	c.off += 4 + len(b)
	return b, nil
}

// SpillTables writes the tables to path (atomically, via a same-directory
// temp file) and then evicts them, returning the estimated bytes freed. On
// write error the tables are left intact and nothing is evicted.
func (o *Optimizer) SpillTables(path string) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".spill-*")
	if err != nil {
		return 0, fmt.Errorf("whatif: creating spill file: %w", err)
	}
	if _, err := o.WriteTables(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("whatif: writing spill file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("whatif: closing spill file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("whatif: publishing spill file: %w", err)
	}
	return o.EvictTables(), nil
}

// RestoreTables reads a spill file written by SpillTables back into the
// (typically just-evicted) tables and deletes it — spill files are consumed
// exactly once. Returns the estimated resident bytes of the restored tables.
func (o *Optimizer) RestoreTables(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("whatif: opening spill file: %w", err)
	}
	err = o.ReadTables(f)
	f.Close()
	if err != nil {
		return 0, err
	}
	os.Remove(path)
	return o.TableBytes(), nil
}
