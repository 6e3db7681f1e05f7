package whatif

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

// fuzzWorkload is small so that a spill file of it stays a few hundred
// bytes: mutations then land on counts, IDs and values often.
func fuzzWorkload() *workload.Workload {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 1, 5, 5, 1_000
	return workload.MustGenerate(cfg)
}

// evictedOptimizer probes every pair of w and evicts the tables, leaving
// the interner and query bound of the optimizer that wrote a spill of w.
func evictedOptimizer(w *workload.Workload) *Optimizer {
	o := New(costmodel.New(w, costmodel.SingleIndex))
	probeAll(w, o)
	o.EvictTables()
	return o
}

// spillPayload returns the spill of a fully probed optimizer over w, without
// its checksum trailer.
func spillPayload(t testing.TB, w *workload.Workload) []byte {
	o := New(costmodel.New(w, costmodel.SingleIndex))
	probeAll(w, o)
	var buf bytes.Buffer
	if _, err := o.WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[:buf.Len()-8]
}

// withTrailer appends the FNV-1a checksum WriteTables would write.
func withTrailer(payload []byte) []byte {
	h := fnv.New64a()
	h.Write(payload)
	out := append([]byte(nil), payload...)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// tableDump is a canonical copy of an optimizer's cost tables, independent
// of slot order and table capacity.
type tableDump struct {
	Base  map[int]uint64
	Sizes map[workload.IndexID]int64
	Index [optShards]map[uint64]uint64
	Maint [optShards]map[uint64]uint64
}

func dumpTables(o *Optimizer) tableDump {
	t := o.flat
	d := tableDump{Base: map[int]uint64{}, Sizes: map[workload.IndexID]int64{}}
	for qid, set := range t.baseSet {
		if set {
			d.Base[qid] = math.Float64bits(t.base[qid])
		}
	}
	for id, sz := range t.sizes {
		if sz >= 0 {
			d.Sizes[workload.IndexID(id)] = sz
		}
	}
	shard := func(s *flatShard) map[uint64]uint64 {
		m := map[uint64]uint64{}
		for i, k := range s.keys {
			if k != emptyKey && k != tombKey {
				m[k] = math.Float64bits(s.vals[i])
			}
		}
		return m
	}
	for i := range t.indexCache {
		d.Index[i] = shard(&t.indexCache[i])
		d.Maint[i] = shard(&t.maintCache[i])
	}
	return d
}

func (d tableDump) empty() bool {
	n := len(d.Base) + len(d.Sizes)
	for i := range d.Index {
		n += len(d.Index[i]) + len(d.Maint[i])
	}
	return n == 0
}

// FuzzReadTables feeds arbitrary spill payloads, with a valid checksum
// appended so that the structural parser sees them, to an optimizer that
// has probed the fuzz workload and evicted its tables. Each input is either
// rejected as ErrSpillCorrupt with nothing merged, or restores tables that
// the same optimizer writes back, evicts and restores to the same contents.
//
// The optimizer is probed and evicted once per fuzz process and evicted
// again after each accepted input, so every input starts from the same
// empty tables, interner and query bound; that is checked before each one.
func FuzzReadTables(f *testing.F) {
	w := fuzzWorkload()
	valid := spillPayload(f, w)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(spillPayload(f, workload.MustGenerate(workload.DefaultGenConfig())))
	o := evictedOptimizer(w)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if !dumpTables(o).empty() {
			t.Fatal("tables not empty before the input")
		}
		if err := o.ReadTables(bytes.NewReader(withTrailer(payload))); err != nil {
			if !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("rejection %v is not ErrSpillCorrupt", err)
			}
			if !dumpTables(o).empty() {
				t.Fatalf("rejected spill (%v) merged entries", err)
			}
			return
		}
		defer o.EvictTables()
		first := dumpTables(o)
		var buf bytes.Buffer
		if _, err := o.WriteTables(&buf); err != nil {
			t.Fatal(err)
		}
		o.EvictTables()
		if err := o.ReadTables(&buf); err != nil {
			t.Fatalf("tables restored from an accepted spill do not restore after WriteTables: %v", err)
		}
		if second := dumpTables(o); !reflect.DeepEqual(first, second) {
			t.Fatalf("write/read round trip changed the tables:\n%+v\n%+v", first, second)
		}
	})
}

// spillOffsets locates the count fields of a valid payload: the base count,
// the size count, and each of the 2*optShards shard counts.
func spillOffsets(payload []byte) (base, sizes int, shards []int) {
	base = len(spillMagic)
	sizes = base + 4 + 12*int(binary.LittleEndian.Uint32(payload[base:]))
	off := sizes + 4 + 12*int(binary.LittleEndian.Uint32(payload[sizes:]))
	for i := 0; i < 2*optShards; i++ {
		shards = append(shards, off)
		off += 4 + 16*int(binary.LittleEndian.Uint32(payload[off:]))
	}
	return base, sizes, shards
}

// TestSpillRejectsUnboundedInput: a spill whose checksum is valid but whose
// counts or IDs would make the restore loop 2^32 times, grow the base or
// size table to a huge ID, or reserve 2^33 slots is rejected as corrupt —
// with nothing merged, even when the bad record sits in the last shard.
func TestSpillRejectsUnboundedInput(t *testing.T) {
	w := testWorkload(t)
	valid := spillPayload(t, w)
	base, sizes, shards := spillOffsets(valid)
	last := -1 // the last shard with entries
	for _, off := range shards {
		if binary.LittleEndian.Uint32(valid[off:]) > 0 {
			last = off
		}
	}
	if last < 0 {
		t.Fatal("spill has no shard entries")
	}
	patch := func(off int, v uint32) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	cases := map[string][]byte{
		"huge base count":    patch(base, math.MaxUint32),
		"huge size count":    patch(sizes, math.MaxUint32),
		"huge shard count":   patch(shards[3], math.MaxUint32),
		"huge query ID":      patch(base+4, 1<<31),
		"huge index ID":      patch(sizes+4, 1<<31),
		"huge pair query ID": patch(last+4+4, 1<<31),
		"huge pair index ID": patch(last+4, math.MaxUint32),
	}
	for name, payload := range cases {
		o := evictedOptimizer(w)
		err := o.ReadTables(bytes.NewReader(withTrailer(payload)))
		if !errors.Is(err, ErrSpillCorrupt) {
			t.Errorf("%s: ReadTables = %v, want ErrSpillCorrupt", name, err)
		}
		if !dumpTables(o).empty() {
			t.Errorf("%s: rejected spill merged entries", name)
		}
	}
	o := evictedOptimizer(w)
	if err := o.ReadTables(bytes.NewReader(withTrailer(valid))); err != nil {
		t.Fatalf("unpatched spill rejected: %v", err)
	}
}
