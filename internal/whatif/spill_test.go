package whatif

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

// probeAll drives every (query, index) pair the selector would touch — base
// costs, single- and full-width index costs, maintenance, sizes — and returns
// the values keyed by probe identity for bitwise comparison.
func probeAll(w *workload.Workload, o *Optimizer) map[string]float64 {
	got := make(map[string]float64)
	for _, q := range w.Queries {
		got[fmt.Sprintf("base/%d", q.ID)] = o.BaseCost(q)
		ks := []workload.Index{workload.MustIndex(w, q.Attrs[0])}
		if len(q.Attrs) > 1 {
			ks = append(ks, workload.MustIndex(w, q.Attrs...))
		}
		for _, k := range ks {
			got[fmt.Sprintf("cost/%d/%s", q.ID, k.Key())] = o.CostWithIndex(q, k)
			got[fmt.Sprintf("maint/%d/%s", q.ID, k.Key())] = o.MaintenanceCost(q, k)
			got[fmt.Sprintf("size/%s", k.Key())] = float64(o.IndexSize(k))
		}
	}
	return got
}

// diffBitwise fails the test for any probe whose restored value is not
// bit-identical to the original.
func diffBitwise(t *testing.T, before, after map[string]float64) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("probe sets differ: %d vs %d", len(before), len(after))
	}
	for key, b := range before {
		a, ok := after[key]
		if !ok {
			t.Fatalf("probe %s missing after restore", key)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("probe %s: restored %v (bits %#x) != original %v (bits %#x)",
				key, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
}

func TestSpillRoundTripBitIdentity(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	before := probeAll(w, o)
	callsBefore := o.Stats().Calls
	if callsBefore == 0 {
		t.Fatal("no source calls recorded before spill")
	}

	var buf bytes.Buffer
	n, err := o.WriteTables(&buf)
	if err != nil {
		t.Fatalf("WriteTables: %v", err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("WriteTables reported %d bytes, buffer holds %d", n, buf.Len())
	}
	if freed := o.EvictTables(); freed == 0 {
		t.Fatal("EvictTables freed nothing")
	}
	if err := o.ReadTables(&buf); err != nil {
		t.Fatalf("ReadTables: %v", err)
	}

	after := probeAll(w, o)
	diffBitwise(t, before, after)
	// Every re-probe must be served from the restored tables: a single
	// additional source call means restore silently fell back to rebuild.
	if calls := o.Stats().Calls; calls != callsBefore {
		t.Errorf("restore leaked %d source calls (%d -> %d)", calls-callsBefore, callsBefore, calls)
	}
}

func TestSpillFileRoundTrip(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	before := probeAll(w, o)
	callsBefore := o.Stats().Calls
	resident := o.TableBytes()

	path := filepath.Join(t.TempDir(), "cluster0.spill")
	freed, err := o.SpillTables(path)
	if err != nil {
		t.Fatalf("SpillTables: %v", err)
	}
	if freed != resident {
		t.Errorf("SpillTables freed %d bytes, tables held %d", freed, resident)
	}
	if o.TableBytes() != 0 {
		t.Errorf("tables not empty after spill: %d bytes", o.TableBytes())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}

	restored, err := o.RestoreTables(path)
	if err != nil {
		t.Fatalf("RestoreTables: %v", err)
	}
	if restored == 0 {
		t.Error("RestoreTables reported zero resident bytes")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file not consumed on restore: %v", err)
	}
	diffBitwise(t, before, probeAll(w, o))
	if calls := o.Stats().Calls; calls != callsBefore {
		t.Errorf("restore leaked %d source calls", calls-callsBefore)
	}
}

func TestSpillChecksumDetectsCorruption(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	probeAll(w, o)

	var buf bytes.Buffer
	if _, err := o.WriteTables(&buf); err != nil {
		t.Fatalf("WriteTables: %v", err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x40
	if err := o.ReadTables(bytes.NewReader(b)); err == nil {
		t.Fatal("ReadTables accepted a corrupted spill stream")
	}
}

func TestSpillTruncationDetected(t *testing.T) {
	w := testWorkload(t)
	o := New(costmodel.New(w, costmodel.SingleIndex))
	probeAll(w, o)

	var buf bytes.Buffer
	if _, err := o.WriteTables(&buf); err != nil {
		t.Fatalf("WriteTables: %v", err)
	}
	b := buf.Bytes()
	if err := o.ReadTables(bytes.NewReader(b[:len(b)/3])); err == nil {
		t.Fatal("ReadTables accepted a truncated spill stream")
	}
}
