package fleet

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// spillOptimizer builds a warmed flat-backend optimizer whose cost tables a
// TableBudget can spill and restore.
func spillOptimizer(t *testing.T) (*whatif.Optimizer, *workload.Workload) {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 5, 8
	cfg.Seed = 13
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := whatif.New(costmodel.New(w, costmodel.SingleIndex))
	for _, q := range w.Queries {
		o.BaseCost(q)
		for _, a := range q.Attrs {
			k, err := workload.NewIndex(w, a)
			if err != nil {
				t.Fatal(err)
			}
			o.CostWithIndex(q, k)
		}
	}
	if o.TableBytes() == 0 {
		t.Fatal("warmup produced no table bytes")
	}
	return o, w
}

// spillThenCorrupt spills the optimizer's tables through a budget, mangles
// the spill file with corrupt, and returns the budget plus the file path that
// was corrupted.
func spillThenCorrupt(t *testing.T, o *whatif.Optimizer, corrupt func(t *testing.T, path string)) (*TableBudget, string) {
	t.Helper()
	dir := t.TempDir()
	b := NewTableBudget(1) // any retained byte is over budget
	b.SpillTo(dir)
	b.Pin(o)
	b.Unpin(o) // evicts + spills
	if o.TableBytes() != 0 {
		t.Fatal("tables not evicted on spill")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.spill"))
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	corrupt(t, files[0])
	return b, files[0]
}

// checkDegraded asserts the corrupt-restore contract: the corruption was
// classified and counted, the unusable file was deleted, and the optimizer
// still answers every cost bit-identically to a freshly built one (rebuild
// from source, no wrong values).
func checkDegraded(t *testing.T, b *TableBudget, path string, o *whatif.Optimizer, w *workload.Workload) {
	t.Helper()
	if got := corruptSpills(b); got != 1 {
		t.Fatalf("corrupt spills = %d, want 1", got)
	}
	if _, _, errs := b.SpillStats(); errs != 1 {
		t.Fatalf("spill errs = %d, want 1", errs)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt spill file not removed: %v", err)
	}
	fresh := whatif.New(costmodel.New(w, costmodel.SingleIndex))
	for _, q := range w.Queries {
		if got, want := o.BaseCost(q), fresh.BaseCost(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("q%d base cost %v != fresh %v after degraded restore", q.ID, got, want)
		}
		for _, a := range q.Attrs {
			k, err := workload.NewIndex(w, a)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := o.CostWithIndex(q, k), fresh.CostWithIndex(q, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q%d cost with %s: %v != fresh %v", q.ID, k.Key(), got, want)
			}
		}
	}
	b.Unpin(o)
}

func TestTableBudgetTruncatedSpillDegrades(t *testing.T) {
	o, w := spillOptimizer(t)
	b, path := spillThenCorrupt(t, o, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	b.Pin(o) // restore hits the truncation, degrades to rebuild
	checkDegraded(t, b, path, o, w)
}

func TestTableBudgetBitFlippedSpillDegrades(t *testing.T) {
	o, w := spillOptimizer(t)
	b, path := spillThenCorrupt(t, o, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	b.Pin(o)
	checkDegraded(t, b, path, o, w)
}

func TestTableBudgetBadMagicSpillDegrades(t *testing.T) {
	o, w := spillOptimizer(t)
	b, path := spillThenCorrupt(t, o, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data, "NOTSPILL")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	b.Pin(o)
	checkDegraded(t, b, path, o, w)
}

func TestReadTablesRejectsCorruptionBeforeApplying(t *testing.T) {
	// Unit-level: every corruption class surfaces ErrSpillCorrupt from the
	// whatif layer itself, and a clean file still round-trips.
	o, w := spillOptimizer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tables.spill")
	if _, err := o.SpillTables(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func([]byte) []byte{
		"truncated_header": func(b []byte) []byte { return b[:4] },
		"truncated_tail":   func(b []byte) []byte { return b[:len(b)-3] },
		"bit_flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/3] ^= 0x80
			return c
		},
		"bad_magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "XXXXXXXX")
			return c
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			victim := whatif.New(costmodel.New(w, costmodel.SingleIndex))
			victim.EvictTables()
			p := filepath.Join(dir, name+".spill")
			if err := os.WriteFile(p, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := victim.RestoreTables(p); !errors.Is(err, whatif.ErrSpillCorrupt) {
				t.Fatalf("RestoreTables err = %v, want ErrSpillCorrupt", err)
			}
		})
	}

	// The untouched file restores cleanly.
	victim := whatif.New(costmodel.New(w, costmodel.SingleIndex))
	if _, err := victim.RestoreTables(path); err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}
}

// corruptSpills reports how many restores were rejected because the spill
// file failed structural verification (a subset of SpillStats errs).
func corruptSpills(b *TableBudget) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spillCorrupt
}
