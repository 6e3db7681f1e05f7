package whatif

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

func TestEvictTablesConcurrentProbes(t *testing.T) {
	// Eviction racing live probes must not corrupt values: every read is
	// either a hit on the old table or a fresh deterministic evaluation.
	w := testWorkload(t)
	m := costmodel.New(w, costmodel.SingleIndex)
	o := New(m)
	q := w.Queries[0]
	k := workload.MustIndex(w, q.Attrs[0])
	want := m.CostWithIndex(q, k)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			o.EvictTables()
		}
	}()
	for i := 0; i < 2000; i++ {
		if got := o.CostWithIndex(q, k); got != want {
			t.Fatalf("probe %d returned %v during eviction, want %v", i, got, want)
		}
	}
	<-done
}
