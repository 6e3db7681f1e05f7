package whatif

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

// badSource wraps a real source and replaces every cost with Cost and every
// size with Size, exercising the sanitization boundary.
type badSource struct {
	Source
	Cost float64
	Size int64
}

func (b badSource) BaseCost(q workload.Query) float64 { return b.Cost }
func (b badSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	return b.Cost
}
func (b badSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	return b.Cost
}
func (b badSource) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	return b.Cost
}
func (b badSource) IndexSize(k workload.Index) int64 { return b.Size }

func TestSanitizeCountsAnomalies(t *testing.T) {
	w := testWorkload(t)
	model := costmodel.New(w, costmodel.SingleIndex)
	o := New(badSource{Source: model, Cost: math.NaN(), Size: -1})
	q := w.Queries[0]
	k := workload.MustIndex(w, q.Attrs[0])

	before := mCostAnomalies.Value()
	o.BaseCost(q)
	o.CostWithIndex(q, k)
	o.IndexSize(k)
	got := mCostAnomalies.Value() - before
	if got != 3 {
		t.Errorf("anomaly counter advanced by %d, want 3", got)
	}
	// Cache hits must not re-count.
	before = mCostAnomalies.Value()
	o.BaseCost(q)
	o.CostWithIndex(q, k)
	o.IndexSize(k)
	if d := mCostAnomalies.Value() - before; d != 0 {
		t.Errorf("cached reads advanced anomaly counter by %d, want 0", d)
	}
}
