package whatiftest

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/workload"
)

func TestNoisySource(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable, cfg.RowsBase = 2, 10, 20, 10_000
	w := workload.MustGenerate(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	n := NoisySource{Src: m, Eps: 0.1, Seed: 42}
	q := w.Queries[0]
	k := workload.MustIndex(w, q.Attrs[0])

	// Deterministic: repeated calls agree.
	if n.BaseCost(q) != n.BaseCost(q) {
		t.Error("NoisySource.BaseCost not deterministic")
	}
	if n.CostWithIndex(q, k) != n.CostWithIndex(q, k) {
		t.Error("NoisySource.CostWithIndex not deterministic")
	}
	// Bounded perturbation.
	exact := m.CostWithIndex(q, k)
	noisy := n.CostWithIndex(q, k)
	if math.Abs(noisy-exact) > 0.1*exact+1e-9 {
		t.Errorf("noise out of bounds: exact %v, noisy %v", exact, noisy)
	}
	// Sizes stay exact.
	if n.IndexSize(k) != m.IndexSize(k) {
		t.Error("NoisySource perturbed IndexSize")
	}
	// Different seeds differ somewhere.
	n2 := NoisySource{Src: m, Eps: 0.1, Seed: 43}
	diff := false
	for _, q := range w.Queries[:10] {
		if n.BaseCost(q) != n2.BaseCost(q) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical noise")
	}
	// QueryCost perturbs but stays in bounds too.
	sel := workload.NewSelection(k)
	exactQ := m.QueryCost(q, sel)
	noisyQ := n.QueryCost(q, sel)
	if math.Abs(noisyQ-exactQ) > 0.1*exactQ+1e-9 {
		t.Errorf("QueryCost noise out of bounds: %v vs %v", noisyQ, exactQ)
	}
}
