package whatiftest

import (
	"math/rand"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// NoisySource wraps a Source and perturbs every cost multiplicatively by a
// deterministic pseudo-random factor in [1-eps, 1+eps]. It models inaccurate
// what-if estimates (cf. the paper's Section IV-B motivation) and is used in
// robustness tests: selection strategies must keep producing feasible,
// near-comparable selections under noisy costs.
type NoisySource struct {
	Src whatif.Source
	Eps float64
	// Seed fixes the perturbation; the factor for a given (query, index)
	// pair is stable across calls.
	Seed int64
}

func (n NoisySource) perturb(key int64, c float64) float64 {
	r := rand.New(rand.NewSource(n.Seed ^ key))
	return c * (1 + n.Eps*(2*r.Float64()-1))
}

// BaseCost implements Source.
func (n NoisySource) BaseCost(q workload.Query) float64 {
	return n.perturb(int64(q.ID)<<32, n.Src.BaseCost(q))
}

// CostWithIndex implements Source.
func (n NoisySource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	h := int64(q.ID)<<32 ^ hashString(k.Key())
	return n.perturb(h, n.Src.CostWithIndex(q, k))
}

// QueryCost implements Source.
func (n NoisySource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	var h int64
	for key := range sel {
		h ^= hashString(key)
	}
	return n.perturb(int64(q.ID)<<32^h, n.Src.QueryCost(q, sel))
}

// MaintenanceCost implements Source with the same bounded perturbation.
func (n NoisySource) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	c := n.Src.MaintenanceCost(q, k)
	if c == 0 {
		return 0
	}
	h := int64(q.ID)<<32 ^ hashString(k.Key()) ^ 0x5bd1e995
	return n.perturb(h, c)
}

// IndexSize implements Source; sizes are catalog facts and stay exact.
func (n NoisySource) IndexSize(k workload.Index) int64 { return n.Src.IndexSize(k) }

// hashString is FNV-1a folded to int64.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h &^ (1 << 63))
}

// Measured declares the wrapped source's costs measured (see whatif.Source):
// an optimizer over it evaluates every (query, index) pair through the
// source, and core derives no extension cost. Tests use it to pin that exact
// path on a source that is in fact prefix-invariant.
type Measured struct{ whatif.Source }

// MeasuredCosts implements the whatif.Source declaration.
func (Measured) MeasuredCosts() bool { return true }
