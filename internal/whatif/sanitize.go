package whatif

import (
	"math"

	"repro/internal/telemetry"
)

// mCostAnomalies counts source results rejected at the optimizer boundary:
// NaN, ±Inf, or negative costs, and negative sizes. Sanitization happens
// before caching, so a broken estimate is counted once per distinct
// evaluation, not once per cache read.
var mCostAnomalies = telemetry.Default().Counter("indexsel_cost_anomalies_total",
	"Non-finite or negative costs/sizes returned by a what-if Source and clamped at the Optimizer boundary.")

// costCap is the clamp for NaN/+Inf costs. It must be (a) large enough that a
// poisoned estimate never looks attractive — no sane workload cost comes
// within orders of magnitude of it — and (b) small enough that multiplying by
// per-query frequencies (int64, up to ~9.2e18) and summing over a workload
// stays finite. 1e100 * 9.2e18 * any realistic query count ≪ MaxFloat64
// (~1.8e308).
const costCap = 1e100

// SanitizeCost enforces the Source contract (finite, non-negative costs) at
// the caching boundary so an anomaly can never enter a cost cache or the
// frontier. NaN and +Inf clamp to costCap (pessimistic: the candidate is
// never chosen, but arithmetic downstream stays finite); -Inf and negative
// values clamp to zero (a cost can legitimately be zero, never less).
func SanitizeCost(c float64) float64 {
	if c >= 0 && c <= costCap { // finite, non-negative fast path
		return c
	}
	mCostAnomalies.Inc()
	if math.IsNaN(c) || c > costCap { // NaN or +Inf or absurdly large
		return costCap
	}
	return 0 // negative or -Inf
}

// SanitizeSize enforces non-negative index sizes; a negative size would make
// a candidate look budget-free (or worse, relax the budget for others).
// Both sanitizers are exported so the whatiftest oracle clamps (and counts)
// exactly like the Optimizer.
func SanitizeSize(s int64) int64 {
	if s >= 0 {
		return s
	}
	mCostAnomalies.Inc()
	return 0
}
