package explain

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// StepDiff describes the first step at which two runs diverge.
type StepDiff struct {
	Step int `json:"step"`
	// A/B summarize the divergent step on each side ("<none>" when one run
	// is a proper prefix of the other).
	A      string `json:"a"`
	B      string `json:"b"`
	Reason string `json:"reason"`
}

// AttributionDelta is one index's net-benefit movement between two runs.
type AttributionDelta struct {
	Index string  `json:"index"`
	NetA  float64 `json:"net_a"`
	NetB  float64 `json:"net_b"`
	Delta float64 `json:"delta"`
}

// Diff is the semantic comparison of two runs. Identical means the decision
// traces, final objectives, and attributions agree; prune-ledger differences
// are reported but deliberately NOT divergence — the lazy loop and the
// uncached sweep produce equal frontiers with different ledgers on the same
// workload, and that is the expected, healthy outcome.
type Diff struct {
	StepsA int `json:"steps_a"`
	StepsB int `json:"steps_b"`
	// FirstDivergence is nil when the step traces match.
	FirstDivergence *StepDiff `json:"first_divergence,omitempty"`
	FrontierEqual   bool      `json:"frontier_equal"`
	// ObjectiveDelta is costB - costA; MemoryDelta memB - memA.
	ObjectiveDelta float64 `json:"objective_delta"`
	MemoryDelta    int64   `json:"memory_delta"`
	// PrunedA/PrunedB total the runs' bound-skipped candidates;
	// LedgerDiffers is true when the per-step prune ledgers differ.
	PrunedA       int  `json:"pruned_a"`
	PrunedB       int  `json:"pruned_b"`
	LedgerDiffers bool `json:"ledger_differs"`
	// AttributionDeltas lists per-index net movements beyond FP slack
	// (largest |delta| first). Empty when either run lacks attribution.
	AttributionDeltas []AttributionDelta `json:"attribution_deltas,omitempty"`
	Identical         bool               `json:"identical"`
}

// DiffRuns compares two journal-reconstructed runs.
func DiffRuns(a, b *Run) *Diff {
	d := &Diff{
		StepsA:         len(a.Steps),
		StepsB:         len(b.Steps),
		ObjectiveDelta: b.Cost - a.Cost,
		MemoryDelta:    b.MemoryBytes - a.MemoryBytes,
		PrunedA:        a.TotalPruned(),
		PrunedB:        b.TotalPruned(),
	}
	d.FirstDivergence = firstDivergence(a.Steps, b.Steps)
	d.FrontierEqual = frontierEqual(a.Frontier(), b.Frontier())
	d.LedgerDiffers = ledgerDiffers(a.Steps, b.Steps)
	d.AttributionDeltas = attributionDeltas(a.Attribution, b.Attribution)
	d.Identical = d.FirstDivergence == nil &&
		ApproxEqual(a.Cost, b.Cost) && a.MemoryBytes == b.MemoryBytes &&
		len(d.AttributionDeltas) == 0
	return d
}

func firstDivergence(a, b []JournalStep) *StepDiff {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		switch {
		case x.Kind != y.Kind || x.Index != y.Index:
			return &StepDiff{Step: i, A: stepLabel(x), B: stepLabel(y), Reason: "different step chosen"}
		case x.MemAfter != y.MemAfter || !ApproxEqual(x.CostAfter, y.CostAfter):
			return &StepDiff{Step: i, A: stepLabel(x), B: stepLabel(y), Reason: "same step, different outcome"}
		}
	}
	if len(a) != len(b) {
		sd := &StepDiff{Step: n, A: "<none>", B: "<none>", Reason: "trace lengths differ"}
		if len(a) > n {
			sd.A = stepLabel(a[n])
		}
		if len(b) > n {
			sd.B = stepLabel(b[n])
		}
		return sd
	}
	return nil
}

func stepLabel(s JournalStep) string {
	return fmt.Sprintf("%s %s (cost %.6g, mem %d)", s.Kind, s.Index, s.CostAfter, s.MemAfter)
}

func frontierEqual(a, b []FrontierPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Memory != b[i].Memory || !ApproxEqual(a[i].Cost, b[i].Cost) {
			return false
		}
	}
	return true
}

func ledgerDiffers(a, b []JournalStep) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var la, lb []PrunedBucket
		var pa, pb int
		if i < len(a) {
			pa = a[i].Pruned
			if a[i].Provenance != nil {
				la = a[i].Provenance.PruneLedger
			}
		}
		if i < len(b) {
			pb = b[i].Pruned
			if b[i].Provenance != nil {
				lb = b[i].Provenance.PruneLedger
			}
		}
		if pa != pb || len(la) != len(lb) {
			return true
		}
		for j := range la {
			if la[j].Lead != lb[j].Lead || la[j].Skipped != lb[j].Skipped ||
				la[j].Opened != lb[j].Opened || !ApproxEqual(la[j].Bound, lb[j].Bound) {
				return true
			}
		}
	}
	return false
}

func attributionDeltas(a, b *Attribution) []AttributionDelta {
	if a == nil || b == nil {
		return nil
	}
	nets := make(map[string][2]float64)
	for _, ix := range a.Indexes {
		v := nets[ix.Index]
		v[0] = ix.Net
		nets[ix.Index] = v
	}
	for _, ix := range b.Indexes {
		v := nets[ix.Index]
		v[1] = ix.Net
		nets[ix.Index] = v
	}
	var out []AttributionDelta
	for key, v := range nets {
		if ApproxEqual(v[0], v[1]) {
			continue
		}
		out = append(out, AttributionDelta{Index: key, NetA: v[0], NetB: v[1], Delta: v[1] - v[0]})
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := math.Abs(out[i].Delta), math.Abs(out[j].Delta)
		if di != dj {
			return di > dj
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// WriteText renders the diff for terminals; nameA/nameB label the sides.
func (d *Diff) WriteText(w io.Writer, nameA, nameB string) error {
	verdict := "DIVERGED"
	if d.Identical {
		verdict = "identical"
	}
	if _, err := fmt.Fprintf(w, "runcompare: %s vs %s: %s\n", nameA, nameB, verdict); err != nil {
		return err
	}
	fmt.Fprintf(w, "  steps: %d vs %d, objective delta %.6g, memory delta %d bytes\n",
		d.StepsA, d.StepsB, d.ObjectiveDelta, d.MemoryDelta)
	if d.FirstDivergence != nil {
		fmt.Fprintf(w, "  first divergent step %d (%s):\n    A: %s\n    B: %s\n",
			d.FirstDivergence.Step, d.FirstDivergence.Reason, d.FirstDivergence.A, d.FirstDivergence.B)
	}
	fmt.Fprintf(w, "  frontier: equal=%v\n", d.FrontierEqual)
	fmt.Fprintf(w, "  pruning: %d vs %d candidates skipped, ledgers differ=%v\n",
		d.PrunedA, d.PrunedB, d.LedgerDiffers)
	for _, ad := range d.AttributionDeltas {
		fmt.Fprintf(w, "  attribution: %-44s net %.6g -> %.6g (delta %.6g)\n",
			ad.Index, ad.NetA, ad.NetB, ad.Delta)
	}
	return nil
}
