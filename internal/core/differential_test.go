package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// The interned selector over flat what-if tables must be bit-identical to
// the retained string-keyed reference stack (selectReference over
// whatiftest.New): same step trace, same frontier, same selection, and the
// same what-if Calls/CacheHits accounting. This is the contract that makes the fast path trustworthy — any divergence in
// tie-breaking, cache semantics, or derived-cost reuse shows up here.

// traceEqual asserts two results carry bit-identical step traces: same
// kinds, keys, replaced indexes, ratios, costs, memory, and runner-ups.
func traceEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.InitialCost != b.InitialCost {
		t.Errorf("%s: initial cost %v vs %v", label, a.InitialCost, b.InitialCost)
	}
	if a.Cost != b.Cost || a.Memory != b.Memory {
		t.Errorf("%s: final (%v, %d) vs (%v, %d)", label, a.Cost, a.Memory, b.Cost, b.Memory)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: %d steps vs %d", label, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		x, y := a.Steps[i], b.Steps[i]
		if x.Kind != y.Kind || x.Index.Key() != y.Index.Key() {
			t.Fatalf("%s: step %d is %v %v vs %v %v", label, i, x.Kind, x.Index, y.Kind, y.Index)
		}
		if (x.Replaced == nil) != (y.Replaced == nil) {
			t.Errorf("%s: step %d replaced mismatch", label, i)
		} else if x.Replaced != nil && x.Replaced.Key() != y.Replaced.Key() {
			t.Errorf("%s: step %d replaced %v vs %v", label, i, x.Replaced, y.Replaced)
		}
		if x.Ratio != y.Ratio || x.CostAfter != y.CostAfter || x.MemAfter != y.MemAfter {
			t.Errorf("%s: step %d numbers (%v, %v, %d) vs (%v, %v, %d)",
				label, i, x.Ratio, x.CostAfter, x.MemAfter, y.Ratio, y.CostAfter, y.MemAfter)
		}
		if (x.RunnerUp == nil) != (y.RunnerUp == nil) {
			t.Errorf("%s: step %d runner-up presence mismatch", label, i)
		} else if x.RunnerUp != nil &&
			(x.RunnerUp.Kind != y.RunnerUp.Kind ||
				x.RunnerUp.Index.Key() != y.RunnerUp.Index.Key() ||
				x.RunnerUp.Ratio != y.RunnerUp.Ratio) {
			t.Errorf("%s: step %d runner-up %+v vs %+v", label, i, *x.RunnerUp, *y.RunnerUp)
		}
	}
	if len(a.Selection) != len(b.Selection) {
		t.Errorf("%s: selections differ: %d vs %d indexes", label, len(a.Selection), len(b.Selection))
	}
	for key := range a.Selection {
		if !b.Selection.Has(a.Selection[key]) {
			t.Errorf("%s: %v missing from second selection", label, a.Selection[key])
		}
	}
}

func diffWorkloads(t *testing.T) map[string]*workload.Workload {
	t.Helper()
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Tables, erpCfg.TotalAttrs, erpCfg.Queries = 40, 340, 180
	erpCfg.MinRows, erpCfg.MaxRows = 100_000, 5_000_000
	erpCfg.TotalExecutions = 1_000_000
	return map[string]*workload.Workload{
		"TPCC": workload.MustTPCC(20),
		"ERP":  workload.MustGenerateERP(erpCfg),
	}
}

func TestDifferentialFlatVsReference(t *testing.T) {
	features := []Options{
		{},
		{TrackSecondBest: true, DropUnused: true},
		{PairSteps: true, PairLimit: 40, TrackSecondBest: true},
		{TopNSingle: 8},
	}
	for name, w := range diffWorkloads(t) {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		for fi, feat := range features {
			label := fmt.Sprintf("%s/feature%d", name, fi)

			opts := feat
			opts.Budget = budget
			refOpt := whatiftest.New(m)
			want, err := selectReference(w, refOpt, opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}

			flatOpt := whatif.New(m)
			got, err := Select(w, flatOpt, opts)
			if err != nil {
				t.Fatalf("%s: flat: %v", label, err)
			}

			traceEqual(t, label, want, got)

			wf, gf := want.Frontier(), got.Frontier()
			if len(wf) != len(gf) {
				t.Fatalf("%s: frontier lengths %d vs %d", label, len(wf), len(gf))
			}
			for i := range wf {
				if wf[i] != gf[i] {
					t.Errorf("%s: frontier[%d] %+v vs %+v", label, i, wf[i], gf[i])
				}
			}

			ws, gs := refOpt.Stats(), flatOpt.Stats()
			if ws.Calls != gs.Calls {
				t.Errorf("%s: what-if calls %d (reference) vs %d (flat)", label, ws.Calls, gs.Calls)
			}
			if ws.CacheHits != gs.CacheHits {
				t.Errorf("%s: cache hits %d (reference) vs %d (flat)", label, ws.CacheHits, gs.CacheHits)
			}
		}
	}
}

// TestDifferentialWriteWorkload covers the maintenance-cost terms: generated
// workloads with a write share exercise maintFor, dropUnused's maintenance
// threshold, and the maintCache pair tables on both backends.
func TestDifferentialWriteWorkload(t *testing.T) {
	for _, seed := range []int64{9, 31} {
		cfg := workload.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 14, 40
		cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, seed, 0.3
		w := workload.MustGenerate(cfg)
		m := costmodel.New(w, costmodel.SingleIndex)
		opts := Options{
			Budget:          m.Budget(0.5),
			TrackSecondBest: true,
			DropUnused:      true,
		}
		want, err := selectReference(w, whatiftest.New(m), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Select(w, whatif.New(m), opts)
		if err != nil {
			t.Fatal(err)
		}
		traceEqual(t, fmt.Sprintf("writes/seed%d", seed), want, got)
	}
}

// TestDifferentialExactEvaluation pins the exact path (a source declaring
// measured costs: no derived extension costs, no skeleton fill) to the
// reference as well: call counts change, equality of the trace must not.
func TestDifferentialExactEvaluation(t *testing.T) {
	w := workload.MustTPCC(10)
	m := costmodel.New(w, costmodel.SingleIndex)
	src := whatiftest.Measured{Source: m}
	opts := Options{Budget: m.Budget(0.5)}
	refOpt := whatiftest.New(src)
	want, err := selectReference(w, refOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	flatOpt := whatif.New(src)
	got, err := Select(w, flatOpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, "exact", want, got)
	if ws, gs := refOpt.Stats(), flatOpt.Stats(); ws.Calls != gs.Calls {
		t.Errorf("exact: what-if calls %d vs %d", ws.Calls, gs.Calls)
	}
}

// TestIncrementalMatchesFullRecomputation runs with TrackSecondBest so that
// the top-2 candidates of every construction step are exposed in the trace:
// if any cached gain deviated from a from-scratch recomputation, the chosen
// step or its runner-up (or their ratios) would differ somewhere along the
// trace. Write-heavy workloads exercise the maintenance terms too.
func TestIncrementalMatchesFullRecomputation(t *testing.T) {
	for _, writeShare := range []float64{0, 0.3} {
		for _, seed := range []int64{5, 19} {
			cfg := workload.DefaultGenConfig()
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 3, 15, 40
			cfg.RowsBase, cfg.Seed, cfg.WriteShare = 100_000, seed, writeShare
			w := workload.MustGenerate(cfg)
			m, _ := setup(w)
			opts := Options{
				Budget:          m.Budget(0.5),
				TrackSecondBest: true,
				DropUnused:      true,
			}
			a, err := selectSweep(w, whatif.New(m), opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Select(w, whatif.New(m), opts)
			if err != nil {
				t.Fatal(err)
			}
			traceEqual(t, fmt.Sprintf("writeShare %v seed %d", writeShare, seed), a, b)
			// The incremental run's bookkeeping must still agree with a
			// from-scratch model evaluation of its final selection.
			if got, want := b.Cost, m.TotalCost(b.Selection); math.Abs(got-want) > 1e-6*want {
				t.Errorf("incremental cost %v != model %v", got, want)
			}
		}
	}
}

// TestDifferentialPriced pins priced runs to both oracles: the lazy loop,
// the uncached sweep and the string-keyed reference, which re-prices R on
// every whole candidate selection, must produce bit-identical traces, stop
// reasons and runner-ups. Each price times any byte count is exact in
// float64, so the per-step charge equals the whole-selection difference bit
// for bit. The deployed set is every other index of an unpriced run, so
// candidates carry both positive and negative charges.
func TestDifferentialPriced(t *testing.T) {
	features := []Options{
		{},
		{TrackSecondBest: true, DropUnused: true},
		{PairSteps: true, PairLimit: 40, TrackSecondBest: true},
	}
	for name, w := range diffWorkloads(t) {
		m := costmodel.New(w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		free, err := Select(w, whatif.New(m), Options{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		deployed := everyOther(free.Selection)
		for _, price := range []float64{1, 5e3, 1e6} {
			stepped := false
			for fi, feat := range features {
				label := fmt.Sprintf("%s/price%g/feature%d", name, price, fi)
				opts := feat
				opts.Budget = budget
				opts.Reconfig = Reconfig{Deployed: deployed, CreatePerByte: price}

				lazy, err := Select(w, whatif.New(m), opts)
				if err != nil {
					t.Fatalf("%s: lazy: %v", label, err)
				}
				sweep, err := selectSweep(w, whatif.New(m), opts)
				if err != nil {
					t.Fatalf("%s: sweep: %v", label, err)
				}
				ref, err := selectReference(w, whatiftest.New(m), opts)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				traceEqual(t, label+" lazy vs sweep", sweep, lazy)
				traceEqual(t, label+" lazy vs reference", ref, lazy)
				if lazy.StopReason != sweep.StopReason || lazy.StopReason != ref.StopReason {
					t.Errorf("%s: stop reasons lazy %v, sweep %v, reference %v",
						label, lazy.StopReason, sweep.StopReason, ref.StopReason)
				}
				if lazy.Evaluated > sweep.Evaluated {
					t.Errorf("%s: lazy evaluated %d candidates, sweep only %d", label, lazy.Evaluated, sweep.Evaluated)
				}
				stepped = stepped || len(lazy.Steps) > 0
			}
			if !stepped {
				t.Errorf("%s: no priced run at %g/byte took a step", name, price)
			}
		}
	}
}
