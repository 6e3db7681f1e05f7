package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/explain"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// The lazy loop's accounting golden. The differential tests prove the lazy
// loop decides every step like the sweep; they do not pin HOW it got there.
// This test does: for every decision of a run it records the applied step,
// the Candidates/Evaluated/CacheServed/Pruned split, the peak heap depth
// (indexsel_lazy_heap_depth), the runner-up and a digest of the prune
// ledger, and compares the lot against testdata. Any change in the heap's
// pop order — which candidates get evaluated before the cut, which stay
// pruned, which bucket sentinels are never opened — shows up here even when
// the decided trace is unchanged. A change that
// alters the pop order on purpose rewrites testdata/lazy_golden_*.txt from
// lazyGoldenTrace and says why.

type goldenCase struct {
	name string
	w    *workload.Workload
	opts Options
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	// The scaled ERP of selectBenchCases, at its frontier budget.
	erpCfg := workload.DefaultERPConfig()
	erpCfg.Tables, erpCfg.TotalAttrs, erpCfg.Queries = 60, 500, 280
	erpCfg.MinRows, erpCfg.MaxRows = 50_000, 2_000_000
	erpCfg.TotalExecutions = 1_000_000
	erp := workload.MustGenerateERP(erpCfg)
	tpcc := workload.MustTPCC(20)
	writes := writeGen(t, 0.1, 21)
	budget := func(w *workload.Workload, share float64) int64 {
		return costmodel.New(w, costmodel.SingleIndex).Budget(share)
	}
	return []goldenCase{
		{"erp", erp, Options{Budget: budget(erp, 0.8)}},
		{"tpcc", tpcc, Options{Budget: budget(tpcc, 0.8)}},
		{"writes-drop-pairs", writes, Options{Budget: budget(writes, 0.6),
			DropUnused: true, PairSteps: true, PairLimit: 30}},
	}
}

// lazyGoldenTrace runs c with Explain on and renders every decision as one
// line of text.
func lazyGoldenTrace(t *testing.T, c goldenCase) string {
	t.Helper()
	var depths []float64
	lazyAuditHook = func(*selector) { depths = append(depths, mLazyHeapDepth.Value()) }
	defer func() { lazyAuditHook = nil }()

	opts := c.opts
	opts.Explain = true
	m := costmodel.New(c.w, costmodel.SingleIndex)
	res, err := Select(c.w, whatif.New(m), opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}

	var b strings.Builder
	decision := 0
	for i, st := range res.Steps {
		fmt.Fprintf(&b, "step %d %s %s", i, st.Kind, st.Index.Key())
		if st.Replaced != nil {
			fmt.Fprintf(&b, " from %s", st.Replaced.Key())
		}
		fmt.Fprintf(&b, " ratio %x cost %x mem %d", st.Ratio, st.CostAfter, st.MemAfter)
		if st.Kind != StepDrop {
			fmt.Fprintf(&b, " | cand %d eval %d cached %d pruned %d depth %g",
				st.Candidates, st.Evaluated, st.CacheServed, st.Pruned, depths[decision])
			decision++
		}
		p := res.Provenance[i]
		if p.RunnerUp != nil {
			fmt.Fprintf(&b, " | runner-up %s %s %x", p.RunnerUp.Kind, p.RunnerUp.Index, p.RunnerUp.Ratio)
		}
		if p.LedgerBuckets > 0 || p.LedgerSkipped > 0 {
			fmt.Fprintf(&b, " | ledger %d %d %t %s",
				p.LedgerBuckets, p.LedgerSkipped, p.LedgerTruncated, ledgerDigest(p.PruneLedger))
		}
		b.WriteByte('\n')
	}
	for ; decision < len(depths); decision++ {
		fmt.Fprintf(&b, "final decision depth %g\n", depths[decision])
	}
	fmt.Fprintf(&b, "total eval %d cached %d pruned %d stop %s cost %x mem %d\n",
		res.Evaluated, res.CacheServed, res.Pruned, res.StopReason, res.Cost, res.Memory)
	return b.String()
}

// ledgerDigest condenses a prune ledger to a short hash over every field.
func ledgerDigest(ledger []explain.PrunedBucket) string {
	h := sha256.New()
	for _, pb := range ledger {
		fmt.Fprintf(h, "%d %x %d %d %d %t;", pb.Lead, pb.Bound, pb.Epoch, pb.Entries, pb.Skipped, pb.Opened)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestLazyAccountingGolden(t *testing.T) {
	for _, c := range goldenCases(t) {
		path := filepath.Join("testdata", "lazy_golden_"+c.name+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantLines := strings.Split(string(want), "\n")
		gotLines := strings.Split(lazyGoldenTrace(t, c), "\n")
		for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
			var w, g string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if w != g {
				t.Errorf("%s: line %d differs from %s\n got: %s\nwant: %s", c.name, i+1, path, g, w)
				break
			}
		}
	}
}
