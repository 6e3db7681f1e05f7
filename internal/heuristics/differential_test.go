package heuristics

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/candidates"
	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// sqlWritesShape is the Appendix-C write workload: tables x attrs x 50
// templates per table, a fifth of them writes (full-row inserts and
// updates).
func sqlWritesShape(t *testing.T, tables, attrs int, seed int64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.Tables, cfg.AttrsPerTable, cfg.Seed, cfg.WriteShare = tables, attrs, seed, 0.2
	return workload.MustGenerate(cfg)
}

// TestInternedScoringMatchesReference: H4 and H5, with and without the
// skyline filter, score, rank, select and cost exactly like the original
// by-value path, and spend the same number of what-if calls, on H1-M
// candidate sets of the sql-writes shape and a read-only workload.
func TestInternedScoringMatchesReference(t *testing.T) {
	type named struct {
		name  string
		w     *workload.Workload
		total int
	}
	var ws []named
	for seed := int64(1); seed <= 3; seed++ {
		ws = append(ws, named{fmt.Sprintf("sql-writes-small-s%d", seed), sqlWritesShape(t, 3, 12, seed), 2000})
	}
	ws = append(ws,
		named{"sql-writes-s1", sqlWritesShape(t, 10, 30, 1), 15000},
		named{"read-only", gen(t, 3, 15, 30, 50_000, 4), 1000})
	for _, nw := range ws {
		set, err := candidates.Enumerate(nw.w, candidates.MaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := set.Select(candidates.H1M, nw.total)
		if err != nil {
			t.Fatal(err)
		}
		m := costmodel.New(nw.w, costmodel.SingleIndex)
		budget := m.Budget(0.5)
		for _, rule := range []Rule{H4, H5} {
			for _, skyline := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/skyline=%t", nw.name, rule, skyline)
				refOpt := whatif.New(m)
				ref := selectReference(nw.w, refOpt, cands, rule, budget, skyline)

				opt := whatif.New(m)
				res, err := Select(nw.w, opt, cands, rule, Options{Budget: budget, Skyline: skyline})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Selection.Sorted(), ref.sel.Sorted()) {
					t.Fatalf("%s: selection differs from the reference", name)
				}
				if math.Float64bits(res.Cost) != math.Float64bits(ref.cost) || res.Memory != ref.memory {
					t.Fatalf("%s: cost %v memory %d, reference %v %d", name, res.Cost, res.Memory, ref.cost, ref.memory)
				}
				if res.Considered != len(ref.pool) {
					t.Fatalf("%s: considered %d, reference %d", name, res.Considered, len(ref.pool))
				}
				if got, want := opt.Stats().Calls, refOpt.Stats().Calls; got != want {
					t.Fatalf("%s: %d what-if calls, reference %d", name, got, want)
				}

				// Scores and ranking on a fresh optimizer.
				opt = whatif.New(m)
				ids := make([]workload.IndexID, len(ref.pool))
				for i, k := range ref.pool {
					ids[i] = opt.Interner().Intern(k)
				}
				scores := newProber(nw.w, opt).score(ref.pool, ids, rule, nil)
				for i := range scores {
					if math.Float64bits(scores[i]) != math.Float64bits(ref.scores[i]) {
						t.Fatalf("%s: candidate %s scores %v, reference %v", name, ref.pool[i].Key(), scores[i], ref.scores[i])
					}
				}
				if !reflect.DeepEqual(byScore(ref.pool, scores), ref.order) {
					t.Fatalf("%s: ranking differs from the reference", name)
				}
			}
		}
	}
}
