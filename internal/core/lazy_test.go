package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/whatif"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// TestDifferentialLazyVsSweep is the lazy loop's exactness contract: on ERP
// and TPC-C, across feature combinations, the lazy default must produce
// bit-identical step traces, frontiers, and candidate universes versus the
// uncached sweep — while never evaluating more candidates.
func TestDifferentialLazyVsSweep(t *testing.T) {
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
			want, err := selectSweep(w, whatif.New(m), opts)
			if err != nil {
				t.Fatalf("%s: sweep: %v", label, err)
			}
			got, err := Select(w, whatif.New(m), opts)
			if err != nil {
				t.Fatalf("%s: lazy: %v", label, err)
			}

			traceEqual(t, label, want, got)
			if want.StopReason != got.StopReason {
				t.Errorf("%s: stop reason %v (sweep) vs %v (lazy)", label, want.StopReason, got.StopReason)
			}

			wf, gf := want.Frontier(), got.Frontier()
			if len(wf) != len(gf) {
				t.Fatalf("%s: frontier lengths %d vs %d", label, len(wf), len(gf))
			}
			for i := range wf {
				if wf[i] != gf[i] {
					t.Errorf("%s: frontier[%d] %+v vs %+v", label, i, wf[i], gf[i])
				}
			}

			// Same candidate universe per step (the lazy bucket stores must
			// enumerate exactly what the sweep enumerates), and the bounds
			// must only ever save work, never add it.
			for i := range got.Steps {
				ws, gs := want.Steps[i], got.Steps[i]
				if ws.Candidates != gs.Candidates {
					t.Errorf("%s: step %d candidates %d (sweep) vs %d (lazy)",
						label, i, ws.Candidates, gs.Candidates)
				}
				if gs.Candidates != gs.Evaluated+gs.CacheServed+gs.Pruned {
					t.Errorf("%s: step %d lazy accounting %d != %d+%d+%d",
						label, i, gs.Candidates, gs.Evaluated, gs.CacheServed, gs.Pruned)
				}
				if ws.Pruned != 0 || ws.CacheServed != 0 || ws.Evaluated != ws.Candidates {
					t.Errorf("%s: step %d sweep accounting %d/%d/%d of %d, want every candidate evaluated",
						label, i, ws.Evaluated, ws.CacheServed, ws.Pruned, ws.Candidates)
				}
			}
			if got.Evaluated > want.Evaluated {
				t.Errorf("%s: lazy evaluated %d candidates, sweep only %d",
					label, got.Evaluated, want.Evaluated)
			}
		}
	}
}

// TestLazyEvaluatesAtMostSweepERP is the CI guard wired into the robustness
// job: on the ERP smoke workload the lazy loop must never evaluate more
// candidates than the uncached sweep, and must actually prune — the lazy
// loop's whole point — both unpriced and priced against a deployed set (every
// other index of the unpriced run, at the daemon's 5e3 per created byte). The
// per-step reduction is tracked in results/BENCH_core.json; this guard
// catches the regression class (bounds degenerating to full sweeps, or a
// priced run falling back to one) without benchmark noise.
func TestLazyEvaluatesAtMostSweepERP(t *testing.T) {
	cfg := workload.DefaultERPConfig()
	cfg.Tables, cfg.TotalAttrs, cfg.Queries = 20, 170, 90
	cfg.MinRows, cfg.MaxRows = 100_000, 5_000_000
	cfg.TotalExecutions = 1_000_000
	w := workload.MustGenerateERP(cfg)
	m := costmodel.New(w, costmodel.SingleIndex)
	opts := Options{Budget: m.Budget(0.5)}

	var deployed workload.Selection
	for _, price := range []float64{0, 5e3} {
		label := fmt.Sprintf("price %g", price)
		o := opts
		o.Reconfig = Reconfig{Deployed: deployed, CreatePerByte: price}
		sweep, err := selectSweep(w, whatif.New(m), o)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := Select(w, whatif.New(m), o)
		if err != nil {
			t.Fatal(err)
		}
		deployed = everyOther(lazy.Selection)
		if len(lazy.Steps) == 0 {
			t.Fatalf("%s: lazy run took no step on ERP smoke", label)
		}
		if lazy.Evaluated > sweep.Evaluated {
			t.Fatalf("%s: lazy evaluated %d candidates on ERP smoke, sweep only %d",
				label, lazy.Evaluated, sweep.Evaluated)
		}
		if lazy.Pruned == 0 {
			t.Errorf("%s: lazy pruned zero candidates on ERP smoke; bounds are degenerate", label)
		}
		// The sweep evaluates every candidate of every step, so the comparison
		// holds per step too, and the run totals must strictly favor lazy on ERP.
		for i := range lazy.Steps {
			if l, s := lazy.Steps[i].Evaluated, sweep.Steps[i].Evaluated; l > s {
				t.Errorf("%s: step %d: lazy evaluated %d candidates, sweep only %d", label, i, l, s)
			}
		}
		if lazy.Evaluated >= sweep.Evaluated {
			t.Errorf("%s: lazy evaluated %d total candidates on ERP smoke, not fewer than the sweep's %d",
				label, lazy.Evaluated, sweep.Evaluated)
		}
	}
}

// lazyCacheServedCeilingERPFull caps the candidates the lazy loop serves from
// cache over a whole run on the full-size ERP at budget share 0.5. Sentinels
// keyed by their buckets' exact ratios leave buckets of still-exact entries
// closed: 81 635 cache-served over 2 406 steps. Keyed by the loose stale
// bound, the same buckets open every step and serve 1 298 891; the ceiling,
// about twice the measured count, fails on that regression.
const lazyCacheServedCeilingERPFull = 170_000

// TestLazyCacheServedERPFull is the CI guard on the tight sentinel keys:
// the full-size ERP run (DefaultERPConfig, share 0.5) must stay under
// lazyCacheServedCeilingERPFull cache-served candidates. The count is a
// fixed function of the workload and options, so the guard has no noise.
func TestLazyCacheServedERPFull(t *testing.T) {
	w := workload.MustGenerateERP(workload.DefaultERPConfig())
	m := costmodel.New(w, costmodel.SingleIndex)
	res, err := Select(w, whatif.New(m), Options{Budget: m.Budget(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("full ERP run took no step")
	}
	if res.CacheServed > lazyCacheServedCeilingERPFull {
		t.Errorf("full ERP run served %d candidates from cache (%d steps, %d evaluated), ceiling %d: "+
			"buckets of exact entries are opened again",
			res.CacheServed, len(res.Steps), res.Evaluated, lazyCacheServedCeilingERPFull)
	}
}

// invariantRuns drives the lazy loop over workloads whose traces remove
// indexes (extensions replace their base; DropUnused evicts under writes)
// and apply pair steps, calling check at every step decision — that is,
// after every applied step and the drops that followed it — and once more on
// the final state.
func invariantRuns(t *testing.T, check func(label string, s *selector)) {
	t.Helper()
	cases := []struct {
		name string
		w    *workload.Workload
		opts Options
	}{
		{"writes", writeGen(t, 0.1, 21), Options{DropUnused: true, PairSteps: true, PairLimit: 30}},
		{"writes-heavy", writeGen(t, 0.3, 15), Options{DropUnused: true, PairSteps: true, PairLimit: 30, TrackSecondBest: true}},
		{"tpcc", workload.MustTPCC(20), Options{DropUnused: true, PairSteps: true}},
	}
	for _, c := range cases {
		m := costmodel.New(c.w, costmodel.SingleIndex)
		opts := c.opts
		opts.Budget = m.Budget(0.6)
		decisions := 0
		lazyAuditHook = func(s *selector) {
			decisions++
			check(fmt.Sprintf("%s/decision %d", c.name, decisions), s)
		}
		s := newSelector(c.w, whatif.New(m), opts)
		res, err := s.run()
		lazyAuditHook = nil
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name+"/final", s)
		kinds := map[StepKind]int{}
		for _, st := range res.Steps {
			kinds[st.Kind]++
		}
		if kinds[StepExtend] == 0 || (c.name != "tpcc" && (kinds[StepDrop] == 0 || kinds[StepNewPair] == 0)) {
			t.Errorf("%s: trace %v lacks the removals or pair steps the invariant needs", c.name, kinds)
		}
	}
}

// TestSelByLeadMatchesSortedSelection: the per-lead selection lists,
// concatenated in lead order, must be the selection sorted by canonical key
// — the order the selector used to obtain by sorting the whole selection
// every step, kept here as the oracle.
func TestSelByLeadMatchesSortedSelection(t *testing.T) {
	invariantRuns(t, func(label string, s *selector) {
		want := make([]selEntry, 0, s.sel.Len())
		for _, id := range s.sel.IDs() {
			want = append(want, selEntry{id: id, k: s.in.Index(id)})
		}
		sort.Slice(want, func(i, j int) bool {
			return workload.CompareIndexKeys(want[i].k, want[j].k) < 0
		})
		got := s.sortedSel()
		if len(got) != len(want) {
			t.Fatalf("%s: per-lead lists hold %d indexes, selection %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].id != want[i].id || got[i].k.Key() != want[i].k.Key() {
				t.Fatalf("%s: position %d holds %s, sorted selection %s", label, i, got[i].k.Key(), want[i].k.Key())
			}
		}
		for a, lst := range s.selByLead {
			for _, e := range lst {
				if e.k.Leading() != a {
					t.Fatalf("%s: index %s filed under lead %d", label, e.k.Key(), a)
				}
			}
		}
	})
}

// TestSentinelHeapMatchesFreshKeys: the persistent sentinel heap is re-keyed
// only for buckets whose inputs changed, so at every decision each bucket
// the step did not open must still be filed exactly as a fresh keying would
// file it now — present iff it has entries, at the same priority — and the
// running candidate total must equal a recount. While a bucket's epochs
// equal its tight-key stamp, the fresh key is recomputed from the entries:
// the largest priority an opening would push them at, and at least 0.
func TestSentinelHeapMatchesFreshKeys(t *testing.T) {
	invariantRuns(t, func(label string, s *selector) {
		lz := s.lazy
		opened := map[int32]bool{}
		for _, b := range lz.opened {
			opened[b] = true
		}
		total := 0
		for b := range lz.buckets {
			bk := &lz.buckets[b]
			total += len(bk.entries)
			in := lz.sentinels.pos[b] >= 0
			if opened[int32(b)] {
				if in {
					t.Fatalf("%s: opened bucket %d still has a sentinel", label, b)
				}
				continue
			}
			if in != (len(bk.entries) > 0) {
				t.Fatalf("%s: bucket %d with %d entries: sentinel present %t", label, b, len(bk.entries), in)
			}
			if !in {
				continue
			}
			want := math.Inf(1)
			switch {
			case bk.unevaled > 0 || !bk.hasAgg:
			case lz.extEpoch[b] == bk.tightExt && lz.newEpoch[b] == bk.tightNew:
				want = 0
				for _, e := range bk.entries {
					if p, push := openPrio(lz, e); push && p > want {
						want = p
					}
				}
			default:
				want = bk.agg + (lz.rise[b]-bk.aggRiseAt)/bk.minDM
			}
			if got := lz.sentinels.prio[b]; got != want {
				t.Fatalf("%s: bucket %d sentinel keyed %v, fresh key %v", label, b, got, want)
			}
		}
		if total != lz.total {
			t.Fatalf("%s: running total %d, recount %d", label, lz.total, total)
		}
	})
}

// openPrio is the priority at which opening e's bucket pushes e onto the
// entry heap, and false for an entry it does not push (dead, or epoch-exact
// and not viable).
func openPrio(lz *lazyState, e *lazyEntry) (float64, bool) {
	switch {
	case !e.evaluated:
		return math.Inf(1), true
	case e.dead:
		return 0, false
	case lz.epoch(e.key.kind, int(e.lead)) == e.epochAt:
		return e.cand.ratio, e.viable
	default:
		return lz.entryBound(e), true
	}
}

// boundShapeRuns drives the lazy loop over workload shapes, write shares,
// feature combinations and reconfiguration prices, installing hook(label) as
// the audit hook of each run so it fires after every step decision. Priced
// shapes deploy every other index of an unpriced run, so bounds carry
// positive and negative reconfiguration charges. Noisy shapes perturb every
// cost and evaluate extensions exactly, so an extension can cost a query
// more than its base — the case where another index starting to serve that
// query raises the extension's gain without raising any cost.
func boundShapeRuns(t *testing.T, hook func(label string) func(*selector)) {
	t.Helper()
	type shape struct {
		tables, attrs, queries int
		writeShare             float64
		feat                   Options
		price, noise           float64
		exact                  bool // source declares measured costs
	}
	shapes := []shape{
		{3, 14, 40, 0, Options{}, 0, 0, false},
		{3, 14, 40, 0.3, Options{TrackSecondBest: true, DropUnused: true}, 0, 0, false},
		{4, 12, 50, 0.2, Options{PairSteps: true, PairLimit: 30}, 0, 0, false},
		{2, 18, 35, 0.1, Options{TopNSingle: 5}, 0, 0, false},
		{3, 14, 40, 0, Options{}, 1e6, 0, false},
		{3, 14, 40, 0.3, Options{TrackSecondBest: true, DropUnused: true}, 5e3, 0, false},
		{4, 12, 50, 0.2, Options{PairSteps: true, PairLimit: 30}, 1, 0, false},
		{3, 14, 40, 0, Options{}, 0, 0.2, true},
		{3, 14, 40, 0.2, Options{DropUnused: true}, 0, 0.2, true},
	}
	for _, seed := range []int64{1, 7, 23, 61, 104} {
		for si, sh := range shapes {
			label := fmt.Sprintf("seed%d/shape%d", seed, si)
			cfg := workload.DefaultGenConfig()
			cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = sh.tables, sh.attrs, sh.queries
			cfg.RowsBase, cfg.Seed, cfg.WriteShare = 80_000, seed, sh.writeShare
			w := workload.MustGenerate(cfg)
			m, _ := setup(w)
			var src whatif.Source = m
			if sh.noise > 0 {
				src = whatiftest.NoisySource{Src: m, Eps: sh.noise, Seed: seed}
			}
			if sh.exact {
				src = whatiftest.Measured{Source: src}
			}
			opts := sh.feat
			opts.Budget = m.Budget(0.5)
			if sh.price > 0 {
				free, err := Select(w, whatif.New(src), Options{Budget: opts.Budget})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				opts.Reconfig = Reconfig{Deployed: everyOther(free.Selection), CreatePerByte: sh.price}
			}

			decisions := 0
			check := hook(label)
			lazyAuditHook = func(s *selector) {
				decisions++
				check(s)
			}
			_, err := Select(w, whatif.New(src), opts)
			lazyAuditHook = nil
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if decisions == 0 {
				t.Fatalf("%s: audit hook never fired", label)
			}
		}
	}
}

// TestLazyBoundsDominateFreshGains is the bound-soundness property, fuzzed
// over the boundShapeRuns shapes: after every step decision, every
// candidate's stale upper bound must be >= its freshly evaluated ratio
// against the same frozen state, and every epoch-exact cache entry must
// equal a from-scratch recomputation bit for bit. Violations name the
// offending candidate key.
func TestLazyBoundsDominateFreshGains(t *testing.T) {
	boundShapeRuns(t, func(label string) func(*selector) {
		violations := 0
		return auditLazyStep(func(a lazyAuditInfo) {
			if violations >= 5 {
				return // enough diagnostics
			}
			key := fmt.Sprintf("%v %s", a.task.kind, a.task.index.Key())
			if a.fresh.ok && a.bound < a.fresh.c.ratio {
				violations++
				t.Errorf("%s: candidate %s: stale bound %v < fresh ratio %v",
					label, key, a.bound, a.fresh.c.ratio)
			}
			if a.exact {
				if a.cached.ok != a.fresh.ok {
					violations++
					t.Errorf("%s: candidate %s: exact entry viability %v, fresh %v",
						label, key, a.cached.ok, a.fresh.ok)
				} else if a.cached.ok &&
					(a.cached.c.gain != a.fresh.c.gain || a.cached.c.ratio != a.fresh.c.ratio) {
					violations++
					t.Errorf("%s: candidate %s: exact entry (gain %v, ratio %v) != fresh (%v, %v)",
						label, key, a.cached.c.gain, a.cached.c.ratio, a.fresh.c.gain, a.fresh.c.ratio)
				}
			}
		})
	})
}

// TestSentinelKeysDominateFreshRatios is the sentinel-level soundness
// property over the boundShapeRuns shapes: after every step decision, every
// bucket still filed in the sentinel heap (not opened by the step) must be
// keyed at least as high as the freshly evaluated ratio of each of its
// viable entries — otherwise the cut could skip a bucket holding the step's
// true winner. It catches a tight key kept past the epoch bump that voids
// it.
func TestSentinelKeysDominateFreshRatios(t *testing.T) {
	boundShapeRuns(t, func(label string) func(*selector) {
		violations := 0
		return func(s *selector) {
			lz := s.lazy
			for _, b := range lz.sentinels.items {
				prio := lz.sentinels.prio[b]
				if math.IsInf(prio, 1) {
					continue
				}
				for _, e := range lz.buckets[b].entries {
					fresh := s.evalCandidate(e.task)
					if fresh.ok && prio < fresh.c.ratio && violations < 5 {
						violations++
						t.Errorf("%s: bucket %d keyed %v (tight %t) < fresh ratio %v of %v %s",
							label, b, prio, lz.buckets[b].tight, fresh.c.ratio, e.key.kind, e.task.index.Key())
					}
				}
			}
		}
	})
}

// lazyAuditInfo is what an audit reports for every candidate after a step
// decision: the bound the loop would price it at and a from-scratch
// evaluation against the same frozen state.
type lazyAuditInfo struct {
	task   evalTask
	bound  float64
	exact  bool // the entry's epoch matched (served from cache)
	cached gainEntry
	fresh  gainEntry
}

// auditLazyStep returns a lazyAuditHook that re-evaluates every candidate
// against the still-frozen state and reports each bound/fresh pair.
// Quadratic in intent, deliberately unbatched and serial.
func auditLazyStep(report func(lazyAuditInfo)) func(*selector) {
	return func(s *selector) {
		lz := s.lazy
		for b := range lz.buckets {
			for _, e := range lz.buckets[b].entries {
				if !e.evaluated {
					continue // fully evaluated this step unless the run stopped
				}
				info := lazyAuditInfo{
					task:   e.task,
					cached: gainEntry{c: e.cand, ok: e.viable, optGain: e.optGain},
					fresh:  s.evalCandidate(e.task),
				}
				switch {
				case e.dead:
					info.bound = math.Inf(-1)
				case lz.epoch(e.key.kind, b) == e.epochAt:
					info.exact = true
					info.bound = e.cand.ratio
				default:
					info.bound = lz.entryBound(e)
				}
				report(info)
			}
		}
	}
}
