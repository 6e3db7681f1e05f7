package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	indexsel "repro"
	"repro/internal/costmodel"
	"repro/internal/heuristics"
	"repro/internal/whatif"
)

// sql-writes: an Appendix-C workload (10 tables x 30 attributes x 50
// templates) with a fifth of the templates writes, entering through the SQL
// log parser. One op advises three ways on fresh advisors: Extend, H5 over
// 15 000 H1-M candidates, and CoPhy over 500 H1-M candidates (from about
// 1 000 candidates CoPhy stops solving within its gap on some seeds). core
// does little here; sqllog, candidates, heuristics, lp and the what-if
// maintenance path do most of the work.
var sqlWorkload = &workloadDef{
	name:     wSQL,
	why:      "SQL log with 20% writes, each op advises with Extend, H5 and CoPhy: parser, candidates, heuristics, lp and index maintenance work; core does little",
	generate: genSQL,
	measure:  measureSQL,
	traced:   traceSQL,
}

const (
	sqlBudgetShare = 0.5
	h5Candidates   = 15000
	cophyCands     = 500
	cophyGap       = 0.05
	cophyLimit     = 20 * time.Second
)

func loadSQL(r *runner) (*indexsel.Workload, error) {
	raw, err := os.ReadFile(filepath.Join(r.inputs, "workload.sql"))
	if err != nil {
		return nil, err
	}
	end := r.span("sqllog.parse")
	w, err := indexsel.ParseSQL(strings.NewReader(string(raw)))
	end()
	if err != nil {
		return nil, err
	}
	indexsel.NewAdvisor(w, indexsel.WithBudgetShare(sqlBudgetShare))
	return w, nil
}

// advice is one op's three recommendations, their timings and candidate
// counts.
type advice struct {
	extend, h5, cophy    *indexsel.Recommendation
	extendT, h5T, cophyT time.Duration
	h5Cands, cophyCands  int
}

func (a *advice) total() time.Duration { return a.extendT + a.h5T + a.cophyT }

// advise runs the three strategies, each on a fresh advisor. Candidate-set
// construction counts towards the strategy that needs it. With traced set
// (traced runs only) every advisor runs with the program's telemetry and
// provenance on, and its spans are adopted under one span per strategy.
func advise(r *runner, w *indexsel.Workload, parallelism int, traced bool) (*advice, error) {
	var a advice
	run := func(name string, s indexsel.Strategy, cands []indexsel.Index, extra ...indexsel.Option) (*indexsel.Recommendation, error) {
		opts := []indexsel.Option{indexsel.WithBudgetShare(sqlBudgetShare), indexsel.WithParallelism(parallelism)}
		if cands != nil {
			opts = append(opts, indexsel.WithCandidates(cands))
		}
		var tel *indexsel.Telemetry
		if traced {
			tel = r.telemetry()
			opts = append(opts, indexsel.WithTelemetry(tel), indexsel.WithExplain())
		}
		id, end := r.open("advisor." + name)
		rec, err := indexsel.NewAdvisor(w, append(opts, extra...)...).Select(s)
		end()
		r.adopt(tel, id)
		if err != nil {
			r.attempt(true)
			return nil, fmt.Errorf("%s select: %w", name, err)
		}
		r.attempt(rec.Partial)
		r.check(rec.Memory <= rec.Budget, "%s memory %d exceeds budget %d", name, rec.Memory, rec.Budget)
		return rec, nil
	}
	candidates := func(n int) ([]indexsel.Index, error) {
		end := r.span("candidates.select")
		c, err := indexsel.CandidateSet(w, indexsel.CandidatesByFrequency, n, 4)
		end()
		return c, err
	}

	var err error
	start := time.Now()
	if a.extend, err = run("extend", indexsel.StrategyExtend, nil); err != nil {
		return nil, err
	}
	a.extendT = time.Since(start)

	start = time.Now()
	cands, err := candidates(h5Candidates)
	if err != nil {
		return nil, err
	}
	a.h5Cands = len(cands)
	if a.h5, err = run("h5", indexsel.StrategyH5, cands); err != nil {
		return nil, err
	}
	a.h5T = time.Since(start)

	start = time.Now()
	if cands, err = candidates(cophyCands); err != nil {
		return nil, err
	}
	a.cophyCands = len(cands)
	if a.cophy, err = run("cophy", indexsel.StrategyCoPhy, cands,
		indexsel.WithGap(cophyGap), indexsel.WithTimeLimit(cophyLimit)); err != nil {
		return nil, err
	}
	a.cophyT = time.Since(start)
	r.check(!a.cophy.DNF && a.cophy.Gap <= cophyGap, "cophy did not solve within gap %g: dnf=%t gap=%g", cophyGap, a.cophy.DNF, a.cophy.Gap)
	return &a, nil
}

// sameAdvice checks that an op reproduced the reference cost ratios bit for
// bit.
func sameAdvice(r *runner, ref, a *advice, what string) {
	for _, p := range []struct {
		name   string
		ref, a *indexsel.Recommendation
	}{{"extend", ref.extend, a.extend}, {"h5", ref.h5, a.h5}, {"cophy", ref.cophy, a.cophy}} {
		r.check(costRatio(p.a) == costRatio(p.ref), "%s cost ratio %v differs from the reference %v (%s)", p.name, costRatio(p.a), costRatio(p.ref), what)
	}
}

func loadCheckedSQL(r *runner) (*indexsel.Workload, error) {
	w, err := setup(r, func() (*indexsel.Workload, error) { return loadSQL(r) }, nil)
	if err != nil {
		return nil, err
	}
	var want sqlExpect
	if err := readJSON(filepath.Join(r.inputs, "expect.json"), &want); err != nil {
		return nil, err
	}
	r.check(len(w.Queries) == want.Templates && w.TotalFreq() == want.TotalFreq,
		"parsed %d templates of total frequency %d, generated %d of %d", len(w.Queries), w.TotalFreq(), want.Templates, want.TotalFreq)
	return w, nil
}

func measureSQL(r *runner) error {
	w, err := loadCheckedSQL(r)
	if err != nil {
		return err
	}
	ref, err := advise(r, w, 1, false) // warm-up and the serial reference
	if err != nil {
		return err
	}
	var reps, ext, h5, cp []float64
	err = r.loop(3, true, func(int) error {
		a, err := advise(r, w, r.nproc, false)
		if err != nil {
			return err
		}
		sameAdvice(r, ref, a, fmt.Sprintf("P=%d against P=1", r.nproc))
		reps = append(reps, a.total().Seconds())
		ext = append(ext, a.extendT.Seconds())
		h5 = append(h5, a.h5T.Seconds())
		cp = append(cp, a.cophyT.Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	r.set(mLatency, median(reps)*1e3, "ms")
	r.set(mThroughput, float64(len(reps))/sum(reps), "1/s")
	r.timing("extend_s", ext, "s")
	r.timing("h5_s", h5, "s")
	r.timing("cophy_s", cp, "s")
	r.note("extend_cost_ratio", costRatio(ref.extend), "ratio")
	r.note("h5_cost_ratio", costRatio(ref.h5), "ratio")
	r.note("cophy_cost_ratio", costRatio(ref.cophy), "ratio")
	r.note("cophy_gap", ref.cophy.Gap, "ratio")
	r.note("h5_candidates", float64(ref.h5Cands), "count")
	r.note("cophy_candidates", float64(ref.cophyCands), "count")
	r.note("templates", float64(len(w.Queries)), "count")
	return nil
}

func traceSQL(r *runner) error {
	w, err := loadCheckedSQL(r)
	if err != nil {
		return err
	}
	budget := indexsel.NewAdvisor(w, indexsel.WithBudgetShare(sqlBudgetShare)).Budget()
	ref, err := advise(r, w, 1, false)
	if err != nil {
		return err
	}
	var plain, traced, busy, self []float64
	var solve *indexsel.SolveProvenance
	var h5src *timedSource
	var h5opt *whatif.Optimizer
	err = r.loop(1, true, func(int) error {
		a, err := advise(r, w, r.nproc, false)
		if err != nil {
			return err
		}
		plain = append(plain, a.total().Seconds())
		runtime.GC()

		// The same op with the program's telemetry and provenance on: its
		// spans give CoPhy's build and solve times, its provenance the
		// solver's node count and gap.
		a, err = advise(r, w, r.nproc, true)
		if err != nil {
			return err
		}
		traced = append(traced, a.total().Seconds())
		sameAdvice(r, ref, a, "traced")
		if a.cophy.Provenance != nil {
			solve = a.cophy.Provenance.Solve
		}
		runtime.GC()

		// H5 alone over a timed cost model: the heuristic's own time is
		// its span minus the time spent inside the cost model.
		cands, err := indexsel.CandidateSet(w, indexsel.CandidatesByFrequency, h5Candidates, 4)
		if err != nil {
			return err
		}
		h5src = &timedSource{src: costmodel.New(w, costmodel.SingleIndex), keepCalls: true}
		h5opt = whatif.New(h5src)
		end := r.span("heuristics.select")
		res, err := heuristics.Select(w, h5opt, cands, heuristics.H5, heuristics.Options{Budget: budget})
		sp := end()
		r.attempt(err != nil)
		if err != nil {
			return fmt.Errorf("heuristics.Select: %w", err)
		}
		r.check(res.Cost/ref.h5.BaseCost == costRatio(ref.h5), "heuristics.Select H5 differs from the advisor's H5")
		busy = append(busy, h5src.busyTime().Seconds())
		self = append(self, spanSelf(sp, h5src.callIntervals()).Seconds())
		runtime.GC()

		_, err = runCore(r, "core.select", w, budget, r.nproc, false)
		return err
	})
	if err != nil {
		return err
	}
	r.set("sqllog.parse_s", median(r.tr.seconds("sqllog.parse")), "s")
	r.set("candidates.select_s", median(r.tr.seconds("candidates.select")), "s")
	r.set("heuristics.select_s", median(r.tr.seconds("heuristics.select")), "s")
	r.set("heuristics.self_s", median(self), "s")
	r.set("costmodel.busy_s", median(busy), "s")
	r.set("costmodel.cost_calls", float64(h5src.costCalls.Load()), "count")
	r.set("costmodel.maint_calls", float64(h5src.maintCalls.Load()), "count")
	whatifMetrics(r, h5opt.Stats())
	r.set("core.select_s", median(r.tr.seconds("core.select")), "s")
	r.set("cophy.build_s", median(r.tr.seconds("cophy.build")), "s")
	r.set("cophy.solve_s", median(r.tr.seconds("cophy.solve")), "s")
	if solve == nil {
		return fmt.Errorf("cophy returned no provenance under WithExplain")
	}
	dnf := 0.0
	if solve.DNF {
		dnf = 1
	}
	r.set("lp.nodes", float64(solve.Nodes), "count")
	r.set("cophy.gap", solve.Gap, "ratio")
	r.set("cophy.dnf", dnf, "count")
	r.set("telemetry.overhead", median(traced)/median(plain), "ratio")
	r.timing("advice_s", plain, "s")
	r.timing("advice_traced_s", traced, "s")
	return nil
}
