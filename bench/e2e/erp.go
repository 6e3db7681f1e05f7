package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	indexsel "repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/whatif"
)

// erp-extend: the paper's flagship scale. The default ERP generator (500
// tables, 4204 attributes, 2271 read-only templates) read from JSON; every
// timed select is Algorithm 1 (StrategyExtend) at budget share 0.5 on a fresh
// advisor with a cold what-if cache. core's lazy heap does most of the work,
// costmodel comes second; the maintenance, fleet and service layers idle.
var erpWorkload = &workloadDef{
	name:     wERP,
	why:      "ERP scale (2271 read-only templates), one Extend select per op: core and costmodel do the work; maintenance, fleet and service stay idle",
	generate: genERP,
	measure:  measureERP,
	traced:   traceERP,
}

const erpBudgetShare = 0.5

func readWorkloadFile(path string) (*indexsel.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return indexsel.ReadWorkload(f)
}

func loadERP(r *runner) (*indexsel.Workload, error) {
	end := r.span("workload.read")
	w, err := readWorkloadFile(filepath.Join(r.inputs, "erp.json"))
	end()
	if err != nil {
		return nil, err
	}
	// The advisor's construction (the cost model) is part of set-up; each
	// timed select builds its own advisor outside the timed interval.
	indexsel.NewAdvisor(w, indexsel.WithBudgetShare(erpBudgetShare))
	return w, nil
}

// extendOnce runs one select on a fresh advisor and checks it. With traced
// set (traced runs only) the advisor runs with the program's telemetry on
// and its spans, one per construction step, are adopted under the select's
// span.
func extendOnce(r *runner, w *indexsel.Workload, parallelism int, traced bool) (*indexsel.Recommendation, time.Duration, error) {
	opts := []indexsel.Option{indexsel.WithBudgetShare(erpBudgetShare), indexsel.WithParallelism(parallelism)}
	var tel *indexsel.Telemetry
	if traced {
		tel = r.telemetry()
		opts = append(opts, indexsel.WithTelemetry(tel))
	}
	ad := indexsel.NewAdvisor(w, opts...)
	id, end := r.open("advisor.select")
	start := time.Now()
	rec, err := ad.SelectContext(context.Background(), indexsel.StrategyExtend)
	d := time.Since(start)
	end()
	r.adopt(tel, id)
	if err != nil {
		r.attempt(true)
		return nil, d, fmt.Errorf("extend select: %w", err)
	}
	r.attempt(rec.Partial)
	r.check(rec.Memory <= rec.Budget, "extend memory %d exceeds budget %d", rec.Memory, rec.Budget)
	return rec, d, nil
}

func costRatio(rec *indexsel.Recommendation) float64 { return rec.Cost / rec.BaseCost }

func measureERP(r *runner) error {
	w, err := setup(r, func() (*indexsel.Workload, error) { return loadERP(r) }, nil)
	if err != nil {
		return err
	}
	// Warm-up: a serial select, which also fixes the reference result that
	// every parallel select must reproduce bit for bit.
	ref, _, err := extendOnce(r, w, 1, false)
	if err != nil {
		return err
	}
	var times []float64
	err = r.loop(3, true, func(int) error {
		rec, d, err := extendOnce(r, w, r.nproc, false)
		if err != nil {
			return err
		}
		times = append(times, d.Seconds())
		r.check(costRatio(rec) == costRatio(ref) && len(rec.Steps) == len(ref.Steps),
			"extend at P=%d gave cost ratio %v in %d steps, P=1 gave %v in %d", r.nproc, costRatio(rec), len(rec.Steps), costRatio(ref), len(ref.Steps))
		return nil
	})
	if err != nil {
		return err
	}
	r.set(mLatency, median(times)*1e3, "ms")
	r.set(mThroughput, float64(len(times))/sum(times), "1/s")
	r.timing("extend_s", times, "s")
	r.note("extend_cost_ratio", costRatio(ref), "ratio")
	r.note("extend_steps", float64(len(ref.Steps)), "count")
	return nil
}

// coreRun is one direct core.Select call: its span and result, the timed
// source's accounting (timed runs only) and the bytes it allocated.
type coreRun struct {
	sp      span
	res     *core.Result
	src     *timedSource
	opt     *whatif.Optimizer
	allocMB float64
}

// runCore calls core.Select over a fresh Appendix-B cost model, the way the
// advisor does, under a span called name.
func runCore(r *runner, name string, w *indexsel.Workload, budget int64, parallelism int, timed bool) (*coreRun, error) {
	cr := &coreRun{}
	var src whatif.Source = costmodel.New(w, costmodel.SingleIndex)
	if timed {
		cr.src = &timedSource{src: src, keepCalls: true}
		src = cr.src
	}
	cr.opt = whatif.New(src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := r.span(name)
	res, err := core.Select(w, cr.opt, core.Options{Budget: budget, Parallelism: parallelism})
	cr.sp = end()
	runtime.ReadMemStats(&after)
	r.attempt(err != nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cr.res = res
	cr.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return cr, nil
}

func whatifMetrics(r *runner, st indexsel.WhatIfStats) {
	r.set("whatif.calls", float64(st.Calls), "count")
	r.set("whatif.hit_rate", hitRate(st), "ratio")
	r.set("whatif.cache_entries", float64(st.IndexCacheEntries), "count")
}

func hitRate(st indexsel.WhatIfStats) float64 {
	if st.Calls+st.CacheHits == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(st.Calls+st.CacheHits)
}

func traceERP(r *runner) error {
	w, err := setup(r, func() (*indexsel.Workload, error) { return loadERP(r) }, nil)
	if err != nil {
		return err
	}
	budget := indexsel.NewAdvisor(w, indexsel.WithBudgetShare(erpBudgetShare)).Budget()
	if _, _, err := extendOnce(r, w, r.nproc, false); err != nil { // warm-up
		return err
	}
	var plain, traced, self, busy, alloc []float64
	var last *coreRun
	err = r.loop(1, true, func(int) error {
		_, d, err := extendOnce(r, w, r.nproc, false)
		if err != nil {
			return err
		}
		plain = append(plain, d.Seconds())
		runtime.GC()
		_, d, err = extendOnce(r, w, r.nproc, true)
		if err != nil {
			return err
		}
		traced = append(traced, d.Seconds())
		runtime.GC()
		cr, err := runCore(r, "core.select.p1", w, budget, 1, true)
		if err != nil {
			return err
		}
		busy = append(busy, cr.src.busyTime().Seconds())
		self = append(self, spanSelf(cr.sp, cr.src.callIntervals()).Seconds())
		alloc = append(alloc, cr.allocMB)
		last = cr
		runtime.GC()
		cn, err := runCore(r, "core.select", w, budget, r.nproc, false)
		if err != nil {
			return err
		}
		r.check(cn.res.Cost == cr.res.Cost && len(cn.res.Steps) == len(cr.res.Steps),
			"core.Select at P=%d differs from P=1", r.nproc)
		return nil
	})
	if err != nil {
		return err
	}
	res := last.res
	p1, pn := r.tr.seconds("core.select.p1"), r.tr.seconds("core.select")
	r.set("workload.read_s", median(r.tr.seconds("workload.read")), "s")
	r.set("costmodel.busy_s", median(busy), "s")
	r.set("costmodel.cost_calls", float64(last.src.costCalls.Load()), "count")
	r.set("costmodel.maint_calls", float64(last.src.maintCalls.Load()), "count")
	whatifMetrics(r, last.opt.Stats())
	r.set("core.select_s", median(pn), "s")
	r.set("core.select_p1_s", median(p1), "s")
	r.set("core.speedup", median(p1)/median(pn), "ratio")
	r.set("core.self_s", median(self), "s")
	steps := math.Max(1, float64(len(res.Steps)))
	r.set("core.steps", float64(len(res.Steps)), "count")
	r.set("core.evaluated_per_step", float64(res.Evaluated)/steps, "count")
	r.set("core.cache_served", float64(res.CacheServed), "count")
	r.set("core.pruned", float64(res.Pruned), "count")
	r.set("core.alloc_mb", median(alloc), "MB")
	r.set("telemetry.overhead", median(traced)/median(plain), "ratio")
	r.timing("extend_s", plain, "s")
	r.timing("extend_traced_s", traced, "s")
	return nil
}
