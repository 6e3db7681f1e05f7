// Command indexadvisor recommends a multi-attribute index configuration for
// a workload described in the JSON interchange format (see cmd/workloadgen
// to produce one).
//
// Usage:
//
//	indexadvisor -workload w.json -budget-share 0.2
//	indexadvisor -workload w.json -strategy cophy -candidates 1000 -gap 0.05
//	indexadvisor -workload w.json -strategy h5 -budget-bytes 100000000
//	indexadvisor -workload w.json -cpuprofile extend.pprof
//	indexadvisor -workload w.json -strategy cophy -parallelism 2
//	indexadvisor -workload w.json -metrics-addr 127.0.0.1:9177 -trace-out run.jsonl -json
//	indexadvisor -workload w.json -timeout 500ms -json
//	indexadvisor -workload w.json -explain -trace-out run.jsonl -json
//	indexadvisor explain -journal run.jsonl
//	indexadvisor -fleet fleetdir -fleet-workers 4 -fleet-table-budget 1000000
//	indexadvisor serve -schema w.json -dir journaldir -addr :7080
//	indexadvisor serve -schema w.json -dir journaldir -resume
//
// `serve` runs the guardrailed online tuning daemon: POST /observe ingests
// batched query observations into a decay-weighted window, drift against the
// tuned baseline triggers a deadline-bounded re-selection, and accepted
// creates/drops deltas are applied through a crash-safe fsync'd rollback
// journal (-resume replays it after a crash). See cmd/indexadvisor/serve.go.
//
// -fleet tunes a whole multi-tenant fleet in one run (see cmd/workloadgen
// -tenants for generating one): tenants whose workloads are exact twins
// (same schema and template signatures, different frequencies) or, with
// -fleet-near-match, near-clones transparently share what-if cost caches,
// and results stay bit-identical to standalone runs. -fleet-table-budget
// bounds the retained cache bytes across all tenants with LRU eviction,
// -fleet-stream reads tenant workloads lazily, -fleet-workers sizes the
// scheduler pool, -fleet-tenant-timeout bounds each tenant (partial results,
// not errors), and per-tenant weights/deadlines come from the manifest.
// Fleet CoPhy tenants solve at gap 0 with no time limit; fleet mode exits 2
// if any of -gap, -timelimit, -candidates, -steps, -explain, -trace-out or
// -trace-rotate-bytes is set, since it would not honor them.
//
// -explain records decision provenance: the -json report (and the trace
// journal) additionally carry, per step, the winning candidate's exact gain
// decomposition, the runner-up margin, and the lazy loop's prune ledger,
// plus an attribution table mapping each recommended index to the queries
// whose cost it changes (per-index nets sum exactly to base_cost - cost).
// Provenance is a pure observer — the selection is bit-identical with it on
// or off. The `explain` subcommand renders a journaled run as a
// human-readable report; cmd/runcompare diffs two journals.
//
// -timeout puts the whole selection under a deadline: on expiry the advisor
// returns its best partial result (for Extend, a bit-identical prefix of the
// unbounded run's construction trace) with "partial" and "stop_reason"
// reported, and the command still exits 0 — an interrupted run is a result,
// not an error.
//
// The default strategy is the paper's recursive Extend algorithm (H6), which
// runs serially. -parallelism sizes CoPhy's branch-and-bound node pool
// (0 = all cores, split among the -fleet-workers in fleet mode), with
// identical results at any setting; -cpuprofile
// records a pprof profile of the run for performance work.
//
// Observability: -metrics-addr serves Prometheus text exposition at /metrics
// (plus expvar and pprof under /debug/) while the advisor runs; -trace-out
// journals every selection span as a JSON line; -log-level enables structured
// logs on stderr; -json replaces the human-readable report with a full
// machine-readable recommendation; -memprofile writes a heap profile at exit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	indexsel "repro"
)

var strategies = map[string]indexsel.Strategy{
	"extend": indexsel.StrategyExtend,
	"cophy":  indexsel.StrategyCoPhy,
	"h1":     indexsel.StrategyH1,
	"h2":     indexsel.StrategyH2,
	"h3":     indexsel.StrategyH3,
	"h4":     indexsel.StrategyH4,
	"h5":     indexsel.StrategyH5,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("indexadvisor: ")
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		runExplain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		path             = flag.String("workload", "", "workload JSON file (- for stdin); or use -sql")
		sqlPath          = flag.String("sql", "", "schema + query log in SQL (- for stdin); alternative to -workload")
		fleetPath        = flag.String("fleet", "", "fleet mode: directory of tenant workloads or a manifest.json (see cmd/workloadgen -tenants); alternative to -workload")
		fleetWorkers     = flag.Int("fleet-workers", 1, "fleet mode: concurrent tenant selections")
		fleetTableBudget = flag.Int64("fleet-table-budget", 0, "fleet mode: global bound on retained what-if table bytes across tenants (0 = unlimited)")
		fleetTenantTO    = flag.Duration("fleet-tenant-timeout", 0, "fleet mode: default per-tenant deadline (each tenant returns its best partial result on expiry)")
		fleetNoShare     = flag.Bool("fleet-no-share", false, "fleet mode: disable cross-tenant cache sharing (per-tenant caches even for structural twins)")
		fleetNearMatch   = flag.Bool("fleet-near-match", false, "fleet mode: widen cache sharing from exact twins (template-set overlap 1.0) to near-clones (same schema, template sets overlapping by -fleet-near-overlap) via union-superset caches; results stay bit-identical to standalone")
		fleetNearOverlap = flag.Float64("fleet-near-overlap", 0, "fleet mode: minimum Jaccard template-set overlap for -fleet-near-match clustering (0 = default 0.5)")
		fleetStream      = flag.Bool("fleet-stream", false, "fleet mode: stream the manifest — read each tenant workload file lazily (once to cluster, once at dispatch) and release it after its result, keeping resident workloads at O(workers) instead of O(fleet) at the cost of parsing every file twice")
		fleetSpillDir    = flag.String("fleet-spill-dir", "", "fleet mode: spill evicted what-if cost tables to compact binary files under this directory and restore them bit-identically on re-pin, instead of rebuilding")
		strategy         = flag.String("strategy", "extend", "extend | cophy | h1..h5")
		budgetShare      = flag.Float64("budget-share", 0.2, "budget as share of all single-attribute index memory")
		budgetBytes      = flag.Int64("budget-bytes", 0, "absolute budget in bytes (overrides -budget-share)")
		numCands         = flag.Int("candidates", 0, "candidate-set size for cophy/h1..h5 (0 = all)")
		gap              = flag.Float64("gap", 0.05, "cophy optimality gap")
		timeLimit        = flag.Duration("timelimit", time.Minute, "cophy time limit")
		timeout          = flag.Duration("timeout", 0, "overall selection deadline (any strategy); on expiry the best partial result found so far is reported and the exit code stays 0")
		showSteps        = flag.Bool("steps", false, "print the Extend construction trace")
		parallelism      = flag.Int("parallelism", 0, "worker goroutines for cophy branch-and-bound node solves (0 = all cores, split among -fleet-workers in fleet mode; 1 = serial; identical results)")
		cpuProfile       = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile       = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		jsonOut          = flag.Bool("json", false, "emit the full recommendation as JSON on stdout")
		explainRun       = flag.Bool("explain", false, "record decision provenance and per-query attribution (reported in -json and the human report, journaled with -trace-out)")
		metricsAddr      = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
		linger           = flag.Duration("metrics-linger", 0, "keep serving -metrics-addr this long after the report (for scrapers)")
		traceOut         = flag.String("trace-out", "", "append every selection span as a JSON line to this file")
		traceRotate      = flag.Int64("trace-rotate-bytes", 0, "rotate -trace-out past this size (file -> file.1 -> file.2, whole lines only); 0 = never rotate")
		logLevel         = flag.String("log-level", "", "enable structured logs on stderr: debug | info | warn | error")
	)
	flag.Parse()
	sources := 0
	for _, s := range []string{*path, *sqlPath, *fleetPath} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "indexadvisor: exactly one of -workload, -sql or -fleet is required")
		flag.Usage()
		os.Exit(2)
	}
	if *fleetPath != "" {
		if ignored := fleetIgnoredFlags(); len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "indexadvisor: fleet mode does not honor %s\n", strings.Join(ignored, ", "))
			os.Exit(2)
		}
	}

	if *logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			log.Fatalf("bad -log-level %q: %v", *logLevel, err)
		}
		indexsel.SetLogger(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
	}
	stopProfiles := startProfiles(*cpuProfile, *memProfile)

	if *fleetPath != "" {
		strat, ok := strategies[strings.ToLower(*strategy)]
		if !ok {
			log.Fatalf("unknown strategy %q (want extend, cophy, h1..h5)", *strategy)
		}
		if *metricsAddr != "" {
			_, bound, err := indexsel.ServeMetrics(*metricsAddr)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("serving metrics on http://%s/metrics", bound)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		bytes := int64(0)
		share := 0.0
		if *budgetBytes > 0 {
			bytes = *budgetBytes
		} else {
			share = *budgetShare
		}
		fopts := indexsel.FleetOptions{
			Strategy:         strat,
			Workers:          *fleetWorkers,
			TenantDeadline:   *fleetTenantTO,
			TableBudgetBytes: *fleetTableBudget,
			Parallelism:      *parallelism,
			DisableSharing:   *fleetNoShare,
			NearMatch:        *fleetNearMatch,
			NearMatchOverlap: *fleetNearOverlap,
			SpillDir:         *fleetSpillDir,
		}
		if err := runFleet(ctx, os.Stdout, *fleetPath, fopts, share, bytes, *fleetStream, *jsonOut); err != nil {
			log.Fatal(err)
		}
		stopProfiles()
		if *metricsAddr != "" && *linger > 0 {
			log.Printf("lingering %v for metric scrapes", *linger)
			time.Sleep(*linger)
		}
		return
	}

	open := func(p string) *os.File {
		if p == "-" {
			return os.Stdin
		}
		f, err := os.Open(p)
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	var (
		w   *indexsel.Workload
		err error
	)
	if *sqlPath != "" {
		in := open(*sqlPath)
		defer in.Close()
		w, err = indexsel.ParseSQL(in)
	} else {
		in := open(*path)
		defer in.Close()
		w, err = indexsel.ReadWorkload(in)
	}
	if err != nil {
		log.Fatal(err)
	}

	strat, ok := strategies[strings.ToLower(*strategy)]
	if !ok {
		log.Fatalf("unknown strategy %q (want extend, cophy, h1..h5)", *strategy)
	}

	tel := &indexsel.Telemetry{}
	var journalFlush func()
	switch {
	case *traceOut != "" && *traceRotate > 0:
		rw, err := indexsel.NewRotatingTraceWriter(*traceOut, *traceRotate, 2)
		if err != nil {
			log.Fatal(err)
		}
		tel.Tracer = indexsel.NewTracer(4096, rw)
		journalFlush = func() {
			if err := tel.Tracer.Err(); err != nil {
				log.Printf("trace journal: %v", err)
			}
			if err := rw.Close(); err != nil {
				log.Printf("trace journal: %v", err)
			}
		}
	case *traceOut != "":
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		bw := bufio.NewWriter(f)
		tel.Tracer = indexsel.NewTracer(4096, bw)
		journalFlush = func() {
			if err := tel.Tracer.Err(); err != nil {
				log.Printf("trace journal: %v", err)
			}
			if err := bw.Flush(); err != nil {
				log.Printf("trace journal: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("trace journal: %v", err)
			}
		}
	}

	if *metricsAddr != "" {
		_, bound, err := indexsel.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving metrics on http://%s/metrics", bound)
	}

	opts := []indexsel.Option{
		indexsel.WithGap(*gap),
		indexsel.WithTimeLimit(*timeLimit),
		indexsel.WithDominanceReduction(),
		indexsel.WithParallelism(*parallelism),
		indexsel.WithTelemetry(tel),
	}
	if *budgetBytes > 0 {
		opts = append(opts, indexsel.WithBudgetBytes(*budgetBytes))
	} else {
		opts = append(opts, indexsel.WithBudgetShare(*budgetShare))
	}
	if *explainRun {
		opts = append(opts, indexsel.WithExplain())
	}
	if *numCands > 0 {
		cands, err := indexsel.CandidateSet(w, indexsel.CandidatesByFrequency, *numCands, 4)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, indexsel.WithCandidates(cands))
	}

	adv := indexsel.NewAdvisor(w, opts...)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rec, err := adv.SelectContext(ctx, strat)
	if err != nil {
		log.Fatal(err)
	}
	stopProfiles()
	// Flush the span journal before anything that can delay or prevent a
	// clean exit (the linger sleep, or a scraper killing the process).
	if journalFlush != nil {
		journalFlush()
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, w, adv, rec); err != nil {
			log.Fatal(err)
		}
	} else {
		report(w, rec, *showSteps)
	}

	if *metricsAddr != "" && *linger > 0 {
		log.Printf("lingering %v for metric scrapes", *linger)
		time.Sleep(*linger)
	}
}

// fleetUnhonored lists the flags fleet mode has no use for: FleetOptions
// carries no gap, time limit or candidate set, and the fleet report has no
// construction trace, provenance or span journal.
var fleetUnhonored = []string{"candidates", "explain", "gap", "steps", "timelimit", "trace-out", "trace-rotate-bytes"}

// fleetIgnoredFlags returns the explicitly set flags (defaults do not count)
// that fleet mode would not honor.
func fleetIgnoredFlags() []string {
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(fleetUnhonored, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	return ignored
}

// startProfiles starts the -cpuprofile (if set) and returns the function
// that stops it and writes the -memprofile (if set). Both are process-wide,
// so single and fleet runs share them.
func startProfiles(cpuPath, memPath string) func() {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
	}
}

func report(w *indexsel.Workload, rec *indexsel.Recommendation, showSteps bool) {
	fmt.Printf("strategy:    %v\n", rec.Strategy)
	fmt.Printf("budget:      %d bytes\n", rec.Budget)
	fmt.Printf("memory used: %d bytes (%.1f%%)\n", rec.Memory, 100*float64(rec.Memory)/float64(rec.Budget))
	fmt.Printf("cost:        %.6g -> %.6g  (%.2f%% improvement)\n", rec.BaseCost, rec.Cost, 100*rec.Improvement())
	fmt.Printf("solve time:  %v", rec.Elapsed.Round(time.Millisecond))
	if rec.DNF {
		fmt.Printf("  [DNF — best incumbent returned]")
	}
	fmt.Println()
	if rec.Partial {
		fmt.Printf("partial:     interrupted (%v) — best result found before the cut\n", rec.StopReason)
	}

	if showSteps && len(rec.Steps) > 0 {
		fmt.Println("\nconstruction trace:")
		for i, s := range rec.Steps {
			from := ""
			if s.Replaced != nil {
				from = fmt.Sprintf(" (extends %s)", describe(w, *s.Replaced))
			}
			fmt.Printf("  %3d. %-7s %s%s  ratio=%.4g  evaluated=%d/%d\n",
				i+1, s.Kind, describe(w, s.Index), from, s.Ratio, s.Evaluated, s.Candidates)
		}
	}

	fmt.Println("\nrecommended indexes:")
	for _, ix := range rec.Indexes {
		fmt.Printf("  CREATE INDEX ON %s;\n", describe(w, ix))
	}

	if a := rec.Attribution; a != nil {
		fmt.Printf("\nwhy (per-index share of the %.6g improvement):\n", a.BaseCost-a.Cost)
		for _, row := range a.Indexes {
			fmt.Printf("  %-44s net=%.6g  (benefit %.6g - maintenance %.6g, best for %d queries)\n",
				row.Index, row.Net, row.Benefit, row.Maintenance, row.QueryCount)
		}
	}
	if p := rec.Provenance; p != nil && len(p.Steps) > 0 {
		var pruned int
		for _, st := range p.Steps {
			pruned += st.Pruned
		}
		fmt.Printf("\nprovenance: %d step records journaled (%d candidate evaluations bound-pruned); `indexadvisor explain -journal <trace.jsonl>` renders the full report\n",
			len(p.Steps), pruned)
	}
}

// jsonReport is the machine-readable recommendation emitted by -json. Field
// names are stable interface; additions are backwards compatible.
type jsonReport struct {
	Strategy    string      `json:"strategy"`
	BudgetBytes int64       `json:"budget_bytes"`
	MemoryBytes int64       `json:"memory_bytes"`
	BaseCost    float64     `json:"base_cost"`
	Cost        float64     `json:"cost"`
	Improvement float64     `json:"improvement"`
	ElapsedUS   int64       `json:"elapsed_us"`
	DNF         bool        `json:"dnf,omitempty"`
	Gap         float64     `json:"gap,omitempty"`
	Partial     bool        `json:"partial,omitempty"`
	StopReason  string      `json:"stop_reason,omitempty"`
	Evaluated   int         `json:"evaluated,omitempty"`
	CacheServed int         `json:"cache_served,omitempty"`
	Pruned      int         `json:"pruned,omitempty"`
	Indexes     []jsonIndex `json:"indexes"`
	Steps       []jsonStep  `json:"steps,omitempty"`
	Frontier    []jsonPoint `json:"frontier"`
	WhatIf      jsonWhatIf  `json:"whatif"`
	// Provenance and Attribution are present only under -explain.
	Provenance  *indexsel.RunProvenance `json:"provenance,omitempty"`
	Attribution *indexsel.Attribution   `json:"attribution,omitempty"`
}

// jsonPoint is one (memory, cost) point of the anytime frontier. The frontier
// is never empty: even a run cut at its deadline before the first step emits
// the (0, base_cost) point.
type jsonPoint struct {
	MemoryBytes int64   `json:"memory_bytes"`
	Cost        float64 `json:"cost"`
}

type jsonIndex struct {
	Table string   `json:"table"`
	Attrs []string `json:"attrs"`
	DDL   string   `json:"ddl"`
}

type jsonStep struct {
	Kind        string  `json:"kind"`
	Index       string  `json:"index"`
	Extends     string  `json:"extends,omitempty"`
	Ratio       float64 `json:"ratio"`
	CostAfter   float64 `json:"cost_after"`
	MemAfter    int64   `json:"mem_after_bytes"`
	Candidates  int     `json:"candidates"`
	Evaluated   int     `json:"evaluated"`
	CacheServed int     `json:"cache_served"`
	// Pruned is always emitted (no omitempty): the accounting triple
	// candidates = evaluated + cache_served + pruned stays checkable even
	// when a step pruned nothing.
	Pruned int `json:"pruned"`
}

type jsonWhatIf struct {
	Calls           int64 `json:"calls"`
	CacheHits       int64 `json:"cache_hits"`
	DistinctIndexes int   `json:"distinct_indexes"`
	CacheEntries    int   `json:"index_cache_entries"`
}

func writeJSON(out *os.File, w *indexsel.Workload, adv *indexsel.Advisor, rec *indexsel.Recommendation) error {
	ws := adv.WhatIfStats()
	rep := jsonReport{
		Strategy:    rec.Strategy.String(),
		BudgetBytes: rec.Budget,
		MemoryBytes: rec.Memory,
		BaseCost:    rec.BaseCost,
		Cost:        rec.Cost,
		Improvement: rec.Improvement(),
		ElapsedUS:   rec.Elapsed.Microseconds(),
		DNF:         rec.DNF,
		Gap:         rec.Gap,
		Partial:     rec.Partial,
		StopReason:  rec.StopReason.String(),
		Evaluated:   rec.Evaluated,
		CacheServed: rec.CacheServed,
		Pruned:      rec.Pruned,
		Indexes:     make([]jsonIndex, 0, len(rec.Indexes)),
		WhatIf: jsonWhatIf{
			Calls:           ws.Calls,
			CacheHits:       ws.CacheHits,
			DistinctIndexes: ws.DistinctIndexes,
			CacheEntries:    ws.IndexCacheEntries,
		},
	}
	for _, ix := range rec.Indexes {
		attrs := make([]string, 0, len(ix.Attrs))
		for _, a := range ix.Attrs {
			name := w.Attr(a).Name
			if dot := strings.IndexByte(name, '.'); dot >= 0 {
				name = name[dot+1:]
			}
			attrs = append(attrs, name)
		}
		rep.Indexes = append(rep.Indexes, jsonIndex{
			Table: w.Tables[ix.Table].Name,
			Attrs: attrs,
			DDL:   fmt.Sprintf("CREATE INDEX ON %s;", describe(w, ix)),
		})
	}
	for _, s := range rec.Steps {
		js := jsonStep{
			Kind:        s.Kind.String(),
			Index:       describe(w, s.Index),
			Ratio:       s.Ratio,
			CostAfter:   s.CostAfter,
			MemAfter:    s.MemAfter,
			Candidates:  s.Candidates,
			Evaluated:   s.Evaluated,
			CacheServed: s.CacheServed,
			Pruned:      s.Pruned,
		}
		if s.Replaced != nil {
			js.Extends = describe(w, *s.Replaced)
		}
		rep.Steps = append(rep.Steps, js)
	}
	for _, p := range rec.Frontier() {
		rep.Frontier = append(rep.Frontier, jsonPoint{MemoryBytes: p.Memory, Cost: p.Cost})
	}
	rep.Provenance = rec.Provenance
	rep.Attribution = rec.Attribution
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func describe(w *indexsel.Workload, ix indexsel.Index) string {
	var b strings.Builder
	b.WriteString(w.Tables[ix.Table].Name)
	b.WriteString(" (")
	for i, a := range ix.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		name := w.Attr(a).Name
		if dot := strings.IndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		b.WriteString(name)
	}
	b.WriteString(")")
	return b.String()
}
