package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	indexsel "repro"
	"repro/internal/faultinject"
)

// runServe is the `indexadvisor serve` subcommand: the online tuning daemon.
//
//	indexadvisor serve -schema w.json -dir /var/lib/indexsel [-addr :7080]
//	indexadvisor serve -schema w.json -dir /var/lib/indexsel -resume
//
// POST /observe ingests batched query observations (JSON array or JSONL);
// GET /status reports the deployed set, window and drift state; /metrics
// serves Prometheus exposition. The journal directory holds the crash-safe
// rollback journal: restarting over a non-empty journal requires -resume,
// which replays it, rolls back any half-applied delta, and verifies the
// deployed set before serving.
//
// The -fault-* flags wrap the what-if cost source in a deterministic fault
// injector (chaos testing); INDEXSEL_CRASH_APPLY_AFTER_OPS=N makes the
// process exit(137) after the Nth state operation of the next delta apply —
// the CI chaos job's kill -9 equivalent.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		schemaPath  = fs.String("schema", "", "schema workload JSON (tables+attributes catalog; required)")
		dir         = fs.String("dir", "", "journal directory (required)")
		addr        = fs.String("addr", "127.0.0.1:7080", "listen address (use :0 for an ephemeral port)")
		resume      = fs.Bool("resume", false, "recover an existing journal (required when the journal is non-empty)")
		epsilon     = fs.Float64("epsilon", 0.05, "guardrail slack: reject deltas regressing any heavy query beyond (1+epsilon)")
		heavyK      = fs.Int("heavy-k", 10, "guardrail width: protect the top K queries by frequency*base-cost")
		threshold   = fs.Float64("drift-threshold", 0.2, "drift score that triggers re-selection")
		halfLife    = fs.Duration("half-life", time.Hour, "observation decay half-life")
		windowCap   = fs.Int("window-cap", 4096, "max distinct templates retained in the window")
		queueCap    = fs.Int("queue-cap", 64, "intake queue capacity in batches (full queue answers 429)")
		deadline    = fs.Duration("retune-deadline", 30*time.Second, "per-retune selection deadline (anytime: partial plans are valid)")
		budgetShare = fs.Float64("budget-share", 0.5, "budget as share of the window's single-attribute index memory")
		budgetBytes = fs.Int64("budget-bytes", 0, "absolute budget in bytes (overrides -budget-share)")
		reconfigPB  = fs.Float64("reconfig-per-byte", 0, "bias re-selection against churn: reconfiguration cost per byte of index created (finite, >= 0; 0 = free)")
		backoffBase = fs.Duration("backoff-base", time.Second, "initial retry backoff after a failed/rejected retune")
		backoffMax  = fs.Duration("backoff-max", 5*time.Minute, "retry backoff cap")
		seed        = fs.Int64("seed", 1, "seed for backoff jitter")
		faultClass  = fs.String("fault-class", "", "chaos: inject faults into the cost source (nan | inf | negative | latency | error | panic)")
		faultRate   = fs.Float64("fault-rate", 0.1, "chaos: fraction of (query,index) pairs hit by value/latency faults")
		faultOnCall = fs.Int64("fault-on-call", 1, "chaos: 1-based call number tripping error/panic faults (per retune)")
		faultLat    = fs.Duration("fault-latency", time.Millisecond, "chaos: injected latency per selected call")
		faultSeed   = fs.Int64("fault-seed", 1, "chaos: fault selection seed")
	)
	fs.Parse(args)
	if *schemaPath == "" || *dir == "" {
		log.Fatal("serve: -schema and -dir are required")
	}

	f, err := os.Open(*schemaPath)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	schema, err := indexsel.ReadWorkload(f)
	f.Close()
	if err != nil {
		log.Fatalf("serve: reading schema: %v", err)
	}

	cfg := indexsel.DaemonConfig{
		Schema:          schema,
		Dir:             *dir,
		Epsilon:         *epsilon,
		HeavyK:          *heavyK,
		DriftThreshold:  *threshold,
		HalfLife:        *halfLife,
		WindowCap:       *windowCap,
		QueueCap:        *queueCap,
		RetuneDeadline:  *deadline,
		BudgetBytes:     *budgetBytes,
		BudgetShare:     *budgetShare,
		ReconfigPerByte: *reconfigPB,
		BackoffBase:     *backoffBase,
		BackoffMax:      *backoffMax,
		Seed:            *seed,
	}
	if *faultClass != "" {
		class, ok := map[string]faultinject.Class{
			"nan": faultinject.NaN, "inf": faultinject.Inf,
			"negative": faultinject.Negative, "latency": faultinject.Latency,
			"error": faultinject.Error, "panic": faultinject.Panic,
		}[*faultClass]
		if !ok {
			log.Fatalf("serve: unknown -fault-class %q", *faultClass)
		}
		cfg.WrapSource = func(src indexsel.WhatIfSource) indexsel.WhatIfSource {
			return &faultinject.Source{
				Src: src, Class: class, Seed: *faultSeed,
				Rate: *faultRate, OnCall: *faultOnCall, Latency: *faultLat,
			}
		}
	}
	if v := os.Getenv("INDEXSEL_CRASH_APPLY_AFTER_OPS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			log.Fatalf("serve: bad INDEXSEL_CRASH_APPLY_AFTER_OPS %q", v)
		}
		cfg.ApplyHook = func(opsDone int) error {
			if opsDone == n {
				// A hard exit skips every deferred flush — the closest
				// in-process stand-in for kill -9 at this protocol point.
				fmt.Fprintf(os.Stderr, "serve: injected crash after %d ops\n", opsDone)
				os.Exit(137)
			}
			return nil
		}
	}

	d, err := indexsel.NewTuningDaemon(cfg)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	fresh, err := d.Fresh()
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	if !fresh && !*resume {
		log.Fatalf("serve: journal in %s is non-empty; restart with -resume to recover it", *dir)
	}
	rep, err := d.Resume()
	if err != nil {
		log.Fatalf("serve: recovery failed: %v", err)
	}
	repJSON, _ := json.Marshal(rep)
	fmt.Fprintf(os.Stderr, "serve: recovered %s\n", repJSON)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", ln.Addr())
	d.Start()
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "serve: shutting down")
	srv.Close()
	d.Stop()
}
