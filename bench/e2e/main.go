// Command e2e is the end-to-end benchmark of the index advisor. It runs the
// advisor's three paths — one-shot selection, fleet tuning and the online
// tuning daemon — on four named workloads, prints every end-to-end metric
// with its unit, checks the outputs, and with -trace 1 reports per-layer
// metrics and writes the layer spans as JSONL.
//
// Each workload runs in two processes. The first generates the workload's
// inputs from -seed into files; the second, measured process reads only
// those files, so its set-up time and peak memory cover the program and not
// the generator. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{...}}
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload erp-extend --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1                 # all four workloads
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// See bench/README.md for the workloads, the metrics and the rules for
// comparing two versions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	tiny     bool
	spec     string
	compare  bool
	child    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after another)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed (seed 2 is held out for confirming claims)")
	flag.IntVar(&o.seconds, "seconds", 20, "measured time per run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics and writes spans.jsonl; 0 reports end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for inputs, journals, spans and results.jsonl")
	flag.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a smoke-test size")
	flag.StringVar(&o.spec, "benchmark", "BENCHMARK.json", "benchmark definition, for -compare")
	flag.BoolVar(&o.compare, "compare", false, "compare two results.jsonl files: -compare PARENT CHANGE")
	flag.BoolVar(&o.child, "child", false, "internal: measure inputs already generated under -out")
	flag.Parse()

	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			os.Exit(exit.ExitCode())
		}
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results files, PARENT and CHANGE")
		}
		return compareFiles(os.Stdout, o.spec, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.child {
		wl, err := lookup(o.workload)
		if err != nil {
			return err
		}
		return measure(o, wl)
	}
	names := workloadNames
	if o.workload != "" {
		if _, err := lookup(o.workload); err != nil {
			return err
		}
		names = []string{o.workload}
	}
	var failed error
	for _, name := range names {
		if err := runOne(o, name); err != nil {
			if len(names) == 1 {
				return err
			}
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", name, err)
			failed = err
		}
	}
	return failed
}

// runDir is the working directory of one run.
func runDir(o options, name string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-s%d-t%d", name, o.seed, o.trace))
}

// runOne generates one workload's inputs, then measures them in a child
// process and waits for it. The child prints the result.
func runOne(o options, name string) error {
	wl, err := lookup(name)
	if err != nil {
		return err
	}
	dir := runDir(o, name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	inputs := filepath.Join(dir, "inputs")
	if err := os.MkdirAll(inputs, 0o755); err != nil {
		return err
	}
	if err := wl.generate(inputs, o.seed, o.tiny); err != nil {
		return fmt.Errorf("generating %s inputs: %w", name, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-child",
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
		"-out", o.out,
		"-tiny="+strconv.FormatBool(o.tiny))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	err = cmd.Run()
	if rmErr := os.RemoveAll(inputs); err == nil {
		err = rmErr
	}
	return err
}
