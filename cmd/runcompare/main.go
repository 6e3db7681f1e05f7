// Command runcompare diffs two selection-run trace journals (indexadvisor
// -trace-out files): did the two runs make the same decisions, and if not,
// where did they first diverge?
//
// Usage:
//
//	runcompare runA.jsonl runB.jsonl
//	runcompare -json runA.jsonl runB.jsonl
//
// The comparison is semantic, not textual: it reconstructs each run from its
// journal and reports the first divergent construction step, whether the
// (memory, cost) frontiers are equal, the final objective and memory deltas,
// per-index attribution movements (when both runs were recorded with
// -explain), and the prune-ledger difference. Ledger differences alone do
// NOT count as divergence — runs that reach an equal frontier through
// different amounts of pruning (the lazy loop and the uncached sweep) are
// the healthy outcome this tool is meant to certify.
//
// Exit status: 0 when the runs are identical (same decisions, objective,
// and attribution), 1 when they diverge, 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/explain"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit the diff as JSON instead of text")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: runcompare [-json] runA.jsonl runB.jsonl")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	nameA, nameB := flag.Arg(0), flag.Arg(1)

	a, err := readRun(nameA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runcompare: %v\n", err)
		os.Exit(2)
	}
	b, err := readRun(nameB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runcompare: %v\n", err)
		os.Exit(2)
	}

	d := explain.DiffRuns(a, b)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fmt.Fprintf(os.Stderr, "runcompare: %v\n", err)
			os.Exit(2)
		}
	} else if err := d.WriteText(os.Stdout, nameA, nameB); err != nil {
		fmt.Fprintf(os.Stderr, "runcompare: %v\n", err)
		os.Exit(2)
	}
	if !d.Identical {
		os.Exit(1)
	}
}

func readRun(path string) (*explain.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run, err := explain.ReadJournal(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}
