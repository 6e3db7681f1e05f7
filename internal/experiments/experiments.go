// Package experiments regenerates every table and figure of the paper's
// evaluation (Table I, Figures 1-6, and the Section III-A what-if call
// accounting) on this repository's substrates: the Appendix-B cost model,
// the Appendix-C / ERP / TPC-C workload generators, the Extend strategy,
// CoPhy over the lp solver, the H1-H5 heuristics, and the column-store
// engine for measured costs.
//
// Absolute numbers differ from the paper's testbed; the comparative shape
// (who wins, by what factor, where DNFs start) is what each runner reports.
// EXPERIMENTS.md records paper-vs-measured for every artifact.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Config controls experiment scale and output.
type Config struct {
	// Out receives the human-readable result tables (default os.Stdout).
	Out io.Writer
	// OutDir, when set, additionally receives one CSV file per experiment.
	OutDir string
	// Scale in (0, 1] shrinks workload sizes (row counts, query counts)
	// from the paper's parameters; 1 reproduces them. Default 0.25 keeps
	// each experiment in the minutes range on a laptop.
	Scale float64
	// SolverTimeLimit is the CoPhy DNF cutoff. The paper used eight hours;
	// the same scaling *shape* appears with seconds. Default 20s.
	SolverTimeLimit time.Duration
	// Seed fixes all generators.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 0.25
	}
	if c.SolverTimeLimit <= 0 {
		c.SolverTimeLimit = 20 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaleInt scales n by the config's factor with a floor.
func (c Config) scaleInt(n int, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

func (c Config) scaleRows(n int64) int64 {
	v := int64(float64(n) * c.Scale)
	if v < 1000 {
		v = 1000
	}
	return v
}

// table renders aligned rows and optionally a CSV file.
type table struct {
	name    string
	headers []string
	rows    [][]string
}

func newTable(name string, headers ...string) *table {
	return &table{name: name, headers: headers}
}

func (t *table) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// render writes the aligned text table to out and, when dir is non-empty,
// a CSV file <dir>/<name>.csv.
func (t *table) render(out io.Writer, dir string) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	fmt.Fprintf(out, "\n== %s ==\n", t.name)
	fmt.Fprintln(out, line(t.headers))
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintln(out, strings.Repeat("-", total))
	for _, row := range t.rows {
		fmt.Fprintln(out, line(row))
	}
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	write := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := f.WriteString(","); err != nil {
					return err
				}
			}
			if _, err := f.WriteString(strings.ReplaceAll(c, ",", ";")); err != nil {
				return err
			}
		}
		_, err := f.WriteString("\n")
		return err
	}
	if err := write(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// Runner is a named experiment.
type Runner struct {
	Name string
	Desc string
	Run  func(Config) error
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig1", "TPC-C construction trace (Figure 1)", Fig1},
		{"table1", "runtime scaling H6 vs CoPhy (Table I)", Table1},
		{"fig2", "quality vs candidate heuristics (Figure 2)", Fig2},
		{"fig3", "quality vs candidate-set size (Figure 3)", Fig3},
		{"fig4", "enterprise workload (Figure 4)", Fig4},
		{"fig5", "end-to-end with measured costs (Figure 5)", Fig5},
		{"fig6", "LP size vs candidate share (Figure 6)", Fig6},
		{"whatif", "what-if call accounting (Section III-A)", WhatIfCalls},
		{"ablation", "Remark 1/2 extension ablation (beyond-paper)", Ablation},
		{"writes", "write-workload maintenance sensitivity (beyond-paper)", Writes},
		{"accel", "plan-skeleton reuse + workload-compression what-if levers (related work)", Accel},
	}
}

// Run executes the named experiment ("all" runs every one).
func Run(name string, cfg Config) error {
	cfg = cfg.withDefaults()
	if name == "all" {
		for _, r := range Runners() {
			fmt.Fprintf(cfg.Out, "\n#### %s — %s\n", r.Name, r.Desc)
			if err := r.Run(cfg); err != nil {
				return fmt.Errorf("experiments: %s: %w", r.Name, err)
			}
		}
		return nil
	}
	for _, r := range Runners() {
		if r.Name == name {
			return r.Run(cfg)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q", name)
}
