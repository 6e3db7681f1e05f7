package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// readResults reads the untraced runs of a results.jsonl file, oldest first.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !res.Trace {
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Started.Before(out[j].Started) })
	return out, nil
}

// Verdicts of a (metric, workload) comparison.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
	verdictFewRuns    = "too few runs"
	verdictIdentical  = "identical"
	verdictChanged    = "changed"
)

// comparison is the paired comparison of one metric on one workload.
type comparison struct {
	parentMed, parentQ1, parentQ3 float64
	changeMed, changeQ1, changeQ3 float64
	pairs, wins                   int
	alternating                   bool
	verdict                       string
}

// judge applies the comparison rules. A gain needs at least ten pairs that
// alternate which side ran first, the change winning nine tenths of them
// (ties count for neither), and a median gap wider than the parent's
// interquartile range. A metric whose parent spread is wider than its bound
// cannot show a regression: it is unresolved, or within bound if every
// change run beats every parent run, unless it meets the gain rule.
// Otherwise a median worse than the parent's by more than the bound is a
// regression.
func judge(m metricSpec, parent, change []float64, alternating bool) comparison {
	c := comparison{alternating: alternating}
	better := func(a, b float64) bool { // a reads better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c.pairs = min(len(parent), len(change))
	for i := 0; i < c.pairs; i++ {
		if better(change[i], parent[i]) {
			c.wins++
		}
	}
	var ok1, ok2 bool
	c.parentQ1, c.parentMed, c.parentQ3, ok1 = quartiles(parent)
	c.changeQ1, c.changeMed, c.changeQ3, ok2 = quartiles(change)
	if !ok1 || !ok2 {
		c.parentMed, c.changeMed = median(parent), median(change)
		c.parentQ1, c.parentQ3, c.changeQ1, c.changeQ3 = c.parentMed, c.parentMed, c.changeMed, c.changeMed
		c.verdict = verdictFewRuns
		return c
	}
	worse := (c.changeMed - c.parentMed) / math.Abs(c.parentMed)
	if m.Better == "higher" {
		worse = -worse
	}
	gain := c.pairs >= 10 && alternating && c.wins*10 >= 9*c.pairs &&
		better(c.changeMed, c.parentMed) && math.Abs(c.changeMed-c.parentMed) > c.parentQ3-c.parentQ1
	bound := *m.Bound
	switch {
	case gain:
		c.verdict = verdictGain
	case (c.parentQ3-c.parentQ1)/math.Abs(c.parentMed) > bound:
		c.verdict = verdictUnresolved
		if better(edge(change, m.Better, false), edge(parent, m.Better, true)) {
			c.verdict = verdictWithin
		}
	case worse > bound:
		c.verdict = verdictRegression
	default:
		c.verdict = verdictWithin
	}
	return c
}

// edge returns a side's best run (best set) or worst run.
func edge(xs []float64, better string, best bool) float64 {
	s := sortedCopy(xs)
	lowFirst := (better == "lower") == best
	if lowFirst {
		return s[0]
	}
	return s[len(s)-1]
}

// alternates reports whether the runs pair up in time, one of each side per
// pair, with the side that ran first changing from one pair to the next.
func alternates(parent, change []result) bool {
	n := min(len(parent), len(change))
	if n == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		parentFirst := parent[i].Started.Before(change[i].Started)
		if i > 0 {
			prevParentFirst := parent[i-1].Started.Before(change[i-1].Started)
			if parentFirst == prevParentFirst {
				return false
			}
			if last := later(parent[i-1], change[i-1]); !last.Started.Before(earlier(parent[i], change[i]).Started) {
				return false
			}
		}
	}
	return true
}

func later(a, b result) result {
	if a.Started.After(b.Started) {
		return a
	}
	return b
}

func earlier(a, b result) result {
	if a.Started.Before(b.Started) {
		return a
	}
	return b
}

// compareFiles compares every end-to-end metric on every workload between
// two results files and fails if any regressed.
func compareFiles(w io.Writer, specPath, parentPath, changePath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	byWorkload := func(rs []result, name string) []result {
		var out []result
		for _, r := range rs {
			if r.Workload == name {
				out = append(out, r)
			}
		}
		return out
	}
	values := func(rs []result, metric string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-16s %-17s %-30s %-30s %7s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "bound", "verdict")
	regressions := 0
	for _, wl := range spec.Workloads {
		ps, cs := byWorkload(parent, wl.Name), byWorkload(change, wl.Name)
		if len(ps) == 0 && len(cs) == 0 {
			continue
		}
		alt := alternates(ps, cs)
		for i := 0; i < min(len(ps), len(cs)); i++ {
			if ps[i].Seed != cs[i].Seed {
				fmt.Fprintf(w, "warning: %s pair %d ran seeds %d and %d\n", wl.Name, i+1, ps[i].Seed, cs[i].Seed)
			}
		}
		row := func(name string, c comparison, bound string) {
			if c.verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "%-16s %-17s %-30s %-30s %3d/%-3d %6s  %s\n", wl.Name, name,
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.parentMed, c.parentQ1, c.parentQ3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.changeMed, c.changeQ1, c.changeQ3),
				c.wins, c.pairs, bound, c.verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, judge(m, values(ps, m.Name), values(cs, m.Name), alt), fmt.Sprintf("%.3g", *m.Bound))
		}
		for _, name := range qualityNotes(ps, cs) {
			parentQ, changeQ := seedPairs(ps, cs, name)
			row(name, judgeExact(parentQ, changeQ), "exact")
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", regressions)
	}
	return nil
}

// qualityNotes are the names of the cost-ratio notes either side reports:
// what the workload's recommendations cost, as a share of the cost without
// indexes. They are deterministic for a seed, so a comparison reports any
// change in them; a change that runs faster by recommending worse indexes
// shows there.
func qualityNotes(sides ...[]result) []string {
	seen := map[string]bool{}
	for _, rs := range sides {
		for _, r := range rs {
			for name := range r.Notes {
				if strings.HasSuffix(name, "_cost_ratio") {
					seen[name] = true
				}
			}
		}
	}
	return sortedKeys(seen)
}

// seedPairs pairs the note's values run by run within each seed, the k-th
// parent run of a seed with the k-th change run of the same seed.
func seedPairs(parent, change []result, name string) (p, c []float64) {
	bySeed := map[int64][]float64{}
	for _, r := range parent {
		if n, ok := r.Notes[name]; ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], n.Value)
		}
	}
	for _, r := range change {
		n, ok := r.Notes[name]
		if !ok || len(bySeed[r.Seed]) == 0 {
			continue
		}
		p = append(p, bySeed[r.Seed][0])
		c = append(c, n.Value)
		bySeed[r.Seed] = bySeed[r.Seed][1:]
	}
	return p, c
}

// judgeExact compares a deterministic, lower-is-better figure pair by pair,
// both values of a pair from the same seed. Any pair in which the change is
// worse is a regression, whatever the size of the difference; equal pairs
// throughout are identical. A change better in some pairs and worse in none
// is a gain under the same rule of ten pairs and nine tenths as timings, and
// changed otherwise.
func judgeExact(parent, change []float64) comparison {
	c := comparison{pairs: len(parent)}
	if c.pairs == 0 {
		c.verdict = verdictFewRuns
		return c
	}
	spread := func(xs []float64) (q1, q2, q3 float64) {
		if q1, q2, q3, ok := quartiles(xs); ok {
			return q1, q2, q3
		}
		return xs[0], xs[0], xs[0]
	}
	c.parentQ1, c.parentMed, c.parentQ3 = spread(parent)
	c.changeQ1, c.changeMed, c.changeQ3 = spread(change)
	worse := 0
	for i := range parent {
		switch {
		case change[i] < parent[i]:
			c.wins++
		case change[i] != parent[i]:
			worse++
		}
	}
	switch {
	case worse > 0:
		c.verdict = verdictRegression
	case c.wins == 0:
		c.verdict = verdictIdentical
	case c.pairs >= 10 && c.wins*10 >= 9*c.pairs:
		c.verdict = verdictGain
	default:
		c.verdict = verdictChanged
	}
	return c
}
