package main

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestJudge(t *testing.T) {
	b := 0.1
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: &b}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: &b}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		alternating    bool
		want           string
	}{
		{"same", lower, steady, steady, true, verdictWithin},
		{"faster in every pair", lower, steady, scale(steady, 0.9), true, verdictGain},
		{"faster but not alternating", lower, steady, scale(steady, 0.9), false, verdictWithin},
		{"faster in too few pairs", lower, steady[:9], scale(steady[:9], 0.9), true, verdictWithin},
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), true, verdictRegression},
		{"slower within the bound", lower, steady, scale(steady, 1.05), true, verdictWithin},
		{"throughput down beyond the bound", higher, steady, scale(steady, 0.8), true, verdictRegression},
		{"throughput up", higher, steady, scale(steady, 1.1), true, verdictGain},
		{"parent spread wider than the bound", lower, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, steady, true, verdictUnresolved},
		{"noisy parent, change better in every run", lower, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scale(steady, 0.5), true, verdictGain},
		{"noisy parent, three runs each, change better in every run", lower, []float64{60, 140, 100}, []float64{50, 55, 58}, true, verdictWithin},
		{"noisy parent, change not better in every run", lower, []float64{60, 140, 100}, []float64{50, 55, 65}, true, verdictUnresolved},
		{"one run each", lower, steady[:1], steady[:1], true, verdictFewRuns},
	} {
		if got := judge(c.m, c.parent, c.change, c.alternating).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeExact(t *testing.T) {
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	oneWorse := append([]float64(nil), ratios...)
	oneWorse[3] = math.Nextafter(oneWorse[3], 1)
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same", ratios, ratios, verdictIdentical},
		{"worse in the last bit of one pair", ratios, oneWorse, verdictRegression},
		{"better in every pair", ratios, scale(ratios, 0.99), verdictGain},
		{"better in three pairs", ratios[:3], scale(ratios[:3], 0.99), verdictChanged},
		{"no pairs", nil, nil, verdictFewRuns},
	} {
		if got := judgeExact(c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSeedPairs(t *testing.T) {
	run := func(seed int64, ratio float64) result {
		return result{Seed: seed, Notes: map[string]note{"extend_cost_ratio": {Value: ratio}}}
	}
	parent := []result{run(1, 0.1), run(2, 0.2), run(1, 0.1), run(3, 0.3)}
	change := []result{run(2, 0.25), run(1, 0.1), run(4, 0.4), run(1, 0.15), run(1, 0.5)}
	p, c := seedPairs(parent, change, "extend_cost_ratio")
	if fmt.Sprint(p) != "[0.2 0.1 0.1]" || fmt.Sprint(c) != "[0.25 0.1 0.15]" {
		t.Errorf("pairs %v / %v, want [0.2 0.1 0.1] / [0.25 0.1 0.15]", p, c)
	}
}

func TestAlternates(t *testing.T) {
	at := func(s int) result { return result{Started: time.Unix(int64(s), 0)} }
	parent := []result{at(0), at(3), at(4), at(7)}
	change := []result{at(1), at(2), at(5), at(6)}
	if !alternates(parent, change) {
		t.Error("P C | C P | P C | C P not seen as alternating")
	}
	if alternates([]result{at(0), at(2)}, []result{at(1), at(3)}) {
		t.Error("parent first in every pair seen as alternating")
	}
	if alternates([]result{at(0), at(1)}, []result{at(3), at(2)}) {
		t.Error("overlapping pairs seen as alternating")
	}
}
