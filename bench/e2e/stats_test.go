package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("percentile of unsorted input = %g, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, // the median has only five samples above it
		{20, 50, true},
		{99, 50, true}, // p90 leaves 9
		{100, 90, true},
		{199, 90, true}, // p95 leaves 9
		{200, 95, true},
		{1000, 99, true},
		{1009, 99, true}, // p99.9 leaves 1
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves %d samples beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python gives these.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92, 110, 100, 75, 105, 103, 109, 76, 119, 99, 91, 103, 129, 106, 101, 84, 111, 74, 87, 86, 103, 103, 106, 86, 111, 75, 87, 102, 121, 111, 88, 89, 101, 106, 95, 103, 107, 101, 81, 109, 104},
			87, 102.5, 108.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should fail")
	}
}

func TestSelfTimeSubtractsCoveredIntervals(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"serial children", []interval{{110, 120}, {130, 150}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {120, 160}}, 50},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []interval{{50, 120}, {180, 250}}, 60},
		{"child outside the parent", []interval{{10, 90}, {200, 300}}, 100},
		{"children cover everything", []interval{{100, 150}, {150, 200}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
