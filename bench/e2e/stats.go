package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small slack keeps float error (99.9/100*10000 is just above 9990) from
// pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the percentiles a timing may be reported at, lowest
// first.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile in tailPercentiles that still
// has at least ten samples beyond it among n samples, so that a tail figure
// never rests on one or two outliers. ok is false when even the median has
// fewer than ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailPercentiles {
		if n-rank(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// quartiles returns the first, second and third quartile by the method of
// Python's statistics.quantiles(data, n=4) (its default, "exclusive"), so
// that the spreads this program reports are the ones other tools compute from
// the same values. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
