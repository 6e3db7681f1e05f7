package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// benchCoPhyModel builds a synthetic instance with the CoPhy BIP shape of
// eqs. (5)-(8): binary x_k per candidate, per-query assignment variables
// z_{q,k} with sum_k z = 1 and z <= x variable-upper-bound rows, and one
// memory-budget knapsack. The budget sits at ~40% of total candidate size so
// the relaxation stays fractional and the search must branch.
func benchCoPhyModel(queries, cands, perQuery int) *Model {
	rng := rand.New(rand.NewSource(42))
	m := NewModel()
	xVar := make([]int, cands)
	sizes := make([]float64, cands)
	var total float64
	for k := 0; k < cands; k++ {
		xVar[k] = m.AddVar(0.1+rng.Float64(), fmt.Sprintf("x%d", k), 1, true)
		sizes[k] = math.Round((1 + rng.Float64()*9) * 10)
		total += sizes[k]
	}
	pairVals := []float64{1, -1}
	ones := make([]float64, perQuery+1)
	for i := range ones {
		ones[i] = 1
	}
	for q := 0; q < queries; q++ {
		freq := 1 + rng.Float64()*4
		base := 50 + rng.Float64()*50
		row := []int32{int32(m.AddVar(freq*base, fmt.Sprintf("z%d_0", q), 1, false))}
		for k := 0; k < perQuery; k++ {
			cand := rng.Intn(cands)
			z := m.AddVar(freq*base*(0.1+0.8*rng.Float64()), fmt.Sprintf("z%d_%d", q, k+1), 1, false)
			row = append(row, int32(z))
			m.AddConstraintCols([]int32{int32(z), int32(xVar[cand])}, pairVals, LE, 0)
		}
		m.AddConstraintCols(row, ones[:len(row)], EQ, 1)
	}
	memCols := make([]int32, cands)
	for k := range xVar {
		memCols[k] = int32(xVar[k])
	}
	m.AddConstraintCols(memCols, sizes, LE, math.Round(total*0.4))
	return m
}

// benchMIPNodes runs one solver over m and reports branch-and-bound node
// throughput, the headline metric BENCH_lp.json tracks across PRs.
func benchMIPNodes(b *testing.B, m *Model, solve func(*Model) (*MIPResult, error)) {
	b.ResetTimer()
	nodes := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := solve(m)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != Optimal {
			b.Fatalf("status %v, want optimal", res.Status)
		}
		nodes += res.Nodes
	}
	b.ReportMetric(float64(nodes)/time.Since(start).Seconds(), "nodes/s")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

// BenchmarkMIPSparse is the sparse warm-started branch and bound with one
// node-solve worker (P1) and with GOMAXPROCS workers (PMax), on an 85-node
// instance (30 queries x 20 candidates) and a 223-node one (120 x 60). Run
// at -cpu 1,2 (`make bench-lp`), the PMax-vs-P1 pair at 2 procs is the
// evidence that the node pool pays.
func BenchmarkMIPSparse(b *testing.B) {
	for _, inst := range []struct {
		name                     string
		queries, cands, perQuery int
	}{{"q30_c20", 30, 20, 8}, {"q120_c60", 120, 60, 10}} {
		m := benchCoPhyModel(inst.queries, inst.cands, inst.perQuery)
		for _, arm := range []struct {
			name        string
			parallelism int
		}{{"P1", 1}, {"PMax", 0}} {
			b.Run(inst.name+"/"+arm.name, func(b *testing.B) {
				benchMIPNodes(b, m, func(m *Model) (*MIPResult, error) {
					return SolveMIP(m, MIPOptions{Parallelism: arm.parallelism})
				})
			})
		}
	}
}

// BenchmarkMIPDense is the retained dense cold-start seed solver on the
// small instance.
func BenchmarkMIPDense(b *testing.B) {
	benchMIPNodes(b, benchCoPhyModel(30, 20, 8), func(m *Model) (*MIPResult, error) {
		return denseSolveMIP(m, MIPOptions{})
	})
}

// BenchmarkSimplex measures one sparse revised simplex solve of a 60-var /
// 40-row LP.
func BenchmarkSimplex(b *testing.B) {
	m := NewModel()
	n := 60
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddVar(-float64(1+i%7), "x", 1, false)
	}
	for r := 0; r < 40; r++ {
		coeffs := map[int]float64{}
		for i := r % 3; i < n; i += 3 {
			coeffs[vars[i]] = float64(1 + (i+r)%5)
		}
		m.AddConstraint(coeffs, LE, float64(10+r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLP(m); err != nil {
			b.Fatal(err)
		}
	}
}
