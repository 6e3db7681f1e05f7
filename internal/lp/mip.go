package lp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// MIPOptions controls branch and bound.
type MIPOptions struct {
	// Gap is the relative optimality gap at which the search stops
	// (e.g. 0.05 mirrors the paper's mipgap=0.05 CPLEX setting). Zero means
	// solve to proven optimality.
	Gap float64
	// Deadline aborts the search; the incumbent (if any) is returned with
	// DNF set. Zero means no deadline. The deadline is polled inside
	// simplex iterations, so a single long LP cannot overrun it.
	Deadline time.Time
	// Context, if non-nil, cancels the search with the same graceful
	// degradation as Deadline: it is checked in the serial reducer loop
	// between node batches, and its own deadline (if earlier) is merged into
	// Deadline so even a single long LP honors it. On cancellation the
	// incumbent (if any) is returned with DNF set — never an error.
	Context context.Context
	// MaxNodes bounds the number of explored nodes; 0 means unlimited.
	// Hitting the limit before the gap is proven sets DNF.
	MaxNodes int
	// Parallelism is the number of worker goroutines solving node LPs.
	// 0 means GOMAXPROCS. Results are bit-identical at any setting: nodes
	// are dispatched in fixed-size batches and all incumbent, bound,
	// pseudo-cost and branching decisions happen in a serial reducer that
	// consumes batch results in deterministic order.
	Parallelism int
	// Incumbent, when non-nil, is a known feasible point (length NumVars,
	// integral on the integer variables) installed as the starting
	// incumbent, so gap-based termination can fire from the first node and
	// the search never depends on the floor heuristic stumbling onto a
	// feasible point. SolveMIP returns an error if the vector is infeasible
	// or fractional.
	Incumbent []float64
	// CrashAtUpper lists variable indices whose root LP starts nonbasic at
	// the upper bound instead of the lower (a crash hint, typically the
	// support of a heuristic solution). On variable-upper-bound structures
	// like CoPhy's z ≤ x rows, the all-lower start makes every early pivot
	// degenerate — z cannot rise until its x does — and the root LP drowns
	// in stalling; starting the hinted x columns at their bound gives those
	// rows slack immediately. Indices out of range or with a non-finite
	// upper bound are ignored; child nodes warm-start from parent bases as
	// usual. The hint only picks the starting vertex — it does not affect
	// which optimum is found.
	CrashAtUpper []int
	// Span, when non-nil, receives lp.mip child spans (one per node batch)
	// and summary attributes.
	Span *telemetry.Span
}

// MIPResult is the outcome of SolveMIP.
type MIPResult struct {
	Solution
	// Bound is the best proven lower bound on the optimum.
	Bound float64
	// Gap is the final relative gap between incumbent and bound.
	Gap float64
	// Nodes is the number of branch-and-bound nodes whose LP was solved.
	Nodes int
	// DNF reports that the deadline or node limit was hit before the gap
	// was proven ("did not finish", Table I).
	DNF bool
	// SimplexIters counts simplex iterations across all node LPs.
	SimplexIters int
	// Refactorizations counts basis refactorizations across all node LPs.
	Refactorizations int
	// WarmStartHits counts node LPs re-solved from a parent basis.
	WarmStartHits int
	// NodesPruned counts nodes discarded by bound before their LP solve.
	NodesPruned int
	// RootObjective, RootDuals and RootX report the root LP relaxation when
	// its solve reached optimality: the relaxation objective, one dual
	// multiplier per model constraint (same units and sign convention as
	// Solution.RowDuals), and the fractional primal point. Callers use the
	// duals for Lagrangian certificates over supersets of the model and the
	// fractional point for rounding heuristics. Nil/zero when the root LP
	// did not finish.
	RootObjective float64
	RootDuals     []float64
	RootX         []float64
}

// bbNode is one open branch-and-bound node. fixes is the path's bound
// tightenings; warm is the parent's basis (shared, immutable), from which
// the node LP re-solves via dual simplex — branching only changes variable
// bounds, which preserves dual feasibility of the parent basis.
type bbNode struct {
	id         int64
	bound      float64 // parent LP objective: lower bound on this subtree
	fixes      []boundFix
	warm       *basisSnapshot
	parentObj  float64
	branchVar  int32 // -1 at the root
	branchFrac float64
	branchUp   bool
}

// nodeHeap is a best-bound priority queue with deterministic tie-breaking
// on node id.
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(a, b int) bool {
	if h[a].bound != h[b].bound {
		return h[a].bound < h[b].bound
	}
	return h[a].id < h[b].id
}
func (h nodeHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return nd
}

type fracVal struct {
	v   int32
	val float64
}

// nodeResult is everything the serial reducer needs from one node LP solve.
type nodeResult struct {
	status   Status
	obj      float64
	fracs    []fracVal // fractional integer variables (ascending index)
	x        []float64 // rounded solution when integral, else nil
	floorX   []float64 // floor-heuristic incumbent candidate, else nil
	floorObj float64
	duals    []float64 // row duals (root node only)
	rootX    []float64 // fractional primal point (root node only)
	snap     *basisSnapshot
	iters    int
	refacts  int
	warm     bool
	// panicErr is set when the node LP solve panicked; the reducer surfaces
	// the first one in batch order and aborts the search.
	panicErr *fault.WorkerPanicError
}

// bbBatch is the dispatch batch size. It is intentionally independent of
// Parallelism: batch composition, reduce order, and therefore every search
// decision are identical no matter how many workers solve the LPs.
const bbBatch = 8

// SolveMIP minimizes m with integrality enforced on its integer variables,
// using warm-started parallel branch and bound: best-bound node selection,
// dual-simplex re-solves from the parent basis, pseudo-cost branching, and
// a deterministic serial reducer.
//
// SolveMIP never lets a panic escape: a panic inside a node LP solve (on any
// worker goroutine) or the reducer is recovered and returned as a
// *fault.WorkerPanicError.
func SolveMIP(m *Model, opts MIPOptions) (res *MIPResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fault.AsPanicError("lp.SolveMIP", r)
		}
	}()
	if m.NumVars() == 0 {
		return &MIPResult{Solution: Solution{Status: Optimal}}, nil
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// stop folds Context and Deadline; deadline is the merged wall-clock
	// bound polled inside simplex iterations.
	stop := fault.NewStopper(opts.Context, opts.Deadline)
	deadline := stop.Deadline()

	p := compile(m)
	span := opts.Span.Child("lp.mip")
	span.SetInt("vars", int64(p.n))
	span.SetInt("rows", int64(p.m))
	span.SetInt("parallelism", int64(workers))

	var intVars []int32
	for j := 0; j < m.NumVars(); j++ {
		if m.Integer(j) {
			intVars = append(intVars, int32(j))
		}
	}

	solvers := make([]*sparseSolver, workers)
	xbufs := make([][]float64, workers)
	for i := range solvers {
		solvers[i] = newSparseSolver(p)
		xbufs[i] = make([]float64, p.n)
	}

	res = &MIPResult{
		Solution: Solution{Status: Infeasible},
		Bound:    math.Inf(-1),
	}
	res.Objective = math.Inf(1)

	if opts.Incumbent != nil {
		obj, xi, err := checkStart(m, opts.Incumbent)
		if err != nil {
			span.Discard()
			return nil, err
		}
		res.Solution = Solution{Status: Optimal, X: xi, Objective: obj}
	}

	// Pseudo-cost state: per-variable and global objective degradation per
	// unit of fraction, learned from child LP results in reduce order.
	nVars := m.NumVars()
	pcDownSum := make([]float64, nVars)
	pcDownCnt := make([]int, nVars)
	pcUpSum := make([]float64, nVars)
	pcUpCnt := make([]int, nVars)
	var totDownSum, totUpSum float64
	var totDownCnt, totUpCnt int

	pcEst := func(v int32, up bool) float64 {
		if up {
			if pcUpCnt[v] > 0 {
				return pcUpSum[v] / float64(pcUpCnt[v])
			}
			if totUpCnt > 0 {
				return totUpSum / float64(totUpCnt)
			}
		} else {
			if pcDownCnt[v] > 0 {
				return pcDownSum[v] / float64(pcDownCnt[v])
			}
			if totDownCnt > 0 {
				return totDownSum / float64(totDownCnt)
			}
		}
		return 1
	}

	gapOK := func() bool {
		obj := res.Objective
		if math.IsInf(obj, 1) {
			return false
		}
		if obj == 0 {
			return res.Bound >= -1e-9
		}
		return (obj-res.Bound)/math.Abs(obj) <= opts.Gap+1e-12
	}

	open := &nodeHeap{}
	heap.Init(open)
	root := &bbNode{id: 0, bound: math.Inf(-1), branchVar: -1}
	if len(opts.CrashAtUpper) > 0 {
		root.warm = crashBasis(p, opts.CrashAtUpper)
	}
	heap.Push(open, root)
	nextID := int64(1)

	batch := make([]*bbNode, 0, bbBatch)
	results := make([]nodeResult, bbBatch)
	unbounded := false

search:
	for open.Len() > 0 {
		if stop.Check() != fault.StopNone {
			// Deadline or cancellation: degrade gracefully — keep the
			// incumbent and the proven bound, flag DNF.
			res.DNF = true
			break
		}
		// The best open bound is the proven global lower bound.
		if lowest := (*open)[0].bound; lowest > res.Bound {
			res.Bound = math.Min(lowest, res.Objective)
		}
		if gapOK() {
			break
		}
		if opts.MaxNodes > 0 && res.Nodes >= opts.MaxNodes {
			res.DNF = true
			break
		}

		// Assemble a batch of the best open nodes, pruning dominated ones.
		batch = batch[:0]
		limit := bbBatch
		if opts.MaxNodes > 0 && opts.MaxNodes-res.Nodes < limit {
			limit = opts.MaxNodes - res.Nodes
		}
		cut := res.Objective
		for len(batch) < limit && open.Len() > 0 {
			nd := heap.Pop(open).(*bbNode)
			if nd.bound >= cut-1e-12 {
				res.NodesPruned++
				continue
			}
			batch = append(batch, nd)
		}
		if len(batch) == 0 {
			continue
		}

		bsp := span.Child("lp.node_batch")
		bsp.SetInt("first_node", batch[0].id)
		bsp.SetInt("size", int64(len(batch)))

		// Solve the batch LPs. Each node is solved entirely by one
		// goroutine, so its floating-point path is independent of worker
		// count and scheduling.
		if workers == 1 || len(batch) == 1 {
			for i, nd := range batch {
				results[i] = solveNodeSafe(solvers[0], m, p, nd, deadline, intVars, xbufs[0])
			}
		} else {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			nw := workers
			if nw > len(batch) {
				nw = len(batch)
			}
			for w := 0; w < nw; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for {
						i := cursor.Add(1) - 1
						if i >= int64(len(batch)) {
							return
						}
						results[i] = solveNodeSafe(solvers[w], m, p, batch[i], deadline, intVars, xbufs[w])
					}
				}(w)
			}
			wg.Wait()
		}

		// Surface the first panic in batch order before reducing: every
		// worker has already returned (drained cleanly), and a batch with a
		// crashed node must not feed incumbent or branching decisions.
		for i := range batch {
			if pe := results[i].panicErr; pe != nil {
				bsp.End()
				span.End()
				return nil, pe
			}
		}

		// Serial reduce, in batch order: all search state mutates here.
		for i, nd := range batch {
			r := &results[i]
			res.Nodes++
			res.SimplexIters += r.iters
			res.Refactorizations += r.refacts
			if r.warm {
				res.WarmStartHits++
			}
			switch r.status {
			case Infeasible:
				continue
			case Unbounded:
				unbounded = true
				bsp.End()
				break search
			case IterationLimit:
				res.DNF = true
				bsp.End()
				break search
			}

			// Pseudo-cost update from the parent's branching decision.
			if nd.branchVar >= 0 {
				delta := r.obj - nd.parentObj
				if delta < 0 {
					delta = 0
				}
				denom := nd.branchFrac
				if nd.branchUp {
					denom = 1 - nd.branchFrac
				}
				if denom < 1e-6 {
					denom = 1e-6
				}
				unit := delta / denom
				if nd.branchUp {
					pcUpSum[nd.branchVar] += unit
					pcUpCnt[nd.branchVar]++
					totUpSum += unit
					totUpCnt++
				} else {
					pcDownSum[nd.branchVar] += unit
					pcDownCnt[nd.branchVar]++
					totDownSum += unit
					totDownCnt++
				}
			}

			if nd.id == 0 && r.duals != nil {
				res.RootObjective = r.obj
				res.RootDuals = r.duals
				res.RootX = r.rootX
			}

			// Incumbent candidates: an integral relaxation, or the floor
			// heuristic (flooring integer variables often stays feasible
			// for covering-free problems like CoPhy's knapsack rows).
			if r.x != nil && r.obj < res.Objective-1e-12 {
				res.Solution = Solution{Status: Optimal, X: r.x, Objective: r.obj}
			}
			if r.floorX != nil && r.floorObj < res.Objective-1e-12 {
				res.Solution = Solution{Status: Optimal, X: r.floorX, Objective: r.floorObj}
			}

			if len(r.fracs) == 0 || r.obj >= res.Objective-1e-12 {
				continue // closed: integral, or dominated after solving
			}

			// Pseudo-cost branching: maximize the product of estimated
			// objective degradations; ties to the smallest variable index.
			best := r.fracs[0]
			bestScore := math.Inf(-1)
			for _, fv := range r.fracs {
				f := fv.val - math.Floor(fv.val)
				down := pcEst(fv.v, false) * f
				up := pcEst(fv.v, true) * (1 - f)
				if down < 1e-6 {
					down = 1e-6
				}
				if up < 1e-6 {
					up = 1e-6
				}
				if score := down * up; score > bestScore {
					bestScore = score
					best = fv
				}
			}
			f := best.val - math.Floor(best.val)

			// Effective bounds of the branch variable on this path.
			blo, bup := p.lo[best.v], p.up[best.v]
			for _, fx := range nd.fixes {
				if fx.v == best.v {
					blo, bup = fx.lo, fx.hi
				}
			}
			downFixes := make([]boundFix, len(nd.fixes), len(nd.fixes)+1)
			copy(downFixes, nd.fixes)
			downFixes = append(downFixes, boundFix{best.v, blo, math.Floor(best.val)})
			upFixes := make([]boundFix, len(nd.fixes), len(nd.fixes)+1)
			copy(upFixes, nd.fixes)
			upFixes = append(upFixes, boundFix{best.v, math.Ceil(best.val), bup})

			heap.Push(open, &bbNode{
				id: nextID, bound: r.obj, fixes: downFixes, warm: r.snap,
				parentObj: r.obj, branchVar: best.v, branchFrac: f,
			})
			heap.Push(open, &bbNode{
				id: nextID + 1, bound: r.obj, fixes: upFixes, warm: r.snap,
				parentObj: r.obj, branchVar: best.v, branchFrac: f, branchUp: true,
			})
			nextID += 2
		}
		if !math.IsInf(res.Bound, -1) {
			// No bound is proven before the root LP solves, and JSON has no
			// -Inf: the first batch's span omits the attribute.
			bsp.SetFloat("bound", res.Bound)
		}
		bsp.SetInt("open", int64(open.Len()))
		bsp.End()
	}

	if unbounded {
		res.Solution = Solution{Status: Unbounded}
	}
	if open.Len() == 0 && !res.DNF && !unbounded {
		// Search exhausted: the incumbent (if any) is optimal.
		if !math.IsInf(res.Objective, 1) {
			res.Bound = res.Objective
		}
	}
	if !math.IsInf(res.Objective, 1) {
		res.Gap = 0
		if res.Objective != 0 {
			res.Gap = (res.Objective - res.Bound) / math.Abs(res.Objective)
		}
		if res.Gap < 0 {
			res.Gap = 0
		}
	} else {
		res.Gap = math.Inf(1)
	}
	res.Iterations = res.SimplexIters

	span.SetInt("nodes", int64(res.Nodes))
	span.SetInt("nodes_pruned", int64(res.NodesPruned))
	span.SetInt("simplex_iters", int64(res.SimplexIters))
	span.SetInt("refactorizations", int64(res.Refactorizations))
	span.SetInt("warm_start_hits", int64(res.WarmStartHits))
	span.SetBool("dnf", res.DNF)
	span.End()

	reg := telemetry.Default()
	reg.Counter("indexsel_lp_simplex_iterations_total",
		"Simplex iterations across all branch-and-bound node LPs.").Add(int64(res.SimplexIters))
	reg.Counter("indexsel_lp_refactorizations_total",
		"Basis refactorizations across all node LPs.").Add(int64(res.Refactorizations))
	reg.Counter("indexsel_lp_warm_start_hits_total",
		"Node LPs re-solved from a parent basis via dual simplex.").Add(int64(res.WarmStartHits))
	reg.Counter("indexsel_lp_nodes_pruned_total",
		"Branch-and-bound nodes discarded by bound before their LP solve.").Add(int64(res.NodesPruned))

	return res, nil
}

// solveNodeSafe runs solveNode with panic isolation: a panicking node solve
// on a worker goroutine is converted into a nodeResult carrying the
// structured error instead of crashing the process.
func solveNodeSafe(s *sparseSolver, m *Model, p *prob, nd *bbNode, deadline time.Time, intVars []int32, xbuf []float64) (r nodeResult) {
	defer func() {
		if rec := recover(); rec != nil {
			r = nodeResult{panicErr: fault.AsPanicError("lp.solveNode", rec)}
		}
	}()
	return solveNode(s, m, p, nd, deadline, intVars, xbuf)
}

// solveNode solves one node LP on a worker-owned solver. It is the only
// code that runs concurrently; everything it returns is reduced serially.
func solveNode(s *sparseSolver, m *Model, p *prob, nd *bbNode, deadline time.Time, intVars []int32, xbuf []float64) nodeResult {
	r0 := s.refacts
	s.reset(nd.fixes, nd.warm)
	st := s.optimize(deadline)
	// The root's crash basis is a starting hint, not a parent re-solve, so it
	// does not count as a warm-start hit.
	r := nodeResult{status: st, iters: s.iters, refacts: s.refacts - r0, warm: nd.warm != nil && nd.id != 0}
	if st != Optimal {
		return r
	}
	r.obj = s.objValue() + m.objConst
	s.primalX(xbuf)
	if nd.id == 0 {
		r.duals = s.rowDuals()
		r.rootX = append([]float64(nil), xbuf...)
	}
	for _, v := range intVars {
		xv := xbuf[v]
		f := xv - math.Floor(xv)
		if f > 1e-6 && f < 1-1e-6 {
			r.fracs = append(r.fracs, fracVal{v, xv})
		}
	}
	if len(r.fracs) == 0 {
		x := make([]float64, len(xbuf))
		copy(x, xbuf)
		for _, v := range intVars {
			x[v] = math.Round(x[v])
		}
		r.x = x
		return r
	}
	if obj, fx, ok := floorFeasible(m, xbuf); ok {
		r.floorObj, r.floorX = obj, fx
	}
	r.snap = s.snapshot()
	return r
}

// floorFeasible floors the integer components of x and reports the resulting
// point's objective if it satisfies every model constraint.
func floorFeasible(m *Model, x []float64) (float64, []float64, bool) {
	rounded := append([]float64(nil), x[:m.NumVars()]...)
	for i := range rounded {
		if m.Integer(i) {
			rounded[i] = math.Floor(rounded[i] + 1e-9)
		}
	}
	for _, c := range m.cons {
		var lhs float64
		for k, j := range c.Cols {
			lhs += c.Vals[k] * rounded[j]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+1e-9 {
				return 0, nil, false
			}
		case GE:
			if lhs < c.RHS-1e-9 {
				return 0, nil, false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > 1e-9 {
				return 0, nil, false
			}
		}
	}
	obj := m.objConst
	for i, v := range rounded {
		obj += m.obj[i] * v
	}
	return obj, rounded, true
}

// checkStart validates a caller-supplied starting incumbent: right length,
// within variable bounds, integral on integer variables, and satisfying every
// constraint. It returns the point's objective and a defensive copy with the
// integer components snapped to their nearest integer.
func checkStart(m *Model, x []float64) (float64, []float64, error) {
	if len(x) != m.NumVars() {
		return 0, nil, fmt.Errorf("lp: incumbent has %d entries, model has %d variables", len(x), m.NumVars())
	}
	xi := append([]float64(nil), x...)
	for j, v := range xi {
		if m.Integer(j) {
			r := math.Round(v)
			if math.Abs(v-r) > 1e-6 {
				return 0, nil, fmt.Errorf("lp: incumbent is fractional on integer variable %s (%g)", m.names[j], v)
			}
			xi[j] = r
		}
		if xi[j] < -1e-9 || xi[j] > m.upper[j]+1e-9 {
			return 0, nil, fmt.Errorf("lp: incumbent violates bounds of %s (%g not in [0, %g])", m.names[j], xi[j], m.upper[j])
		}
	}
	for ci, c := range m.cons {
		var lhs float64
		for k, j := range c.Cols {
			lhs += c.Vals[k] * xi[j]
		}
		tol := 1e-6 + 1e-9*math.Abs(c.RHS)
		ok := true
		switch c.Sense {
		case LE:
			ok = lhs <= c.RHS+tol
		case GE:
			ok = lhs >= c.RHS-tol
		case EQ:
			ok = math.Abs(lhs-c.RHS) <= tol
		}
		if !ok {
			return 0, nil, fmt.Errorf("lp: incumbent violates constraint %d (%g %v %g)", ci, lhs, c.Sense, c.RHS)
		}
	}
	obj := m.objConst
	for j, v := range xi {
		obj += m.obj[j] * v
	}
	return obj, xi, nil
}
