// Lazy-greedy (CELF) step loop. Instead of re-evaluating every candidate
// each construction step (collect, the uncached sweep), the selector keeps
// one persistent entry per candidate carrying the outcome of its last
// evaluation plus enough bookkeeping to derive a SOUND upper bound on its
// current benefit/memory ratio, and each step pops candidates from a
// max-heap of those bounds, re-evaluating only until the best remaining
// bound cannot beat the decided winner.
//
// Plain CELF assumes submodularity: a stale gain is itself an upper bound.
// That does NOT hold here — two effects can RAISE a candidate's gain after
// other steps: (a) applying or dropping an index can increase a query's
// current cost (extensions can degrade short queries, removals always can),
// which increases what any candidate covering that query has left to win;
// (b) an extension candidate's gain includes the loss of removing its base
// index, and that loss shrinks when another index starts serving the same
// queries. The loop therefore bounds with two sound ingredients instead of
// the raw stale gain:
//
//   - optGain, the optimistic surrogate recorded at evaluation time:
//     sum_q freq * (cost[q] - cand_q)^+ - maintDelta. For new-index kinds it
//     equals the gain; for extension kinds it dominates the gain because the
//     per-query gain is old - min(alt, ext) with alt >= old (effect (b) can
//     only close the gap between gain and optGain, never push the gain above
//     it).
//   - rise[b], a per-lead-attribute accumulator of freq-weighted NET cost
//     increases of co-occurring queries. optGain is 1-Lipschitz in each
//     query cost, so optGain(now) <= optGain(then) + (rise_now - rise_then)
//     covers effect (a).
//
// The memory delta of a candidate is constant while its base stays selected
// (sizes and maintenance are selection-independent), and candidates whose
// base was unselected or that entered the selection die in the per-step
// universe rebuild, so
//
//	bound(e) = (optGain_e + rise[b] - riseAt_e + slack[b]) / deltaMem_e
//
// is an upper bound on e's current ratio. slack[b] is an absolute numerator
// cushion of 1e-9 times the bucket's total freq-weighted base cost — about
// four orders of magnitude above the worst-case accumulated float64 rounding
// of the sums involved, and harmless for pruning because gains that small are
// noise — which keeps the bound sound under floating-point arithmetic, not
// just on paper. That is what makes exact mode EXACT: the loop only ever
// skips candidates whose true ratio provably cannot beat (or tie) the
// winner, so the decided step, runner-up, and stop reason are bit-identical
// to the sweep's.
//
// On top of the entry heap sits one sentinel per lead-attribute bucket:
// buckets keep an aggregate bound (max entry bound at a recorded rise level,
// plus the bucket's minimum memory delta to convert future rise into ratio),
// so a bucket whose aggregate cannot beat the winner costs one heap node per
// step — its entries are never touched, no evalTask is rebuilt.
//
// Universe maintenance exploits that a step's candidate-set changes are
// confined to the applied (or dropped) index's lead bucket: extensions of
// the new index appear, extensions of the replaced one die, replaced singles
// resurface. Only that bucket is re-enumerated ("dirty"); every other
// bucket's entry list is reused as-is. Exactness of surviving entries is
// tracked by two per-bucket epochs, split by step kind. A mutation only
// touches cost[]/served[] of the queries in its lead's queriesWith, so only
// buckets whose lead co-occurs with it in some query can go stale. Extension
// gains read served[], which every such mutation rewrites: extEpoch, bumped
// for every co-occurring bucket, governs extension entries. New-index gains
// are pure functions of cost[]: newEpoch, bumped only when a co-occurring
// query's cost net-changed, governs new-index entries. An entry whose epoch
// still matches is served from cache without re-evaluation.
//
// Determinism: the heap is built and consumed serially with a push-sequence
// tie-break, and stale candidates are re-evaluated in constant-size batches
// (lazyBatchSize, independent of the worker count) on the PR-1 worker pool,
// so the set of evaluated candidates — and with it the whole trace and the
// Step accounting — is identical at every Parallelism. The stop rule is
// strict (top bound < threshold): candidates whose bound ties the winner are
// still evaluated so tie-breaks match the sweep. Options.Approximate
// relaxes only this cut to threshold*(1+eps), trading exactness of the step
// choice (within a (1+eps) ratio factor) for fewer evaluations.
package core

import (
	"math"
	"sort"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/workload"
)

// lazyBatchSize is the number of stale candidates re-evaluated per worker-pool
// dispatch. A constant — never derived from the worker count — so the set of
// candidates evaluated before the stop threshold is reached is identical at
// every Parallelism.
const lazyBatchSize = 64

// lazyBoundSlackRel scales each bucket's total freq-weighted base cost into
// the absolute numerator slack added to every stale bound. See the package
// comment for the sizing argument.
const lazyBoundSlackRel = 1e-9

// lazyEntry is the persistent per-candidate record.
type lazyEntry struct {
	key  gainKey
	task evalTask
	lead int32

	evaluated bool // the fields below hold a recorded evaluation
	dead      bool // deltaMem <= 0 at evaluation: can never become viable
	viable    bool // gain > 0 && deltaMem > 0 at last evaluation
	cand      candidate
	optGain   float64 // optimistic surrogate gain at evaluation time
	dmf       float64 // deltaMem (constant while the candidate stays valid)
	riseAt    float64 // rise[lead] at evaluation time
	epochAt   uint64  // kind-appropriate bucket epoch at evaluation time
}

// lazyBucket holds one lead attribute's candidates and aggregate bound.
type lazyBucket struct {
	entries  []*lazyEntry // deterministic rebuild order
	byKey    map[gainKey]*lazyEntry
	unevaled int // entries never evaluated (bound +Inf: bucket must open)

	// Aggregate bound: max entry bound recorded at rise level aggRiseAt,
	// with minDM converting rise growth since then into ratio growth. Sound
	// for any later rise because every live entry satisfied
	// bound(e) <= agg at aggRiseAt and has dmf >= minDM.
	agg       float64
	aggRiseAt float64
	minDM     float64
	hasAgg    bool
}

// lazyState is the selector's CELF machinery, indexed by lead attribute.
type lazyState struct {
	extEpoch []uint64  // bumped when served[]/cost of a co-occurring query changed
	newEpoch []uint64  // bumped when a co-occurring query's cost net-changed
	rise     []float64 // accumulated freq-weighted net cost increases
	slack    []float64 // absolute numerator slack per bucket
	dirty    []bool    // bucket universe must be re-enumerated
	buckets  []lazyBucket

	heap   lazyHeap
	opened []int32 // buckets opened during the current step (scratch)
}

// lazyAuditHook, when non-nil, runs after every lazy step decision, before
// anything mutates the frozen state: lazy_test.go re-evaluates every
// candidate through it — including the pruned ones — to check the bounds'
// soundness. Test instrumentation; nil in production.
var lazyAuditHook func(s *selector)

func newLazyState(s *selector) *lazyState {
	n := s.w.NumAttrs()
	lz := &lazyState{
		extEpoch: make([]uint64, n),
		newEpoch: make([]uint64, n),
		rise:     make([]float64, n),
		slack:    make([]float64, n),
		dirty:    make([]bool, n),
		buckets:  make([]lazyBucket, n),
	}
	for b := range lz.dirty {
		lz.dirty[b] = true // first step enumerates (and evaluates) everything
	}
	for b, qs := range s.queriesWith {
		var wgt float64
		for _, qid := range qs {
			wgt += float64(s.w.Queries[qid].Freq) * s.base[qid]
		}
		lz.slack[b] = lazyBoundSlackRel * wgt
	}
	return lz
}

// epoch returns the bucket epoch governing entries of the given step kind.
func (lz *lazyState) epoch(kind StepKind, b int) uint64 {
	if kind == StepNewIndex || kind == StepNewPair {
		return lz.newEpoch[b]
	}
	return lz.extEpoch[b]
}

// entryBound is the sound stale upper bound on e's current ratio.
func (lz *lazyState) entryBound(e *lazyEntry) float64 {
	b := e.lead
	return (e.optGain + (lz.rise[b] - e.riseAt) + lz.slack[b]) / e.dmf
}

// noteMutation is mutateStep's lazy arm: translate one applied/dropped
// step's net per-query cost movement into epoch bumps and rise accumulation,
// and mark the mutated lead bucket's universe dirty.
func (lz *lazyState) noteMutation(s *selector, lead int, snap []float64) {
	lz.dirty[lead] = true
	for i, qid := range s.queriesWith[lead] {
		q := s.w.Queries[qid]
		old, now := snap[i], s.cost[qid]
		var riseDelta float64
		if now > old {
			riseDelta = float64(q.Freq) * (now - old)
		}
		for _, a := range q.Attrs {
			lz.extEpoch[a]++
			if now != old {
				lz.newEpoch[a]++
				lz.rise[a] += riseDelta
			}
		}
	}
}

// rebuildBucket re-enumerates bucket b's candidate universe, reusing the
// surviving entries (with their recorded evaluations — the epoch check
// decides whether those are still exact) and creating unevaluated entries
// for newcomers. Serial phase: interning is allowed here.
func (s *selector) rebuildBucket(b int) {
	lz := s.lazy
	bk := &lz.buckets[b]
	old := bk.byKey
	bk.entries = bk.entries[:0]
	bk.byKey = make(map[gainKey]*lazyEntry, len(old)+1)
	add := func(t evalTask) {
		key := gainKey{t.kind, t.id}
		if _, dup := bk.byKey[key]; dup {
			return
		}
		e, ok := old[key]
		if !ok {
			e = &lazyEntry{key: key, task: t, lead: int32(b)}
		}
		bk.entries = append(bk.entries, e)
		bk.byKey[key] = e
	}

	// Step (3a): the bucket's single-attribute index.
	if len(s.singles[b].Attrs) > 0 && len(s.queriesWith[b]) > 0 &&
		(s.singleAllowed == nil || s.singleAllowed[b]) && !s.sel.Has(s.singleIDs[b]) {
		add(evalTask{kind: StepNewIndex, index: s.singles[b], id: s.singleIDs[b]})
	}

	// Step (3b): one-attribute extensions of selected indexes leading with b.
	sel := s.sortedSel()
	for _, e := range sel {
		if e.k.Leading() != b {
			continue
		}
		for _, a := range s.w.Tables[e.k.Table].Attrs {
			if e.k.Contains(a) {
				continue
			}
			ext := e.k.Append(a)
			extID := s.in.Intern(ext)
			if s.sel.Has(extID) {
				continue
			}
			add(evalTask{kind: StepExtend, index: ext, id: extID, base: e.k, baseID: e.id, hasBase: true})
		}
	}

	if s.opts.PairSteps {
		for _, p := range s.pairUniverse() {
			if p[0] == b {
				idx := workload.Index{Table: s.w.TableOf(p[0]), Attrs: []int{p[0], p[1]}}
				id := s.in.Intern(idx)
				if !s.sel.Has(id) {
					add(evalTask{kind: StepNewPair, index: idx, id: id})
				}
			}
			for _, e := range sel {
				if e.k.Leading() != b || e.k.Table != s.w.TableOf(p[0]) ||
					e.k.Contains(p[0]) || e.k.Contains(p[1]) {
					continue
				}
				ext := e.k.Append(p[0]).Append(p[1])
				extID := s.in.Intern(ext)
				if s.sel.Has(extID) {
					continue
				}
				add(evalTask{kind: StepExtendPair, index: ext, id: extID, base: e.k, baseID: e.id, hasBase: true})
			}
		}
	}

	bk.unevaled = 0
	for _, e := range bk.entries {
		if !e.evaluated {
			bk.unevaled++
		}
	}
	// The surviving aggregate (if any) is still sound: dropped entries only
	// removed constraints, and newcomers force the +Inf sentinel via
	// unevaled anyway.
}

// recordLazy stores a fresh evaluation into its entry.
func (s *selector) recordLazy(e *lazyEntry, r gainEntry) {
	lz := s.lazy
	b := int(e.lead)
	if !e.evaluated {
		lz.buckets[b].unevaled--
	}
	e.evaluated = true
	e.viable = r.ok
	e.cand = r.c
	e.optGain = r.optGain
	if r.dm <= 0 {
		e.dead = true
	} else {
		e.dmf = float64(r.dm)
	}
	e.riseAt = lz.rise[b]
	e.epochAt = lz.epoch(e.key.kind, b)
}

// refreshAgg recomputes bucket b's aggregate bound from its entries' current
// stale-form bounds. Called at the end of a step for every opened bucket,
// while all its entries hold fresh-or-exact evaluations.
func (lz *lazyState) refreshAgg(b int) {
	bk := &lz.buckets[b]
	agg, minDM := math.Inf(-1), math.Inf(1)
	for _, e := range bk.entries {
		if !e.evaluated || e.dead {
			continue
		}
		if bnd := lz.entryBound(e); bnd > agg {
			agg = bnd
		}
		if e.dmf < minDM {
			minDM = e.dmf
		}
	}
	bk.agg, bk.aggRiseAt, bk.minDM, bk.hasAgg = agg, lz.rise[b], minDM, true
}

// collectLazy is the CELF replacement for collect(): same contract, same
// bit-identical decision in exact mode, but only the candidates whose bounds
// reach the evolving threshold are (re)evaluated.
func (s *selector) collectLazy() (best, second candidate, haveSecond, ok bool, err error) {
	lz := s.lazy

	// Serial phase: refresh dirty bucket universes, then cover any freshly
	// interned IDs before workers may touch the flat tables.
	for b := range lz.dirty {
		if lz.dirty[b] {
			s.rebuildBucket(b)
			lz.dirty[b] = false
		}
	}
	s.ensure()

	total := 0
	lz.heap.reset()
	for b := range lz.buckets {
		bk := &lz.buckets[b]
		n := len(bk.entries)
		total += n
		if n == 0 {
			continue
		}
		prio := math.Inf(1)
		if bk.unevaled == 0 && bk.hasAgg {
			prio = bk.agg + (lz.rise[b]-bk.aggRiseAt)/bk.minDM
		}
		lz.heap.push(prio, int32(b), nil)
	}

	evaluated, cached := 0, 0
	budgetExcluded, approxCut, stopped := false, false, false

	reduce := func(c candidate) {
		if s.mem+c.deltaMem > s.opts.Budget {
			budgetExcluded = true
			return
		}
		if !ok || better(c, best) {
			if ok {
				second, haveSecond = best, true
			}
			best, ok = c, true
		} else if !haveSecond || better(c, second) {
			second, haveSecond = c, true
		}
	}
	// threshold is the ratio the top bound must reach for further evaluation
	// to be able to change the step's outcome. Without a winner — or without
	// a runner-up when one must be reported — there is no sound cut yet.
	threshold := func() (float64, bool) {
		if !ok || (s.opts.TrackSecondBest && !haveSecond) {
			return 0, false
		}
		if s.opts.TrackSecondBest {
			return second.ratio, true
		}
		return best.ratio, true
	}

	batch := make([]*lazyEntry, 0, lazyBatchSize)
	tasks := make([]evalTask, lazyBatchSize)
	results := make([]gainEntry, lazyBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n := len(batch)
		for i, e := range batch {
			tasks[i] = e.task
		}
		if err := s.evalAll(tasks[:n], results[:n]); err != nil {
			return err
		}
		if r := s.stop.Check(); r != fault.StopNone {
			// Workers drained; results may be incomplete. Discard the step,
			// leaving the entries' previous (still sound) state untouched.
			s.stopReason = r
			stopped = true
			return nil
		}
		evaluated += n
		for i, e := range batch {
			s.recordLazy(e, results[i])
			if results[i].ok {
				reduce(results[i].c)
			}
		}
		batch = batch[:0]
		return nil
	}

	lz.opened = lz.opened[:0]
	for lz.heap.len() > 0 {
		top := lz.heap.peekPrio()
		if t, have := threshold(); have {
			cut := t
			if s.opts.Approximate > 0 {
				cut = t * (1 + s.opts.Approximate)
			}
			if top < cut {
				approxCut = top >= t // only reachable with Approximate > 0
				break
			}
		}
		it := lz.heap.pop()
		if it.entry == nil {
			// Bucket sentinel: open the bucket, pricing each entry.
			b := int(it.bucket)
			lz.opened = append(lz.opened, it.bucket)
			for _, e := range lz.buckets[b].entries {
				switch {
				case !e.evaluated:
					lz.heap.push(math.Inf(1), it.bucket, e)
				case e.dead:
					cached++ // known non-viable forever, no recomputation
				case lz.epoch(e.key.kind, b) == e.epochAt:
					cached++ // exact: the recorded evaluation still holds
					if e.viable {
						lz.heap.push(e.cand.ratio, it.bucket, e)
					}
				default:
					lz.heap.push(lz.entryBound(e), it.bucket, e)
				}
			}
			continue
		}
		e := it.entry
		if e.evaluated && !e.dead && lz.epoch(e.key.kind, int(e.lead)) == e.epochAt {
			reduce(e.cand) // exact entries were pushed only when viable
			continue
		}
		batch = append(batch, e)
		if len(batch) == lazyBatchSize {
			if err := flush(); err != nil {
				return candidate{}, candidate{}, false, false, err
			}
			if stopped {
				return candidate{}, candidate{}, false, false, nil
			}
		}
	}
	if err := flush(); err != nil {
		return candidate{}, candidate{}, false, false, err
	}
	if !stopped {
		if r := s.stop.Check(); r != fault.StopNone {
			s.stopReason = r
			stopped = true
		}
	}
	if stopped {
		return candidate{}, candidate{}, false, false, nil
	}

	for _, b := range lz.opened {
		lz.refreshAgg(int(b))
	}

	s.lastCandidates, s.lastEvaluated = total, evaluated
	s.lastCached, s.lastPruned = cached, total-evaluated-cached
	s.totalEvaluated += evaluated
	s.totalCached += cached
	s.totalPruned += s.lastPruned
	mLazyEvalsSaved.Add(int64(s.lastPruned))
	mLazyHeapDepth.Set(float64(lz.heap.maxLen))
	if approxCut {
		mLazyApproxSteps.Inc()
	}
	if s.opts.Explain && ok {
		lz.captureLedger(s)
	}

	if lazyAuditHook != nil {
		lazyAuditHook(s)
	}

	if !ok {
		// Nothing viable in budget. No threshold ever existed, so every
		// bucket was opened and every entry consulted or evaluated — the
		// budget-exclusion verdict is exactly the sweep's.
		if budgetExcluded {
			s.stopReason = fault.StopBudget
		} else {
			s.stopReason = fault.StopConverged
		}
	}
	return best, second, haveSecond, ok, nil
}

// captureLedger builds the decided step's prune ledger from the heap items
// the cut left behind: a remaining bucket sentinel means the whole bucket
// was pruned by its aggregate bound without being opened; a remaining entry
// item is an individually pruned stale candidate (exact entries left on the
// heap were already counted cache-served and are excluded). The ledger's
// Skipped total therefore equals the step's Pruned count exactly. Read-only
// over the heap; runs only under Options.Explain, after the decision is
// final — it cannot perturb the trace.
func (lz *lazyState) captureLedger(s *selector) {
	bkts := make(map[int32]*explain.PrunedBucket)
	order := make([]int32, 0, 16)
	skipped := 0
	for _, it := range lz.heap.items {
		if it.entry == nil {
			b := it.bucket
			bk := &lz.buckets[b]
			n := len(bk.entries)
			bkts[b] = &explain.PrunedBucket{
				Lead:    int(b),
				Bound:   it.prio,
				Epoch:   lz.extEpoch[b],
				Entries: n,
				Skipped: n,
			}
			order = append(order, b)
			skipped += n
			continue
		}
		e := it.entry
		if e.evaluated && !e.dead && lz.epoch(e.key.kind, int(e.lead)) == e.epochAt {
			continue // exact: counted cache-served at bucket open
		}
		pb, okb := bkts[e.lead]
		if !okb {
			pb = &explain.PrunedBucket{
				Lead:    int(e.lead),
				Bound:   math.Inf(-1),
				Epoch:   lz.extEpoch[e.lead],
				Entries: len(lz.buckets[e.lead].entries),
				Opened:  true,
			}
			bkts[e.lead] = pb
			order = append(order, e.lead)
		}
		pb.Skipped++
		if it.prio > pb.Bound {
			pb.Bound = it.prio
		}
		skipped++
	}

	ledger := make([]explain.PrunedBucket, 0, len(order))
	for _, b := range order {
		ledger = append(ledger, *bkts[b])
	}
	sort.Slice(ledger, func(i, j int) bool {
		if ledger[i].Bound != ledger[j].Bound {
			return ledger[i].Bound > ledger[j].Bound
		}
		return ledger[i].Lead < ledger[j].Lead
	})
	s.lastLedgerBkts, s.lastLedgerSkip = len(ledger), skipped
	s.lastLedgerTrunc = len(ledger) > explain.MaxPruneLedger
	if s.lastLedgerTrunc {
		ledger = ledger[:explain.MaxPruneLedger]
	}
	s.lastLedger = ledger
}

// lazyItem is one heap node: a candidate entry, or a bucket sentinel when
// entry is nil.
type lazyItem struct {
	prio   float64
	seq    int32 // deterministic tie-break: push order
	bucket int32
	entry  *lazyEntry
}

// lazyHeap is a serial max-heap over bound priorities with a push-order
// tie-break, so pop order — and with it the evaluated set — is deterministic.
type lazyHeap struct {
	items  []lazyItem
	next   int32
	maxLen int
}

func (h *lazyHeap) reset() {
	h.items = h.items[:0]
	h.next = 0
	h.maxLen = 0
}

func (h *lazyHeap) len() int { return len(h.items) }

func (h *lazyHeap) peekPrio() float64 { return h.items[0].prio }

func (h *lazyHeap) before(a, b lazyItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (h *lazyHeap) push(prio float64, bucket int32, e *lazyEntry) {
	it := lazyItem{prio: prio, seq: h.next, bucket: bucket, entry: e}
	h.next++
	h.items = append(h.items, it)
	if len(h.items) > h.maxLen {
		h.maxLen = len(h.items)
	}
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *lazyHeap) pop() lazyItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && h.before(h.items[r], h.items[l]) {
			c = r
		}
		if !h.before(h.items[c], h.items[i]) {
			break
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
	return top
}
