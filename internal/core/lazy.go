// Lazy-greedy (CELF) step loop. Instead of re-evaluating every candidate
// each construction step (the uncached sweep), the selector keeps
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
//	bound(e) = (optGain_e + rise[b] - riseAt_e + slack[b] - recon_e) / deltaMem_e
//
// is an upper bound on e's current ratio. recon_e is the step's change in
// the priced reconfiguration term (Options.Reconfig): created bytes are
// counted against a fixed deployed set, so it is a constant per candidate.
// It is subtracted last, in the bound as in the gain, so rounding (which is
// monotone) cannot let it break the bound however large the price.
// slack[b] is an absolute numerator
// cushion of 1e-9 times the bucket's total freq-weighted base cost — about
// four orders of magnitude above the worst-case accumulated float64 rounding
// of the sums involved, and harmless for pruning because gains that small are
// noise — which keeps the bound sound under floating-point arithmetic, not
// just on paper. That is what makes exact mode EXACT: the loop only ever
// skips candidates whose true ratio provably cannot beat (or tie) the
// winner, so the decided step, runner-up, and stop reason are bit-identical
// to the sweep's.
//
// Beside the entry heap sits one sentinel per lead-attribute bucket, so a
// bucket whose key cannot beat the winner is never opened — its entries are
// never touched, no evalTask is rebuilt. Each opening records two keys. The
// tight key is the largest priority the bucket's entries would be pushed at:
// the recorded ratio of an epoch-exact viable entry, the stale bound of any
// other, and at least 0 (a viable ratio is positive). It keys the sentinel
// while both bucket epochs still equal the ones it was recorded at, because
// until then every exact ratio is current and rise (which moves only with a
// newEpoch bump) leaves every stale bound unchanged. Once an epoch moves,
// noteMutation re-keys the bucket with the stale-form aggregate: the max
// entry bound at a recorded rise level, plus the bucket's minimum memory
// delta to convert future rise into ratio. A bucket whose entries are all
// still exact thus stays closed until the threshold falls to its best
// ratio. The sentinels live in
// a heap that persists across steps and is re-keyed only for buckets whose
// inputs changed, and every other per-step structure (dirty buckets,
// re-keys, the candidate total) is a list or counter of what changed, so a
// step's bookkeeping scales with what the step changed, not with the number
// of attributes or the size of the selection.
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
// Determinism: both heaps are consumed with fixed tie-breaks (sentinel
// before entry, then bucket index or push sequence), and stale candidates
// are re-evaluated in constant-size batches (lazyBatchSize) whose results are
// reduced only once the whole batch is in, so the set of evaluated
// candidates — and with it the whole trace and the Step accounting — is a
// fixed function of the workload and options. The stop rule is strict
// (top bound < threshold): candidates whose bound ties the winner are still
// evaluated so tie-breaks match the sweep. Options.Approximate relaxes only
// this cut to threshold*(1+eps), trading exactness of the step choice
// (within a (1+eps) ratio factor) for fewer evaluations.
package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/explain"
	"repro/internal/fault"
	"repro/internal/workload"
)

// lazyBatchSize is the number of stale candidates popped and re-evaluated
// before their results are reduced and the stop threshold is re-checked. It
// pins the per-step accounting (Step.Evaluated, Step.Pruned): a batch may
// evaluate candidates a one-at-a-time loop would have pruned, and the
// committed lazy golden (testdata/lazy_golden_erp.txt) records the counts
// this size produces.
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
	recon     float64 // the step's change in R (constant per candidate)
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

	// Tight key (see the package comment), valid while extEpoch and
	// newEpoch still equal tightExt and tightNew. tight marks a sentinel
	// currently keyed by it, so noteMutation re-keys exactly the buckets
	// that fall back to agg.
	tightKey           float64
	tightExt, tightNew uint64
	tight              bool
}

// lazyState is the selector's CELF machinery, indexed by lead attribute.
// Everything a step touches is found through lists of what changed (dirty
// buckets, re-keyed sentinels, opened buckets), so a step's bookkeeping
// costs what the step changed — never a pass over every bucket.
type lazyState struct {
	extEpoch []uint64  // bumped when served[]/cost of a co-occurring query changed
	newEpoch []uint64  // bumped when a co-occurring query's cost net-changed
	rise     []float64 // accumulated freq-weighted net cost increases
	slack    []float64 // absolute numerator slack per bucket
	buckets  []lazyBucket

	// dirty holds the buckets whose universe must be re-enumerated before
	// the next decision; rekey those whose sentinel priority inputs — rise,
	// aggregate, unevaluated count, entry count — changed since the sentinel
	// was last keyed.
	dirty bucketSet
	rekey bucketSet
	// total is the number of entries across all buckets, kept by
	// rebuildBucket: the step's Candidates count.
	total int

	// sentinels holds one node per non-empty bucket and lives across steps;
	// a bucket a step opens leaves it until the next step re-keys it. heap
	// holds the opened buckets' entries and is emptied every step.
	sentinels sentinelHeap
	heap      lazyHeap
	opened    []int32 // buckets opened during the current step

	// Evaluation batch scratch, reused across steps.
	batch   []*lazyEntry
	tasks   []evalTask
	results []gainEntry
}

// lazyAuditHook, when non-nil, runs after every lazy step decision, before
// anything mutates the frozen state: lazy_test.go re-evaluates every
// candidate through it — including the pruned ones — to check the bounds'
// soundness. Test instrumentation; nil in production.
var lazyAuditHook func(s *selector)

func newLazyState(s *selector) *lazyState {
	n := s.w.NumAttrs()
	lz := &lazyState{
		extEpoch:  make([]uint64, n),
		newEpoch:  make([]uint64, n),
		rise:      make([]float64, n),
		slack:     make([]float64, n),
		buckets:   make([]lazyBucket, n),
		dirty:     newBucketSet(n),
		rekey:     newBucketSet(n),
		sentinels: newSentinelHeap(n),
		batch:     make([]*lazyEntry, 0, lazyBatchSize),
		tasks:     make([]evalTask, lazyBatchSize),
		results:   make([]gainEntry, lazyBatchSize),
	}
	for b := 0; b < n; b++ {
		lz.dirty.add(b) // first step enumerates (and evaluates) everything
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

// bucketSet is a set of buckets kept as a member list plus a membership
// flag per bucket: adding is O(1) and draining visits only the members.
type bucketSet struct {
	in      []bool
	members []int32
}

func newBucketSet(n int) bucketSet { return bucketSet{in: make([]bool, n)} }

func (bs *bucketSet) add(b int) {
	if !bs.in[b] {
		bs.in[b] = true
		bs.members = append(bs.members, int32(b))
	}
}

// drain calls f on every member in insertion order and empties the set.
func (bs *bucketSet) drain(f func(b int)) {
	for _, b := range bs.members {
		bs.in[b] = false
		f(int(b))
	}
	bs.members = bs.members[:0]
}

// keySentinel recomputes bucket b's sentinel priority from its current
// inputs and files it in the sentinel heap: +Inf while the bucket holds an
// unevaluated entry or has no aggregate yet; else the tight key while the
// bucket's epochs still equal its stamp; else the aggregate advanced by the
// rise since it was recorded. An empty bucket has no sentinel.
func (lz *lazyState) keySentinel(b int) {
	bk := &lz.buckets[b]
	bk.tight = false
	if len(bk.entries) == 0 {
		lz.sentinels.remove(int32(b))
		return
	}
	prio := math.Inf(1)
	switch {
	case bk.unevaled > 0 || !bk.hasAgg:
	case lz.extEpoch[b] == bk.tightExt && lz.newEpoch[b] == bk.tightNew:
		prio, bk.tight = bk.tightKey, true
	default:
		prio = bk.agg + (lz.rise[b]-bk.aggRiseAt)/bk.minDM
	}
	lz.sentinels.set(int32(b), prio)
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
	return (e.optGain + (lz.rise[b] - e.riseAt) + lz.slack[b] - e.recon) / e.dmf
}

// noteMutation is mutateStep's lazy arm: translate one applied/dropped
// step's net per-query cost movement into epoch bumps and rise accumulation,
// mark the mutated lead bucket's universe dirty, and schedule a re-key of
// every sentinel whose rise grew or whose tight key the bump voids.
func (lz *lazyState) noteMutation(s *selector, lead int, snap []float64) {
	lz.dirty.add(lead)
	for i, qid := range s.queriesWith[lead] {
		q := s.w.Queries[qid]
		old, now := snap[i], s.cost[qid]
		var riseDelta float64
		if now > old {
			riseDelta = float64(q.Freq) * (now - old)
		}
		for _, a := range q.Attrs {
			lz.extEpoch[a]++
			if bk := &lz.buckets[a]; bk.tight {
				bk.tight = false
				lz.rekey.add(a)
			}
			if now != old {
				lz.newEpoch[a]++
				lz.rise[a] += riseDelta
				if riseDelta > 0 {
					lz.rekey.add(a)
				}
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
	lz.total -= len(bk.entries)
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
	sel := s.selByLead[b]
	for _, e := range sel {
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
				if e.k.Table != s.w.TableOf(p[0]) ||
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
	lz.total += len(bk.entries)
	lz.rekey.add(b)
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
	e.recon = r.recon
	if r.dm <= 0 {
		e.dead = true
	} else {
		e.dmf = float64(r.dm)
	}
	e.riseAt = lz.rise[b]
	e.epochAt = lz.epoch(e.key.kind, b)
}

// refreshAgg recomputes bucket b's aggregate bound from its entries' current
// stale-form bounds, and its tight key from the priorities an opening would
// push them at now. The tight key starts at 0, not -Inf: a viable ratio is
// positive, so a bucket with nothing viable stays closed under any
// threshold, and its key stays finite in the prune ledger. Called at the
// end of a step for every opened bucket, after which every entry is
// evaluated.
func (lz *lazyState) refreshAgg(b int) {
	bk := &lz.buckets[b]
	agg, minDM, tight := math.Inf(-1), math.Inf(1), 0.0
	for _, e := range bk.entries {
		if !e.evaluated || e.dead {
			continue
		}
		bnd := lz.entryBound(e)
		if bnd > agg {
			agg = bnd
		}
		if e.dmf < minDM {
			minDM = e.dmf
		}
		if lz.epoch(e.key.kind, b) == e.epochAt {
			if e.viable && e.cand.ratio > tight {
				tight = e.cand.ratio
			}
		} else if bnd > tight {
			tight = bnd
		}
	}
	bk.agg, bk.aggRiseAt, bk.minDM, bk.hasAgg = agg, lz.rise[b], minDM, true
	bk.tightKey, bk.tightExt, bk.tightNew = tight, lz.extEpoch[b], lz.newEpoch[b]
}

// collectLazy decides one construction step: it returns the best and
// second-best viable candidates within budget, bit-identical in exact mode to
// the uncached sweep's decision, but (re)evaluates only the candidates whose
// bounds reach the evolving threshold. If the stopper fires mid-step the
// whole step is discarded (ok=false, stopReason set); an evaluation panic
// surfaces as a non-nil err.
func (s *selector) collectLazy() (best, second candidate, haveSecond, ok bool, err error) {
	lz := s.lazy

	// Refresh dirty bucket universes in ascending bucket order, so the IDs
	// their interning assigns do not depend on the order in which mutations
	// marked the buckets; then cover any freshly interned IDs in the flat
	// tables before evaluating.
	slices.Sort(lz.dirty.members)
	lz.dirty.drain(s.rebuildBucket)
	s.ensure()

	// Re-key the sentinels whose inputs changed since the last decision: the
	// rebuilt buckets, the buckets the last step opened, and those whose
	// rise grew. Every other sentinel's priority is unchanged.
	lz.rekey.drain(lz.keySentinel)

	total := lz.total
	lz.heap.reset()
	// depth is the step's peak count of pending heap nodes, sentinels and
	// entries together.
	depth := lz.sentinels.len()

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

	batch, tasks, results := lz.batch[:0], lz.tasks, lz.results
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
			// evalAll stopped early; results may be incomplete. Discard the
			// step, leaving the entries' previous (still sound) state
			// untouched.
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
	for {
		top, sentinel, pending := lz.peek()
		if !pending {
			break
		}
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
		if sentinel {
			// Bucket sentinel: open the bucket, pricing each entry. The
			// sentinel returns, re-keyed, at the next decision.
			b := lz.sentinels.pop()
			lz.opened = append(lz.opened, b)
			lz.rekey.add(int(b))
			for _, e := range lz.buckets[b].entries {
				switch {
				case !e.evaluated:
					lz.heap.push(math.Inf(1), e)
				case e.dead:
					cached++ // known non-viable forever, no recomputation
				case lz.epoch(e.key.kind, int(b)) == e.epochAt:
					cached++ // exact: the recorded evaluation still holds
					if e.viable {
						lz.heap.push(e.cand.ratio, e)
					}
				default:
					lz.heap.push(lz.entryBound(e), e)
				}
			}
			if d := lz.sentinels.len() + lz.heap.len(); d > depth {
				depth = d
			}
			continue
		}
		e := lz.heap.pop().entry
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
	mLazyHeapDepth.Set(float64(depth))
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

// captureLedger builds the decided step's prune ledger from the heap nodes
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
	for _, b := range lz.sentinels.items {
		n := len(lz.buckets[b].entries)
		bkts[b] = &explain.PrunedBucket{
			Lead:    int(b),
			Bound:   lz.sentinels.prio[b],
			Epoch:   lz.extEpoch[b],
			Entries: n,
			Skipped: n,
		}
		order = append(order, b)
		skipped += n
	}
	for _, it := range lz.heap.items {
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

// peek returns the highest pending priority across the sentinel and entry
// heaps, whether it is a bucket sentinel's, and false when both are empty.
// On equal priority the sentinel comes first: the order of one combined heap
// into which every sentinel was pushed, in bucket order, before any entry.
func (lz *lazyState) peek() (prio float64, sentinel, pending bool) {
	switch ns, ne := lz.sentinels.len(), lz.heap.len(); {
	case ns == 0 && ne == 0:
		return 0, false, false
	case ne == 0:
		return lz.sentinels.peekPrio(), true, true
	case ns == 0:
		return lz.heap.peekPrio(), false, true
	}
	sp, ep := lz.sentinels.peekPrio(), lz.heap.peekPrio()
	if sp >= ep {
		return sp, true, true
	}
	return ep, false, true
}

// sentinelHeap is an indexed max-heap of bucket sentinels ordered by
// priority, then by bucket index. It persists across steps: a sentinel is
// inserted, re-keyed in place, or removed only when its bucket changes, so
// a step pays O(log buckets) per changed bucket instead of a rebuild.
type sentinelHeap struct {
	items []int32   // buckets in heap order
	pos   []int32   // bucket -> position in items, -1 when absent
	prio  []float64 // bucket -> priority while present
}

func newSentinelHeap(n int) sentinelHeap {
	h := sentinelHeap{pos: make([]int32, n), prio: make([]float64, n)}
	for b := range h.pos {
		h.pos[b] = -1
	}
	return h
}

func (h *sentinelHeap) len() int { return len(h.items) }

func (h *sentinelHeap) peekPrio() float64 { return h.prio[h.items[0]] }

func (h *sentinelHeap) before(a, b int32) bool {
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}

// set inserts bucket b with the given priority, or re-keys it in place.
func (h *sentinelHeap) set(b int32, prio float64) {
	h.prio[b] = prio
	i := int(h.pos[b])
	if i < 0 {
		i = len(h.items)
		h.items = append(h.items, b)
		h.pos[b] = int32(i)
	}
	h.fix(i)
}

// remove drops bucket b's sentinel if present.
func (h *sentinelHeap) remove(b int32) {
	i := int(h.pos[b])
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	h.pos[b] = -1
	if i < last {
		h.fix(i)
	}
}

func (h *sentinelHeap) pop() int32 {
	b := h.items[0]
	h.remove(b)
	return b
}

func (h *sentinelHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

// fix restores the heap order around position i after its key changed.
func (h *sentinelHeap) fix(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(h.items[i], h.items[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
	for n := len(h.items); ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && h.before(h.items[r], h.items[l]) {
			c = r
		}
		if !h.before(h.items[c], h.items[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// lazyItem is one entry-heap node.
type lazyItem struct {
	prio  float64
	seq   int32 // deterministic tie-break: push order
	entry *lazyEntry
}

// lazyHeap is a serial max-heap over the opened buckets' entry bounds with a
// push-order tie-break, so pop order — and with it the evaluated set — is
// deterministic. It is emptied at the start of every step.
type lazyHeap struct {
	items []lazyItem
	next  int32
}

func (h *lazyHeap) reset() {
	h.items = h.items[:0]
	h.next = 0
}

func (h *lazyHeap) len() int { return len(h.items) }

func (h *lazyHeap) peekPrio() float64 { return h.items[0].prio }

func (h *lazyHeap) before(a, b lazyItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

func (h *lazyHeap) push(prio float64, e *lazyEntry) {
	it := lazyItem{prio: prio, seq: h.next, entry: e}
	h.next++
	h.items = append(h.items, it)
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
