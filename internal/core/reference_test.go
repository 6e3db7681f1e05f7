// Reference implementation of the Algorithm 1 selector: the original
// string-keyed code, retained verbatim (modulo renames) as the differential
// oracle for the interned selector in core.go. selectReference runs it over
// the string-keyed whatiftest cache; the differential tests assert that both
// stacks produce bit-identical step traces, frontiers, and what-if call
// counts. This file intentionally mirrors the
// old structure — do not "optimize" it, its value is being the unchanged
// baseline.
package core

import (
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/whatif/whatiftest"
	"repro/internal/workload"
)

// selectReference is Select for the reference stack: the string-keyed
// selector over the string-keyed what-if cache.
func selectReference(w *workload.Workload, opt *whatiftest.Reference, opts Options) (*Result, error) {
	return newRefSelector(w, opt, opts).run()
}

// refSelector holds the incremental state of a reference run.
type refSelector struct {
	w    *workload.Workload
	opt  *whatiftest.Reference
	opts Options

	queriesWith [][]int              // attr -> IDs of queries accessing it
	base        []float64            // query -> f_j(0)
	cost        []float64            // query -> current cost under sel
	served      []map[string]float64 // query -> selected index key -> f_j(k)

	sel   workload.Selection
	size  map[string]int64 // selected index key -> p_k
	fsum  float64          // read component of F(I) = sum b_j cost_j
	wsum  float64          // write component: maintenance of selected indexes
	mem   int64            // P(I)
	recon float64          // R(I) under reconfig (0 if nil)

	// reconfig is the whole-selection R(I) the interned selector prices per
	// step: nil when opts.Reconfig is free.
	reconfig func(sel workload.Selection) float64

	writeQs   []int
	maintCost map[string]float64
	candCost  map[string][]float64

	gains map[int]map[refGainKey]refGainEntry

	singleAllowed map[int]bool
	pairs         [][2]int

	lastCandidates, lastEvaluated int
	totalEvaluated, totalCached   int

	// stop/stopReason mirror the interned selector's anytime machinery; the
	// reference oracle must honor the same contract so differential runs stay
	// comparable under deadlines.
	stop       *fault.Stopper
	stopReason fault.StopReason

	steps []Step
}

type refGainKey struct {
	kind StepKind
	key  string
}

type refGainEntry struct {
	c  refCandidate
	ok bool
}

func newRefSelector(w *workload.Workload, opt *whatiftest.Reference, opts Options) *refSelector {
	s := &refSelector{
		w:        w,
		opt:      opt,
		opts:     opts,
		sel:      workload.NewSelection(),
		size:     make(map[string]int64),
		candCost: make(map[string][]float64),
	}
	s.stop = fault.NewStopper(opts.Context, opts.Deadline)
	if rc := opts.Reconfig; rc.CreatePerByte > 0 {
		s.reconfig = func(sel workload.Selection) float64 {
			var created int64
			for key, k := range sel {
				if _, ok := rc.Deployed[key]; !ok {
					created += opt.IndexSize(k)
				}
			}
			return rc.CreatePerByte * float64(created)
		}
	} else {
		s.gains = make(map[int]map[refGainKey]refGainEntry)
	}
	s.queriesWith = make([][]int, w.NumAttrs())
	for _, q := range w.Queries {
		if q.IsWrite() {
			s.writeQs = append(s.writeQs, q.ID)
		}
		if q.Kind == workload.Insert {
			continue // inserts have no read path an index could serve
		}
		for _, a := range q.Attrs {
			s.queriesWith[a] = append(s.queriesWith[a], q.ID)
		}
	}
	s.maintCost = make(map[string]float64)
	s.base = make([]float64, w.NumQueries())
	s.cost = make([]float64, w.NumQueries())
	s.served = make([]map[string]float64, w.NumQueries())
	for _, q := range w.Queries {
		s.base[q.ID] = opt.BaseCost(q)
		s.cost[q.ID] = s.base[q.ID]
		s.served[q.ID] = make(map[string]float64)
		s.fsum += float64(q.Freq) * s.base[q.ID]
	}
	if s.reconfig != nil {
		s.recon = s.reconfig(s.sel)
	}
	return s
}

func (s *refSelector) costsFor(k workload.Index) []float64 {
	key := k.Key()
	if c, ok := s.candCost[key]; ok {
		return c
	}
	qs := s.queriesWith[k.Leading()]
	c := make([]float64, len(qs))
	for i, qid := range qs {
		c[i] = s.opt.CostWithIndex(s.w.Queries[qid], k)
	}
	s.candCost[key] = c
	return c
}

func (s *refSelector) extCostsFor(base, ext workload.Index) []float64 {
	key := ext.Key()
	if c, ok := s.candCost[key]; ok {
		return c
	}
	if !s.opt.PrefixInvariant() {
		return s.costsFor(ext)
	}
	baseCosts := s.costsFor(base)
	qs := s.queriesWith[ext.Leading()]
	c := make([]float64, len(qs))
	for i, qid := range qs {
		q := s.w.Queries[qid]
		if len(workload.CoverablePrefix(q, ext)) == len(workload.CoverablePrefix(q, base)) {
			c[i] = baseCosts[i]
		} else {
			c[i] = s.opt.CostWithIndex(q, ext)
		}
	}
	s.candCost[key] = c
	return c
}

func (s *refSelector) maintFor(k workload.Index) float64 {
	key := k.Key()
	if c, ok := s.maintCost[key]; ok {
		return c
	}
	var cost float64
	for _, qid := range s.writeQs {
		q := s.w.Queries[qid]
		cost += float64(q.Freq) * s.opt.MaintenanceCost(q, k)
	}
	s.maintCost[key] = cost
	return cost
}

func (s *refSelector) total() float64 { return s.fsum + s.wsum + s.recon }

func (s *refSelector) indexSize(k workload.Index) int64 {
	return s.opt.IndexSize(k)
}

type refCandidate struct {
	kind     StepKind
	index    workload.Index
	key      string // index.Key(), precomputed for tie-breaking
	replaced *workload.Index
	gain     float64
	deltaMem int64
	ratio    float64
}

func (s *refSelector) evalNew(idx workload.Index, kind StepKind) (refCandidate, bool) {
	costs := s.costsFor(idx)
	qs := s.queriesWith[idx.Leading()]
	var gain float64
	for i, qid := range qs {
		if c := costs[i]; c < s.cost[qid] {
			gain += float64(s.w.Queries[qid].Freq) * (s.cost[qid] - c)
		}
	}
	gain -= s.maintFor(idx)
	dm := s.indexSize(idx)
	if s.reconfig != nil {
		next := s.sel.Clone()
		next.Add(idx)
		gain += s.recon - s.reconfig(next)
	}
	if gain <= 0 || dm <= 0 {
		return refCandidate{}, false
	}
	return refCandidate{kind: kind, index: idx, key: idx.Key(), gain: gain, deltaMem: dm, ratio: gain / float64(dm)}, true
}

func (s *refSelector) evalExtend(k workload.Index, ext workload.Index, kind StepKind) (refCandidate, bool) {
	kKey := k.Key()
	costs := s.extCostsFor(k, ext)
	qs := s.queriesWith[k.Leading()]
	var gain float64
	for i, qid := range qs {
		old := s.cost[qid]
		niu := s.base[qid]
		for key, c := range s.served[qid] {
			if key == kKey {
				continue
			}
			if c < niu {
				niu = c
			}
		}
		if c := costs[i]; c < niu {
			niu = c
		}
		gain += float64(s.w.Queries[qid].Freq) * (old - niu)
	}
	gain -= s.maintFor(ext) - s.maintFor(k)
	dm := s.indexSize(ext) - s.size[kKey]
	if s.reconfig != nil {
		next := s.sel.Clone()
		next.Remove(k)
		next.Add(ext)
		gain += s.recon - s.reconfig(next)
	}
	if gain <= 0 || dm <= 0 {
		return refCandidate{}, false
	}
	kc := k
	return refCandidate{kind: kind, index: ext, key: ext.Key(), replaced: &kc, gain: gain, deltaMem: dm, ratio: gain / float64(dm)}, true
}

func refBetter(a, b refCandidate) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.key < b.key
}

type refEvalTask struct {
	kind    StepKind
	index   workload.Index
	base    workload.Index
	hasBase bool
}

func (s *refSelector) evalCandidate(t refEvalTask) (refCandidate, bool) {
	if t.hasBase {
		return s.evalExtend(t.base, t.index, t.kind)
	}
	return s.evalNew(t.index, t.kind)
}

func (s *refSelector) enumerate() []refEvalTask {
	var tasks []refEvalTask

	for _, a := range s.w.Attrs() {
		if s.singleAllowed != nil && !s.singleAllowed[a.ID] {
			continue
		}
		if len(s.queriesWith[a.ID]) == 0 {
			continue
		}
		idx := workload.Index{Table: a.Table, Attrs: []int{a.ID}}
		if s.sel.Has(idx) {
			continue
		}
		tasks = append(tasks, refEvalTask{kind: StepNewIndex, index: idx})
	}

	for _, k := range s.sel.Sorted() {
		for _, a := range s.w.Tables[k.Table].Attrs {
			if k.Contains(a) {
				continue
			}
			ext := k.Append(a)
			if s.sel.Has(ext) {
				continue
			}
			tasks = append(tasks, refEvalTask{kind: StepExtend, index: ext, base: k, hasBase: true})
		}
	}

	if s.opts.PairSteps {
		for _, p := range s.pairUniverse() {
			idx := workload.Index{Table: s.w.TableOf(p[0]), Attrs: []int{p[0], p[1]}}
			if !s.sel.Has(idx) {
				tasks = append(tasks, refEvalTask{kind: StepNewPair, index: idx})
			}
			for _, k := range s.sel.Sorted() {
				if k.Table != idx.Table || k.Contains(p[0]) || k.Contains(p[1]) {
					continue
				}
				ext := k.Append(p[0]).Append(p[1])
				if s.sel.Has(ext) {
					continue
				}
				tasks = append(tasks, refEvalTask{kind: StepExtendPair, index: ext, base: k, hasBase: true})
			}
		}
	}
	return tasks
}

func (s *refSelector) collect() (best, second refCandidate, haveSecond, ok bool, err error) {
	tasks := s.enumerate()
	results := make([]refGainEntry, len(tasks))
	pending := make([]int, 0, len(tasks))
	for i, t := range tasks {
		if e, hit := s.cachedGain(t); hit {
			results[i] = e
		} else {
			pending = append(pending, i)
		}
	}
	s.lastCandidates, s.lastEvaluated = len(tasks), len(pending)
	s.totalEvaluated += len(pending)
	s.totalCached += len(tasks) - len(pending)

	if err := s.evalPending(tasks, results, pending); err != nil {
		return refCandidate{}, refCandidate{}, false, false, err
	}
	if r := s.stop.Check(); r != fault.StopNone {
		s.stopReason = r
		return refCandidate{}, refCandidate{}, false, false, nil
	}

	for _, i := range pending {
		s.storeGain(tasks[i], results[i])
	}

	budgetExcluded := false
	for _, r := range results {
		c := r.c
		if !r.ok {
			continue
		}
		if s.mem+c.deltaMem > s.opts.Budget {
			budgetExcluded = true
			continue
		}
		if !ok || refBetter(c, best) {
			if ok {
				second, haveSecond = best, true
			}
			best, ok = c, true
		} else if !haveSecond || refBetter(c, second) {
			second, haveSecond = c, true
		}
	}
	if !ok {
		if budgetExcluded {
			s.stopReason = fault.StopBudget
		} else {
			s.stopReason = fault.StopConverged
		}
	}
	return best, second, haveSecond, ok, nil
}

// evalPending mirrors selector.evalAll for the reference types, including
// the stop and panic-recovery behavior.
func (s *refSelector) evalPending(tasks []refEvalTask, results []refGainEntry, pending []int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.AsPanicError("core.evalCandidate", r)
		}
	}()
	for n, i := range pending {
		if n%stopCheckStride == 0 && s.stop.Check() != fault.StopNone {
			return nil
		}
		results[i].c, results[i].ok = s.evalCandidate(tasks[i])
	}
	return nil
}

func (s *refSelector) cachedGain(t refEvalTask) (refGainEntry, bool) {
	if s.gains == nil {
		return refGainEntry{}, false
	}
	bucket, ok := s.gains[t.index.Leading()]
	if !ok {
		return refGainEntry{}, false
	}
	e, ok := bucket[refGainKey{t.kind, t.index.Key()}]
	return e, ok
}

func (s *refSelector) storeGain(t refEvalTask, e refGainEntry) {
	if s.gains == nil {
		return
	}
	lead := t.index.Leading()
	bucket, ok := s.gains[lead]
	if !ok {
		bucket = make(map[refGainKey]refGainEntry)
		s.gains[lead] = bucket
	}
	bucket[refGainKey{t.kind, t.index.Key()}] = e
}

func (s *refSelector) invalidateGains(lead int) {
	if s.gains == nil {
		return
	}
	for _, qid := range s.queriesWith[lead] {
		for _, a := range s.w.Queries[qid].Attrs {
			delete(s.gains, a)
		}
	}
}

func (s *refSelector) pairUniverse() [][2]int {
	if s.pairs != nil {
		return s.pairs
	}
	limit := s.opts.PairLimit
	if limit <= 0 {
		limit = 200
	}
	type pw struct {
		p [2]int
		w int64
	}
	weights := make(map[[2]int]int64)
	for _, q := range s.w.Queries {
		for i := 0; i < len(q.Attrs); i++ {
			for j := i + 1; j < len(q.Attrs); j++ {
				weights[[2]int{q.Attrs[i], q.Attrs[j]}] += q.Freq
			}
		}
	}
	all := make([]pw, 0, len(weights))
	for p, wgt := range weights {
		all = append(all, pw{p, wgt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].p[0] < all[j].p[0] || (all[i].p[0] == all[j].p[0] && all[i].p[1] < all[j].p[1])
	})
	if len(all) > limit {
		all = all[:limit]
	}
	s.pairs = make([][2]int, 0, 2*len(all))
	for _, e := range all {
		s.pairs = append(s.pairs, e.p, [2]int{e.p[1], e.p[0]})
	}
	return s.pairs
}

func (s *refSelector) apply(c refCandidate, second refCandidate, haveSecond bool) {
	before, memBefore := s.total(), s.mem

	if c.replaced != nil {
		s.removeIndex(*c.replaced)
	}
	s.addIndex(c.index)

	if s.reconfig != nil {
		s.recon = s.reconfig(s.sel)
	}
	step := Step{
		Kind:        c.kind,
		Index:       c.index,
		Replaced:    c.replaced,
		CostBefore:  before,
		CostAfter:   s.total(),
		MemBefore:   memBefore,
		MemAfter:    s.mem,
		Ratio:       c.ratio,
		Candidates:  s.lastCandidates,
		Evaluated:   s.lastEvaluated,
		CacheServed: s.lastCandidates - s.lastEvaluated,
	}
	if s.opts.TrackSecondBest && haveSecond {
		step.RunnerUp = &Alternative{Kind: second.kind, Index: second.index, Ratio: second.ratio}
	}
	s.steps = append(s.steps, step)
}

func (s *refSelector) addIndex(idx workload.Index) {
	key := idx.Key()
	s.invalidateGains(idx.Leading())
	s.sel.Add(idx)
	sz := s.indexSize(idx)
	s.size[key] = sz
	s.mem += sz
	s.wsum += s.maintFor(idx)
	costs := s.costsFor(idx)
	for i, qid := range s.queriesWith[idx.Leading()] {
		s.served[qid][key] = costs[i]
		if costs[i] < s.cost[qid] {
			s.fsum -= float64(s.w.Queries[qid].Freq) * (s.cost[qid] - costs[i])
			s.cost[qid] = costs[i]
		}
	}
}

func (s *refSelector) removeIndex(idx workload.Index) {
	key := idx.Key()
	s.invalidateGains(idx.Leading())
	s.sel.Remove(idx)
	s.mem -= s.size[key]
	s.wsum -= s.maintFor(idx)
	delete(s.size, key)
	for _, qid := range s.queriesWith[idx.Leading()] {
		if _, ok := s.served[qid][key]; !ok {
			continue
		}
		delete(s.served[qid], key)
		niu := s.base[qid]
		for _, c := range s.served[qid] {
			if c < niu {
				niu = c
			}
		}
		if niu != s.cost[qid] {
			s.fsum += float64(s.w.Queries[qid].Freq) * (niu - s.cost[qid])
			s.cost[qid] = niu
		}
	}
}

func (s *refSelector) dropUnused() {
	for changed := true; changed; {
		changed = false
		for _, k := range s.sel.Sorted() {
			key := k.Key()
			var readDelta float64
			for _, qid := range s.queriesWith[k.Leading()] {
				c, ok := s.served[qid][key]
				if !ok || c > s.cost[qid] {
					continue
				}
				alt := s.base[qid]
				for okey, oc := range s.served[qid] {
					if okey != key && oc < alt {
						alt = oc
					}
				}
				if alt > s.cost[qid] {
					readDelta += float64(s.w.Queries[qid].Freq) * (alt - s.cost[qid])
				}
			}
			if readDelta > s.maintFor(k)+1e-9 {
				continue // still worth keeping
			}
			before, memBefore := s.total(), s.mem
			s.removeIndex(k)
			if s.reconfig != nil {
				s.recon = s.reconfig(s.sel)
			}
			s.steps = append(s.steps, Step{
				Kind:       StepDrop,
				Index:      k,
				CostBefore: before,
				CostAfter:  s.total(),
				MemBefore:  memBefore,
				MemAfter:   s.mem,
			})
			changed = true
		}
	}
}

func (s *refSelector) initTopNSingle() {
	n := s.opts.TopNSingle
	if n <= 0 {
		return
	}
	type ranked struct {
		attr  int
		ratio float64
	}
	var all []ranked
	for _, a := range s.w.Attrs() {
		if len(s.queriesWith[a.ID]) == 0 {
			continue
		}
		idx := workload.Index{Table: a.Table, Attrs: []int{a.ID}}
		costs := s.costsFor(idx)
		var gain float64
		for i, qid := range s.queriesWith[a.ID] {
			if c := costs[i]; c < s.base[qid] {
				gain += float64(s.w.Queries[qid].Freq) * (s.base[qid] - c)
			}
		}
		if sz := s.indexSize(idx); sz > 0 && gain > 0 {
			all = append(all, ranked{a.ID, gain / float64(sz)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ratio != all[j].ratio {
			return all[i].ratio > all[j].ratio
		}
		return all[i].attr < all[j].attr
	})
	if len(all) > n {
		all = all[:n]
	}
	s.singleAllowed = make(map[int]bool, len(all))
	for _, r := range all {
		s.singleAllowed[r.attr] = true
	}
}

func (s *refSelector) run() (*Result, error) {
	s.initTopNSingle()
	initial := s.total()
	for {
		if s.opts.MaxSteps > 0 && len(s.steps) >= s.opts.MaxSteps {
			s.stopReason = fault.StopMaxSteps
			break
		}
		if r := s.stop.Check(); r != fault.StopNone {
			s.stopReason = r
			break
		}
		sp := s.opts.Span.Child("extend.step")
		stepStart := time.Now()
		best, second, haveSecond, ok, err := s.collect()
		if err != nil {
			sp.Discard()
			return nil, err
		}
		if !ok {
			sp.Discard()
			break // collect set stopReason
		}
		s.apply(best, second, haveSecond)
		finishStep(sp, stepStart, &s.steps[len(s.steps)-1], nil)
		if s.opts.DropUnused {
			s.dropUnused()
		}
	}
	res := &Result{
		Steps:       s.steps,
		Selection:   s.sel,
		InitialCost: initial,
		Cost:        s.total(),
		Memory:      s.mem,
		Evaluated:   s.totalEvaluated,
		CacheServed: s.totalCached,
		StopReason:  s.stopReason,
		Partial:     s.stopReason.Interrupted(),
	}
	logRun(res)
	return res, nil
}
