package core

import (
	"repro/internal/fault"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// selectSweep runs Select with every step decided by the uncached sweep
// (collectSweep) instead of the lazy loop. It is the exact in-package oracle
// for the lazy loop, priced runs included.
func selectSweep(w *workload.Workload, opt *whatif.Optimizer, opts Options) (*Result, error) {
	s := newSelector(w, opt, opts)
	s.lazy = nil
	s.decide = s.collectSweep
	return s.run()
}

// enumerate lists every candidate step of the current construction step in a
// fixed, deterministic order: step (3a) singles, step (3b) one-attribute
// extensions, then the Remark 1.4 pair universe. Cheap state-dependent
// filters (TopNSingle, empty query sets, already-selected indexes) are
// applied here. All interning happens here; callers must ensure() before
// evaluating the tasks.
func (s *selector) enumerate() []evalTask {
	var tasks []evalTask
	sel := s.sortedSel()

	// Step (3a): new single-attribute indexes.
	for _, a := range s.w.Attrs() {
		if s.singleAllowed != nil && !s.singleAllowed[a.ID] {
			continue
		}
		if len(s.queriesWith[a.ID]) == 0 {
			continue
		}
		if s.sel.Has(s.singleIDs[a.ID]) {
			continue
		}
		tasks = append(tasks, evalTask{kind: StepNewIndex, index: s.singles[a.ID], id: s.singleIDs[a.ID]})
	}

	// Step (3b): append one attribute to each selected index.
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
			tasks = append(tasks, evalTask{kind: StepExtend, index: ext, id: extID, base: e.k, baseID: e.id, hasBase: true})
		}
	}

	if s.opts.PairSteps {
		for _, p := range s.pairUniverse() {
			idx := workload.Index{Table: s.w.TableOf(p[0]), Attrs: []int{p[0], p[1]}}
			id := s.in.Intern(idx)
			if !s.sel.Has(id) {
				tasks = append(tasks, evalTask{kind: StepNewPair, index: idx, id: id})
			}
			for _, e := range sel {
				if e.k.Table != idx.Table || e.k.Contains(p[0]) || e.k.Contains(p[1]) {
					continue
				}
				ext := e.k.Append(p[0]).Append(p[1])
				extID := s.in.Intern(ext)
				if s.sel.Has(extID) {
					continue
				}
				tasks = append(tasks, evalTask{kind: StepExtendPair, index: ext, id: extID, base: e.k, baseID: e.id, hasBase: true})
			}
		}
	}
	return tasks
}

// collectSweep is the uncached sweep: it enumerates and evaluates every
// candidate step afresh and keeps those that fit the budget. The reduction
// runs over the fixed enumeration order with the deterministic better()
// tie-break, so the chosen step (and runner-up) is bit-identical to the lazy
// loop's decision.
//
// If the stopper fires while the step is being evaluated, the whole in-flight
// step is discarded (ok=false, stopReason set): applying a step decided over
// partially evaluated candidates would break the bit-identical-prefix
// guarantee. An evaluation panic surfaces as a non-nil err.
func (s *selector) collectSweep() (best, second candidate, haveSecond, ok bool, err error) {
	tasks := s.enumerate()
	s.ensure() // cover freshly interned candidates before evaluating them
	results := make([]gainEntry, len(tasks))
	s.lastCandidates, s.lastEvaluated = len(tasks), len(tasks)
	s.lastCached, s.lastPruned = 0, 0
	s.totalEvaluated += len(tasks)

	if err := s.evalAll(tasks, results); err != nil {
		return candidate{}, candidate{}, false, false, err
	}
	if r := s.stop.Check(); r != fault.StopNone {
		// Some results may be missing (evalAll stopped early); discard the
		// step rather than reducing over an incomplete evaluation.
		s.stopReason = r
		return candidate{}, candidate{}, false, false, nil
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
		if !ok || better(c, best) {
			if ok {
				second, haveSecond = best, true
			}
			best, ok = c, true
		} else if !haveSecond || better(c, second) {
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
