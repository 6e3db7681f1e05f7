// Worker pool and concurrency-safe caches for the parallel candidate
// evaluator. The construction loop alternates two phases: a parallel phase
// in which worker goroutines evaluate candidate steps against frozen
// selector state (collect, collectLazy), and a serial phase that mutates
// that state (apply/dropUnused). The shared caches below are only written
// during the parallel phase, and the per-query state (cost, served, size) is
// only written during the serial phase — no lock covers it because no writer
// and reader ever overlap.
package core

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/workload"
)

// stopCheckStride is how many tasks a worker claims between full
// Stopper.Check polls (clock + context); the cheap sticky Stopped load runs
// on every claim. Powers of two keep the modulo a mask.
const stopCheckStride = 32

// evalAll evaluates every task, storing tasks[i]'s outcome into results[i].
// With one worker (or one task) it runs inline; otherwise the tasks are
// consumed from an atomic cursor by s.workers goroutines. Each candidate's
// gain is computed wholly by one goroutine — there is no cross-goroutine
// floating-point accumulation — so results are bit-identical to a serial run.
//
// Two failure paths cut the evaluation short. If the run's Stopper fires,
// workers drain: each checks the sticky flag before claiming another task and
// returns, leaving the remaining results unset — the caller discards the
// whole step, so partially filled results are never reduced over. If a
// candidate evaluation panics (a crashing cost source), the panic is
// recovered in the worker that hit it, converted to a *fault.WorkerPanicError
// (first one wins, stack captured), the other workers drain cleanly, and the
// error is returned once.
func (s *selector) evalAll(tasks []evalTask, results []gainEntry) (err error) {
	workers := s.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		defer func() {
			if r := recover(); r != nil {
				err = fault.AsPanicError("core.evalCandidate", r)
			}
		}()
		for i, t := range tasks {
			if i%stopCheckStride == 0 && s.stop.Check() != fault.StopNone {
				return nil
			}
			results[i] = s.evalCandidate(t)
		}
		return nil
	}
	var panicErr atomic.Pointer[fault.WorkerPanicError]
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if panicErr.Load() != nil || s.stop.Stopped() {
					return // drain: a sibling panicked or the run was stopped
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if i%stopCheckStride == 0 && s.stop.Check() != fault.StopNone {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							pe := fault.AsPanicError("core.evalCandidate", r)
							panicErr.CompareAndSwap(nil, pe)
						}
					}()
					results[i] = s.evalCandidate(tasks[i])
				}()
			}
		}()
	}
	wg.Wait()
	if pe := panicErr.Load(); pe != nil {
		return pe
	}
	return nil
}

// tablePage is the entry count of one page of the flat per-ID tables below.
// Pages make growth (ensure, serial) an append of a pointer instead of a
// reallocation, so slices of atomic values are never copied (vet copylocks)
// and entries already published keep their addresses while workers read them.
const tablePage = 1024

// costTable maps interned index IDs to their cached per-query cost slice
// (aligned with queriesWith[lead]). Entries are filled lock-free by worker
// goroutines via atomic pointers; racing fills of the same ID store identical
// slices (deterministic sources), so either winning is fine. grow() may only
// run in serial phases.
type costTable struct {
	pages []*[tablePage]atomic.Pointer[[]float64]
}

func (t *costTable) grow(n int) {
	for len(t.pages)*tablePage < n {
		t.pages = append(t.pages, new([tablePage]atomic.Pointer[[]float64]))
	}
}

func (t *costTable) get(id workload.IndexID) ([]float64, bool) {
	p := t.pages[id/tablePage][id%tablePage].Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

func (t *costTable) put(id workload.IndexID, c []float64) {
	t.pages[id/tablePage][id%tablePage].Store(&c)
}

// maintUnset marks an empty maintTable entry. It is the all-ones NaN bit
// pattern, which no deterministic cost source produces (real costs are
// non-NaN, and math.NaN() has a different payload).
const maintUnset = ^uint64(0)

// maintTable maps interned index IDs to their cached frequency-weighted
// maintenance cost, stored as Float64bits in lock-free atomics. Same phase
// discipline as costTable.
type maintTable struct {
	pages []*[tablePage]atomic.Uint64
}

func (t *maintTable) grow(n int) {
	for len(t.pages)*tablePage < n {
		p := new([tablePage]atomic.Uint64)
		for i := range p {
			p[i].Store(maintUnset) // serial phase: plain init before publish
		}
		t.pages = append(t.pages, p)
	}
}

func (t *maintTable) get(id workload.IndexID) (float64, bool) {
	bits := t.pages[id/tablePage][id%tablePage].Load()
	if bits == maintUnset {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

func (t *maintTable) put(id workload.IndexID, v float64) {
	t.pages[id/tablePage][id%tablePage].Store(math.Float64bits(v))
}
