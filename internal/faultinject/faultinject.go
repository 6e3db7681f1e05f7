// Package faultinject wraps a whatif.Source with deterministic, seeded fault
// injection for chaos testing the selection strategies: poisoned cost values
// (NaN, +Inf, negative), added latency, and panics or panicking errors on the
// Nth call. The advisor stack must absorb every class — value faults are
// clamped at the whatif.Optimizer boundary, panics are converted to
// *fault.WorkerPanicError by the strategies' recovery layers — without ever
// crashing the process, exceeding the memory budget, or losing determinism.
//
// Value and latency faults select their victim (query, index) pairs by
// hashing (Seed, query ID, index key), NOT by call count, so the same pairs
// are poisoned no matter how many goroutines call the source (fleet tenants
// sharing one cache) or in which order — replaying a seeded run is
// bit-identical.
// Panic and error faults are the exception: they trip on the Nth call
// (atomic counter), modeling a crash that strikes mid-run at an arbitrary
// point.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/whatif"
	"repro/internal/workload"
)

// Class selects the kind of fault the wrapper injects.
type Class int

const (
	// None injects nothing; the wrapper is transparent.
	None Class = iota
	// NaN replaces selected costs with math.NaN().
	NaN
	// Inf replaces selected costs with +Inf.
	Inf
	// Negative negates selected costs.
	Negative
	// Latency sleeps for the configured duration before returning selected
	// costs (values stay correct).
	Latency
	// Error panics with an error payload on the OnCall-th call (the
	// panic-with-error library convention).
	Error
	// Panic panics with a plain string payload on the OnCall-th call.
	Panic
)

func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case NaN:
		return "nan"
	case Inf:
		return "inf"
	case Negative:
		return "negative"
	case Latency:
		return "latency"
	case Error:
		return "error"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Source is a whatif.Source wrapper injecting one fault class. Configure the
// exported fields before first use; the wrapper is safe for concurrent use.
// Index sizes are never faulted — they are catalog facts, and corrupting them
// would make budget-feasibility assertions meaningless in chaos tests.
type Source struct {
	// Src is the wrapped source serving correct values.
	Src whatif.Source
	// Class is the fault to inject.
	Class Class
	// Seed fixes which (query, index) pairs the value/latency classes hit.
	Seed int64
	// Rate is the fraction of (query, index) pairs hit by the value and
	// latency classes, in [0, 1].
	Rate float64
	// Latency is the sleep for Class Latency.
	Latency time.Duration
	// OnCall is the 1-based call number that trips Class Error/Panic.
	OnCall int64

	calls atomic.Int64
}

// Calls returns how many cost calls the wrapper has served so far.
func (s *Source) Calls() int64 { return s.calls.Load() }

// selected reports whether the (seeded) pair hash falls under Rate.
func (s *Source) selected(h int64) bool {
	r := rand.New(rand.NewSource(s.Seed ^ h))
	return r.Float64() < s.Rate
}

// inject applies the configured class to one cost value with pair hash h.
func (s *Source) inject(h int64, c float64) float64 {
	n := s.calls.Add(1)
	switch s.Class {
	case NaN, Inf, Negative, Latency:
		if !s.selected(h) {
			return c
		}
		switch s.Class {
		case NaN:
			return math.NaN()
		case Inf:
			return math.Inf(1)
		case Negative:
			return -c - 1 // -c alone would keep zero costs clean
		default:
			time.Sleep(s.Latency)
			return c
		}
	case Error:
		if n == s.OnCall {
			panic(fmt.Errorf("faultinject: injected error on call %d", n))
		}
	case Panic:
		if n == s.OnCall {
			panic(fmt.Sprintf("faultinject: injected panic on call %d", n))
		}
	}
	return c
}

// BaseCost implements whatif.Source.
func (s *Source) BaseCost(q workload.Query) float64 {
	return s.inject(int64(q.ID)<<32, s.Src.BaseCost(q))
}

// CostWithIndex implements whatif.Source.
func (s *Source) CostWithIndex(q workload.Query, k workload.Index) float64 {
	h := int64(q.ID)<<32 ^ hashString(k.Key())
	return s.inject(h, s.Src.CostWithIndex(q, k))
}

// QueryCost implements whatif.Source.
func (s *Source) QueryCost(q workload.Query, sel workload.Selection) float64 {
	var h int64
	for key := range sel {
		h ^= hashString(key)
	}
	return s.inject(int64(q.ID)<<32^h, s.Src.QueryCost(q, sel))
}

// MaintenanceCost implements whatif.Source.
func (s *Source) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	h := int64(q.ID)<<32 ^ hashString(k.Key()) ^ 0x5bd1e995
	return s.inject(h, s.Src.MaintenanceCost(q, k))
}

// IndexSize implements whatif.Source; sizes stay exact (see Source doc).
func (s *Source) IndexSize(k workload.Index) int64 { return s.Src.IndexSize(k) }

// hashString is FNV-1a folded to a non-negative int64.
func hashString(str string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= 1099511628211
	}
	return int64(h &^ (1 << 63))
}
