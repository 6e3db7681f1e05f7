// Package fault holds the failure-and-cancellation primitives shared by the
// selection strategies: the StopReason vocabulary of the anytime contract,
// the WorkerPanicError that panic isolation converts crashes into, and the
// Stopper that folds a context.Context and a wall-clock deadline into one
// cheap, sticky stop signal workers can poll from hot loops.
//
// The anytime contract (DESIGN.md §10): a strategy interrupted by deadline or
// cancellation returns its best-so-far result with Partial set and the
// StopReason attached, never an error — every completed construction step or
// incumbent is a feasible point. Panics inside a strategy (a crashing cost
// source, a solver bug) are a different failure class: they are recovered
// once, wrapped in a WorkerPanicError with the stack captured, and surfaced
// as an error so one bad estimate cannot take down a serving process.
package fault

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// mPanics counts every panic recovered and converted by AsPanicError across
// the advisor stack (core workers, LP node solves, strategy boundaries).
var mPanics = telemetry.Default().Counter("indexsel_worker_panics_total",
	"Panics recovered inside selection strategies and converted to WorkerPanicError.")

// StopReason says why a strategy's construction loop ended.
type StopReason int

const (
	// StopNone is the zero value: the run has not stopped (internal use).
	StopNone StopReason = iota
	// StopConverged: no candidate step with positive gain remained — the run
	// traced the complete frontier.
	StopConverged
	// StopMaxSteps: the caller's MaxSteps bound was reached.
	StopMaxSteps
	// StopBudget: viable candidate steps remained but none fit the memory
	// budget — the budget, not the candidate space, is exhausted.
	StopBudget
	// StopDeadline: the context's deadline expired; the result is the
	// best-so-far prefix.
	StopDeadline
	// StopCancelled: the context was cancelled; the result is the best-so-far
	// prefix.
	StopCancelled
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopConverged:
		return "converged"
	case StopMaxSteps:
		return "max-steps"
	case StopBudget:
		return "budget-exhausted"
	case StopDeadline:
		return "deadline"
	case StopCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Interrupted reports whether the reason means the run was cut short by the
// caller (deadline or cancellation) rather than finishing on its own terms —
// exactly the cases where Result.Partial is set.
func (r StopReason) Interrupted() bool {
	return r == StopDeadline || r == StopCancelled
}

// WorkerPanicError is a panic recovered inside a selection strategy — in a
// candidate-evaluation worker, an LP node solve, or a serial strategy phase —
// converted into a value the caller can handle. The panic payload and the
// goroutine stack at recovery time are preserved.
type WorkerPanicError struct {
	// Op names where the panic was caught, e.g. "core.evalCandidate".
	Op string
	// Value is the original panic payload.
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("%s: recovered panic: %v", e.Op, e.Value)
}

// Unwrap exposes a panic payload that already was an error (the common
// library convention of panicking with one) to errors.Is/As chains.
func (e *WorkerPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsPanicError wraps a recover() payload into a WorkerPanicError, capturing
// the current stack and counting the event. Call it only with a non-nil
// recover result:
//
//	defer func() {
//	    if r := recover(); r != nil {
//	        err = fault.AsPanicError("core.select", r)
//	    }
//	}()
func AsPanicError(op string, recovered any) *WorkerPanicError {
	mPanics.Inc()
	return &WorkerPanicError{Op: op, Value: recovered, Stack: debug.Stack()}
}

// Stopper turns a context into one stop signal. Check polls the context and,
// when the context has a deadline, the clock; the first non-none reason is
// sticky, so a worker pool observes a single consistent reason no matter
// which goroutine noticed first. Stopped is a plain atomic load for
// per-iteration polling in hot loops. The zero-cost case (nil Stopper, or a
// context with no deadline) never reads the clock and never stops on its own.
type Stopper struct {
	ctx      context.Context
	deadline time.Time
	state    atomic.Int32 // StopReason once detected
}

// NewStopper builds a Stopper for ctx (nil means context.Background()). The
// wall-clock bound it polls is ctx.Deadline(); expiry maps to StopDeadline,
// cancellation to StopCancelled.
func NewStopper(ctx context.Context) *Stopper {
	if ctx == nil {
		ctx = context.Background()
	}
	d, _ := ctx.Deadline()
	return &Stopper{ctx: ctx, deadline: d}
}

// Deadline returns the context's deadline (zero when none), for loops that
// poll the clock without holding the Stopper, such as one long LP solve.
func (s *Stopper) Deadline() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.deadline
}

// Context returns the stopper's context (context.Background() when it was
// built without one), for forwarding into nested solver options.
func (s *Stopper) Context() context.Context {
	if s == nil {
		return context.Background()
	}
	return s.ctx
}

// Check polls the context and the clock, returning the (sticky) stop reason,
// StopNone while running. Safe for concurrent use.
func (s *Stopper) Check() StopReason {
	if s == nil {
		return StopNone
	}
	if r := StopReason(s.state.Load()); r != StopNone {
		return r
	}
	var r StopReason
	switch s.ctx.Err() {
	case context.Canceled:
		r = StopCancelled
	case context.DeadlineExceeded:
		r = StopDeadline
	default:
		if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
			r = StopDeadline
		}
	}
	if r != StopNone {
		s.state.CompareAndSwap(int32(StopNone), int32(r))
		return StopReason(s.state.Load())
	}
	return StopNone
}

// Stopped reports the sticky state without touching the context or the clock
// — one atomic load, cheap enough for every loop iteration. Pair it with a
// periodic Check from one or all workers.
func (s *Stopper) Stopped() bool {
	return s != nil && StopReason(s.state.Load()) != StopNone
}

// Reason returns the sticky stop reason without polling.
func (s *Stopper) Reason() StopReason {
	if s == nil {
		return StopNone
	}
	return StopReason(s.state.Load())
}
