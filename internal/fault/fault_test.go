package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStopperNilReceiverIsInert(t *testing.T) {
	var s *Stopper
	if s.Check() != StopNone || s.Stopped() || s.Reason() != StopNone {
		t.Fatal("nil Stopper reported a stop")
	}
	if !s.Deadline().IsZero() {
		t.Fatal("nil Stopper has a deadline")
	}
	if s.Context() != context.Background() {
		t.Fatal("nil Stopper context is not Background")
	}
}

func TestStopperNilContextWithDeadline(t *testing.T) {
	// nil ctx means Background: no deadline, never stops on its own.
	s := NewStopper(nil)
	if s.Context() == nil {
		t.Fatal("nil ctx not replaced with Background")
	}
	if !s.Deadline().IsZero() || s.Check() != StopNone {
		t.Fatal("Background stopper has a deadline or stopped")
	}
	// A context whose deadline has passed fires StopDeadline, and the
	// Stopper reports that deadline as the bound it polls.
	past := time.Now().Add(-time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), past)
	defer cancel()
	s = NewStopper(ctx)
	if got := s.Deadline(); !got.Equal(past) {
		t.Fatalf("Deadline() = %v, want %v", got, past)
	}
	if r := s.Check(); r != StopDeadline {
		t.Fatalf("Check() = %v, want StopDeadline", r)
	}
	if !s.Stopped() || s.Reason() != StopDeadline {
		t.Fatal("deadline stop not sticky")
	}
}

func TestStopperEarlierContextDeadlineWins(t *testing.T) {
	// The Stopper polls the effective deadline of a context chain: an outer
	// bound earlier than the inner one wins, and so does an earlier inner one.
	outerDeadline := time.Now().Add(time.Hour)
	outer, cancel := context.WithDeadline(context.Background(), outerDeadline)
	defer cancel()
	later, cancelLater := context.WithDeadline(outer, time.Now().Add(2*time.Hour))
	defer cancelLater()
	if got := NewStopper(later).Deadline(); !got.Equal(outerDeadline) {
		t.Fatalf("effective deadline %v, want the earlier outer deadline %v", got, outerDeadline)
	}
	early := time.Now().Add(time.Minute)
	inner, cancelInner := context.WithDeadline(outer, early)
	defer cancelInner()
	if got := NewStopper(inner).Deadline(); !got.Equal(early) {
		t.Fatalf("effective deadline %v, want the earlier inner deadline %v", got, early)
	}
}

func TestStopperFirstReasonSticksUnderConcurrency(t *testing.T) {
	// Double-stop race: many goroutines poll Check while the context flips to
	// cancelled and the wall deadline expires at the same moment. Every
	// goroutine must observe the same sticky reason; run under -race this
	// also proves the CAS publication is clean.
	for round := 0; round < 20; round++ {
		parent, cancel := context.WithCancel(context.Background())
		ctx, cancelDeadline := context.WithDeadline(parent, time.Now().Add(2*time.Millisecond))
		s := NewStopper(ctx)
		const workers = 8
		reasons := make([]StopReason, workers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for {
					if r := s.Check(); r != StopNone {
						reasons[i] = r
						return
					}
				}
			}(i)
		}
		close(start)
		cancel() // races with the expiring deadline
		wg.Wait()
		cancelDeadline()
		for i := 1; i < workers; i++ {
			if reasons[i] != reasons[0] {
				t.Fatalf("round %d: goroutines observed different reasons: %v vs %v",
					round, reasons[0], reasons[i])
			}
		}
		if reasons[0] != StopCancelled && reasons[0] != StopDeadline {
			t.Fatalf("round %d: sticky reason %v", round, reasons[0])
		}
		if s.Reason() != reasons[0] {
			t.Fatalf("round %d: Reason() %v != observed %v", round, s.Reason(), reasons[0])
		}
	}
}

func TestStopperReasonDoesNotPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewStopper(ctx)
	cancel()
	// Reason and Stopped read the sticky state only; no Check has run yet.
	if s.Reason() != StopNone || s.Stopped() {
		t.Fatal("Reason/Stopped polled the context")
	}
	if s.Check() != StopCancelled {
		t.Fatal("Check missed the cancellation")
	}
	if s.Reason() != StopCancelled || !s.Stopped() {
		t.Fatal("sticky state not published after Check")
	}
}

func TestStopReasonStrings(t *testing.T) {
	cases := map[StopReason]string{
		StopNone:       "none",
		StopConverged:  "converged",
		StopMaxSteps:   "max-steps",
		StopBudget:     "budget-exhausted",
		StopDeadline:   "deadline",
		StopCancelled:  "cancelled",
		StopReason(99): "StopReason(99)",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
	if StopDeadline.Interrupted() != true || StopCancelled.Interrupted() != true {
		t.Error("deadline/cancelled not Interrupted")
	}
	if StopConverged.Interrupted() || StopBudget.Interrupted() || StopNone.Interrupted() {
		t.Error("natural terminations reported as Interrupted")
	}
}

func TestAsPanicErrorWrappedErrorChain(t *testing.T) {
	sentinel := errors.New("cost source exploded")
	wrapped := fmt.Errorf("layer: %w", sentinel)

	var err error = AsPanicError("core.evalCandidate", wrapped)
	var pe *WorkerPanicError
	if !errors.As(err, &pe) {
		t.Fatal("errors.As failed to find WorkerPanicError")
	}
	if pe.Op != "core.evalCandidate" {
		t.Fatalf("Op = %q", pe.Op)
	}
	// Panicking WITH an error exposes that error to Is/As through Unwrap,
	// even when it is itself a wrapping chain.
	if !errors.Is(err, sentinel) {
		t.Fatal("errors.Is lost the wrapped sentinel through the panic boundary")
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatal("stack not captured")
	}
	if msg := err.Error(); !strings.Contains(msg, "core.evalCandidate") || !strings.Contains(msg, "exploded") {
		t.Fatalf("Error() = %q", msg)
	}
}

func TestAsPanicErrorNonErrorPayloads(t *testing.T) {
	// Non-error payloads (strings, nil) must produce a nil Unwrap — the chain
	// ends at the WorkerPanicError instead of recursing into garbage.
	for _, payload := range []any{"boom", nil, 42} {
		pe := AsPanicError("op", payload)
		if pe.Unwrap() != nil {
			t.Fatalf("Unwrap of %T payload = %v, want nil", payload, pe.Unwrap())
		}
		if pe.Value != payload {
			t.Fatalf("Value = %v, want %v", pe.Value, payload)
		}
		// errors.Is against an arbitrary sentinel must terminate cleanly.
		if errors.Is(pe, errors.New("other")) {
			t.Fatal("errors.Is matched an unrelated sentinel")
		}
	}
}
