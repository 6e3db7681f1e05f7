package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestBuildPanicReleasesWaiters: a panicking index build must not leak its
// in-flight dedup entry. Before the cleanup existed, a second request for the
// same index would park on the never-closed done channel forever.
func TestBuildPanicReleasesWaiters(t *testing.T) {
	w := testWorkload(t, 1000)
	db, err := New(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMeasuredSource(db, 1)

	// An attribute ID no table owns: BuildIndex panics naming it, after the
	// dedup entry is registered.
	bogus := workload.Index{Table: 0, Attrs: []int{1 << 30}}
	mustPanic := func() (panicked bool) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				if msg := fmt.Sprint(r); !strings.Contains(msg, "attribute 1073741824") {
					t.Errorf("panic %q does not name the missing attribute", msg)
				}
			}
		}()
		ms.index(bogus)
		return false
	}
	if !mustPanic() {
		t.Fatal("BuildIndex did not panic on an attribute no table owns")
	}

	// The retry must reach BuildIndex again (and panic again) rather than
	// blocking on the leaked entry.
	retried := make(chan bool, 1)
	go func() { retried <- mustPanic() }()
	select {
	case again := <-retried:
		if !again {
			t.Error("second build attempt did not panic; expected identical failure")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second request for the failed index hung: in-flight build entry leaked")
	}
}
