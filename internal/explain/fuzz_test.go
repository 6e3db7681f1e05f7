package explain_test

import (
	"bytes"
	"testing"

	"repro/internal/explain"
)

// FuzzReadJournal: ReadJournal parses span journals from disk, which a
// crash can tear and a person can edit. Whatever the bytes, it must not
// panic, and it must either reject them with an error or return a Run whose
// frontier has one point for the empty configuration plus one per step.
// Seeds (testdata/fuzz/FuzzReadJournal) include a real one-step Extend
// journal, two runs in one file, torn and non-JSON lines, and attributes of
// the wrong type.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := explain.ReadJournal(bytes.NewReader(data))
		if err != nil {
			if run != nil {
				t.Fatalf("rejected journal also returned a run: %v", err)
			}
			return
		}
		if run == nil {
			t.Fatal("accepted journal returned no run")
		}
		if got, want := len(run.Frontier()), len(run.Steps)+1; got != want {
			t.Fatalf("frontier has %d points for %d steps, want %d", got, len(run.Steps), want)
		}
	})
}
