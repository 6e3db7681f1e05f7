package service

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzRecoverStore writes arbitrary journal.jsonl and state.jsonl bytes, the
// files a crashed or damaged daemon leaves behind, into a fresh directory,
// then opens and recovers the store. Recovery must not panic, and it either
// rejects the files with an error that is ErrJournalCorrupt or recovers,
// truncating a torn final line and rolling back a pending intent. A second
// Recover, on the same store and on a reopened one, then finds nothing to
// repair and the same deployed set. Seed corpus:
// testdata/fuzz/FuzzRecoverStore (a fresh store, committed deltas, crashes
// mid-apply, torn tails, and rejected damage).
func FuzzRecoverStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal, state []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{"journal.jsonl": journal, "state.jsonl": state} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := openStore(t, dir)
		defer s.Close()
		first, err := s.Recover()
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("rejection %v is not ErrJournalCorrupt", err)
			}
			return
		}
		replay := first.Records
		if first.RolledBack != 0 {
			replay++ // the rollback record the first recovery appended
		}
		check := func(label string, rep *RecoveryReport) {
			t.Helper()
			if rep.TornJournal || rep.TornState || rep.RolledBack != 0 {
				t.Fatalf("%s repaired again: %+v after %+v", label, rep, first)
			}
			if rep.Records != replay || !reflect.DeepEqual(rep.Deployed, first.Deployed) {
				t.Fatalf("%s: %+v, want %d records deployed as %+v", label, rep, replay, first)
			}
		}
		check("second Recover", mustRecover(t, s))
		s.Close()
		reopened := openStore(t, dir)
		defer reopened.Close()
		check("Recover after reopening", mustRecover(t, reopened))
	})
}
