package sqllog

import (
	"reflect"
	"testing"
)

// FuzzParseSQL: the parser is the boundary where untrusted query logs enter
// the advisor. For any input it must not panic; it either rejects the input
// with an error and no workload, or returns a workload whose templates all
// carry a positive frequency and access only attributes of their own table;
// and parsing the same bytes twice gives the same workload. The seed corpus
// in testdata/fuzz/FuzzParseSQL covers each statement kind and the freq
// annotation, plus truncated and garbled forms of each.
func FuzzParseSQL(f *testing.F) {
	f.Add(schema + "SELECT * FROM orders WHERE w_id = 1 AND d_id = ?;")
	f.Fuzz(func(t *testing.T, src string) {
		w, err := ParseString(src)
		if (w == nil) == (err == nil) {
			t.Fatalf("ParseString returned workload %v and error %v: want exactly one", w != nil, err)
		}
		if err != nil {
			return
		}
		for _, q := range w.Queries {
			if q.Freq < 1 {
				t.Fatalf("query %d has frequency %d", q.ID, q.Freq)
			}
			if q.Table < 0 || q.Table >= len(w.Tables) {
				t.Fatalf("query %d references table %d of %d", q.ID, q.Table, len(w.Tables))
			}
			own := map[int]bool{}
			for _, a := range w.Tables[q.Table].Attrs {
				own[a] = true
			}
			for _, a := range q.Attrs {
				if !own[a] {
					t.Fatalf("query %d on table %q accesses attribute %d outside it", q.ID, w.Tables[q.Table].Name, a)
				}
			}
		}
		again, err := ParseString(src)
		if err != nil {
			t.Fatalf("second parse of accepted input failed: %v", err)
		}
		if !reflect.DeepEqual(w, again) {
			t.Fatal("parsing the same input twice gave different workloads")
		}
	})
}
