package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fuzzWorkload is a small fixed catalog for key parsing: attribute IDs are
// resolved against it, so round-trip properties hold exactly for valid keys.
var fuzzWorkload = MustTPCC(1)

// FuzzIndexKeyRoundTrip: for every string the parser accepts, Key() must
// reproduce a key that parses to the very same index (Key and ParseIndexKey
// are inverses on the canonical domain), and everything else must error
// without panicking. Seeds cover the canonical shapes and the historical
// trouble spots: adjacent empty components, multi-digit attribute IDs (where
// numeric and lexicographic order diverge), and a maximum-width key.
func FuzzIndexKeyRoundTrip(f *testing.F) {
	w := fuzzWorkload
	f.Add("1")
	f.Add("1,2,3")
	f.Add(",")    // empty components
	f.Add("1,,2") // empty component between valid IDs
	f.Add(",1")
	f.Add("10,2")              // multi-digit vs lexicographic
	f.Add("0,1,2,3,4,5,6,7,8") // max-width: a full wide-table key
	f.Add("-1")
	f.Add("01")                       // non-canonical digits must not round-trip to a different key
	f.Add("999999999999999999999999") // overflow
	f.Fuzz(func(t *testing.T, key string) {
		k, err := ParseIndexKey(w, key)
		if err != nil {
			return
		}
		round := k.Key()
		k2, err := ParseIndexKey(w, round)
		if err != nil {
			t.Fatalf("Key() %q of parsed %q does not parse back: %v", round, key, err)
		}
		if k2.Table != k.Table || len(k2.Attrs) != len(k.Attrs) {
			t.Fatalf("round trip of %q changed index: %v vs %v", key, k, k2)
		}
		for i := range k.Attrs {
			if k.Attrs[i] != k2.Attrs[i] {
				t.Fatalf("round trip of %q changed attrs: %v vs %v", key, k.Attrs, k2.Attrs)
			}
		}
		if k2.Key() != round {
			t.Fatalf("canonical key %q re-keys as %q", round, k2.Key())
		}
	})
}

// FuzzCompareIndexKeys: the allocation-free comparison must order any two
// indexes exactly like strings.Compare over their canonical keys — that is
// the tie-break contract the interned selector relies on to match the
// string-keyed reference bit for bit.
func FuzzCompareIndexKeys(f *testing.F) {
	f.Add([]byte{1, 2}, []byte{1, 2, 3})  // proper prefix
	f.Add([]byte{10, 2}, []byte{2, 10})   // multi-digit vs lexicographic
	f.Add([]byte{9}, []byte{10})          // "9" > "10" lexicographically
	f.Add([]byte{100, 1}, []byte{100, 1}) // equal
	f.Add([]byte{255, 0}, []byte{0, 255}) // extremes
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := Index{Attrs: attrsFromBytes(ab)}
		b := Index{Attrs: attrsFromBytes(bb)}
		if len(a.Attrs) == 0 || len(b.Attrs) == 0 {
			return
		}
		want := sign(strings.Compare(a.Key(), b.Key()))
		if got := sign(CompareIndexKeys(a, b)); got != want {
			t.Fatalf("CompareIndexKeys(%q, %q) = %d, strings.Compare = %d",
				a.Key(), b.Key(), got, want)
		}
	})
}

func attrsFromBytes(bs []byte) []int {
	if len(bs) > 12 {
		bs = bs[:12]
	}
	attrs := make([]int, 0, len(bs))
	for _, b := range bs {
		// Spread across digit-count boundaries so multi-digit comparison is
		// exercised, not just single-byte IDs.
		attrs = append(attrs, int(b)*int(b))
	}
	return attrs
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// FuzzReadWorkload: the JSON reader is the boundary where workload files
// enter the advisor. For any input it must not panic; it either rejects the
// input with an error and no workload, or Write then Read gives back an
// equal workload. The seed corpus in testdata/fuzz/FuzzReadWorkload covers
// every query kind, multi-table schemas and qualified names, plus inputs
// each validation rule rejects.
func FuzzReadWorkload(f *testing.F) {
	f.Add(`{"tables":[{"name":"T","rows":100,"attributes":[{"name":"T.a","distinct":10,"value_size":4}]}],` +
		`"queries":[{"attributes":["T.a"],"frequency":3}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		w, err := Read(strings.NewReader(src))
		if (w == nil) == (err == nil) {
			t.Fatalf("Read returned workload %v and error %v: want exactly one", w != nil, err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, w); err != nil {
			t.Fatalf("Write of a read workload: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of a written workload: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, w) {
			t.Fatalf("Write then Read changed the workload:\n%s", buf.String())
		}
	})
}
