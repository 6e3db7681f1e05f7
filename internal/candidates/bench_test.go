package candidates

import "testing"

// BenchmarkCandidateSet times one production candidate-set construction,
// Enumerate then the record-ranked H1-M Select at width 4, on the SQL-log
// write workload (10 tables x 30 attributes x 50 templates, a fifth of them
// writes): the advisor's H5 set of 15 000 candidates and its CoPhy set of
// 500. Each table's full-row insert expands to every attribute combination
// up to width 4, about 319 000 in all.
func BenchmarkCandidateSet(b *testing.B) {
	w := sqlWritesWorkload(b, 1)
	for _, bc := range []struct {
		name  string
		total int
	}{{"H5_15000", 15000}, {"CoPhy_500", 500}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := Enumerate(w, MaxWidth)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := set.Select(H1M, bc.total); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
