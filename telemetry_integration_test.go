package indexsel

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestTelemetryTPCCRun exercises the whole observability stack on a real
// selection: a TPC-C Extend run with a tracer attached must produce valid
// Prometheus exposition (what-if counters, step-duration histogram) and a
// JSONL journal whose step spans agree with the recommendation's trace.
func TestTelemetryTPCCRun(t *testing.T) {
	w, err := TPCCWorkload(10)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	tel := &Telemetry{Tracer: NewTracer(1024, &journal)}
	adv := NewAdvisor(w, WithBudgetShare(0.2), WithTelemetry(tel))
	rec, err := adv.Select(StrategyExtend)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Steps) == 0 {
		t.Fatal("expected a non-empty construction trace")
	}
	if rec.Evaluated <= 0 {
		t.Fatalf("Evaluated = %d, want > 0", rec.Evaluated)
	}
	var stepSum, prunedSum int
	for _, s := range rec.Steps {
		if s.Candidates != s.Evaluated+s.CacheServed+s.Pruned {
			t.Errorf("step accounting: Candidates=%d != Evaluated=%d + CacheServed=%d + Pruned=%d",
				s.Candidates, s.Evaluated, s.CacheServed, s.Pruned)
		}
		stepSum += s.Evaluated
		prunedSum += s.Pruned
	}
	// The default path is the lazy CELF loop; on TPC-C its bounds must be
	// doing real work, not degenerating to a full sweep.
	if prunedSum == 0 {
		t.Error("lazy path pruned zero candidates across the whole TPC-C run")
	}
	// Run totals cover the final round that found no viable step too, so they
	// bound the per-step sums from above.
	if stepSum > rec.Evaluated {
		t.Errorf("per-step Evaluated sums to %d > run total %d", stepSum, rec.Evaluated)
	}

	// Prometheus exposition from the default registry the advisor bound into.
	var expo bytes.Buffer
	DefaultRegistry().WritePrometheus(&expo)
	text := expo.String()
	for _, want := range []string{
		"indexsel_whatif_calls_total",
		"indexsel_whatif_cache_hits_total",
		"indexsel_extend_step_duration_seconds_bucket",
		"indexsel_extend_steps_total",
		"indexsel_select_runs_total",
		"indexsel_lazy_evals_saved_total",
		"indexsel_lazy_heap_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	calls := metricValue(t, text, "indexsel_whatif_calls_total")
	if calls <= 0 {
		t.Errorf("indexsel_whatif_calls_total = %v, want > 0", calls)
	}
	if c := metricValue(t, text, "indexsel_extend_step_duration_seconds_count"); c < float64(len(rec.Steps)) {
		t.Errorf("step-duration histogram count %v < steps %d", c, len(rec.Steps))
	}

	// Journal: one extend.step span per recommendation step (same order, same
	// memory-after), all children of one advisor.select root.
	var root *TraceRecord
	var steps []TraceRecord
	sc := bufio.NewScanner(bytes.NewReader(journal.Bytes()))
	for sc.Scan() {
		var r TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		switch r.Name {
		case "advisor.select":
			rr := r
			root = &rr
		case "extend.step":
			steps = append(steps, r)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatal("journal has no advisor.select root span")
	}
	if got := root.Attrs["steps"]; got != float64(len(rec.Steps)) {
		t.Errorf("root span steps attr = %v, want %d", got, len(rec.Steps))
	}
	if got := root.Attrs["strategy"]; got != "Extend(H6)" {
		t.Errorf("root span strategy attr = %v", got)
	}
	if len(steps) != len(rec.Steps) {
		t.Fatalf("journal has %d extend.step spans, recommendation has %d steps",
			len(steps), len(rec.Steps))
	}
	for i, sp := range steps {
		if sp.Parent != root.ID {
			t.Errorf("step span %d parent = %d, want root %d", i, sp.Parent, root.ID)
		}
		if got := sp.Attrs["mem_after_bytes"]; got != float64(rec.Steps[i].MemAfter) {
			t.Errorf("step %d mem_after_bytes = %v, want %d", i, got, rec.Steps[i].MemAfter)
		}
		if got := sp.Attrs["evaluated"]; got != float64(rec.Steps[i].Evaluated) {
			t.Errorf("step %d evaluated = %v, want %d", i, got, rec.Steps[i].Evaluated)
		}
	}
}

// TestTelemetryCacheOccupancy pins the observability of the flat what-if
// tables on a real TPC-C run in multi-index cost mode: the occupancy stats
// must stay internally consistent (total == sum over shards), the bound
// gauges must report them, and Invalidate must shrink exactly the target
// query's entries — with the per-shard accounting still adding up afterward.
func TestTelemetryCacheOccupancy(t *testing.T) {
	w, err := TPCCWorkload(5)
	if err != nil {
		t.Fatal(err)
	}
	adv := NewAdvisor(w, WithBudgetShare(0.3), WithCostMode(MultiIndexCosts),
		WithTelemetry(&Telemetry{}))
	// H4 evaluates every (query, candidate) benefit, so it densely populates
	// the pair caches before we inspect them.
	if _, err := adv.Select(StrategyH4); err != nil {
		t.Fatal(err)
	}
	sumShards := func(s WhatIfStats) int {
		sum := 0
		for _, n := range s.IndexShardEntries {
			sum += n
		}
		return sum
	}
	stats := adv.WhatIfStats()
	if stats.IndexCacheEntries == 0 {
		t.Fatal("H4 run left the index cost cache empty")
	}
	if got := sumShards(stats); got != stats.IndexCacheEntries {
		t.Fatalf("shard occupancy sums to %d, IndexCacheEntries = %d", got, stats.IndexCacheEntries)
	}
	if stats.InternedIndexes == 0 {
		t.Fatal("no interned indexes after an H4 run over the flat tables")
	}
	if stats.DistinctIndexes > stats.InternedIndexes {
		t.Errorf("sized %d indexes but interned only %d", stats.DistinctIndexes, stats.InternedIndexes)
	}

	// The advisor's scrape-time gauges read the same numbers.
	var expo bytes.Buffer
	DefaultRegistry().WritePrometheus(&expo)
	text := expo.String()
	if got := metricValue(t, text, "indexsel_whatif_index_cache_entries"); got != float64(stats.IndexCacheEntries) {
		t.Errorf("gauge reports %v cache entries, stats %d", got, stats.IndexCacheEntries)
	}
	if got := metricValue(t, text, "indexsel_whatif_interned_indexes"); got != float64(stats.InternedIndexes) {
		t.Errorf("gauge reports %v interned indexes, stats %d", got, stats.InternedIndexes)
	}

	// Invalidate one cached query: occupancy drops by that query's entries
	// only, and the per-shard breakdown still sums to the total.
	q := w.Queries[0]
	adv.opt.Invalidate(q)
	after := adv.WhatIfStats()
	if after.IndexCacheEntries >= stats.IndexCacheEntries {
		t.Errorf("Invalidate(q0) did not shrink occupancy: %d -> %d",
			stats.IndexCacheEntries, after.IndexCacheEntries)
	}
	if got := sumShards(after); got != after.IndexCacheEntries {
		t.Fatalf("after Invalidate, shards sum to %d, IndexCacheEntries = %d", got, after.IndexCacheEntries)
	}
	if after.InternedIndexes != stats.InternedIndexes {
		t.Errorf("Invalidate changed the interner population: %d -> %d",
			stats.InternedIndexes, after.InternedIndexes)
	}
	// Untouched queries keep their entries: re-evaluating the same strategy
	// must only refresh q0's pairs, so the cache converges back to the same
	// occupancy rather than rebuilding from scratch.
	dropped := stats.IndexCacheEntries - after.IndexCacheEntries
	callsBefore := after.Calls
	if _, err := adv.Select(StrategyH4); err != nil {
		t.Fatal(err)
	}
	final := adv.WhatIfStats()
	if final.IndexCacheEntries != stats.IndexCacheEntries {
		t.Errorf("occupancy after refresh = %d, want %d", final.IndexCacheEntries, stats.IndexCacheEntries)
	}
	refreshCalls := final.Calls - callsBefore
	// The rerun may also re-pay q0's base cost, hence <= dropped+1.
	if refreshCalls > int64(dropped)+1 {
		t.Errorf("refresh performed %d calls; only %d entries were invalidated", refreshCalls, dropped)
	}
}

// metricValue extracts an un-labeled metric's value from text exposition.
func metricValue(t *testing.T, expo, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad value for %s: %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}
