package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	indexsel "repro"
	"repro/internal/whatif"
	"repro/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one benchmark run share Run.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write emits them as JSONL once the run ends,
// so recording never does I/O inside a measured interval.
type tracer struct {
	run   string
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// begin opens a span under parent (0 for a root) and returns its id and the
// function that closes it.
func (t *tracer) begin(name string, parent int64) (id int64, end func() span) {
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	start := time.Now()
	return id, func() span {
		s := span{Run: t.run, ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: time.Now().UnixNano()}
		t.add(s)
		return s
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// adopt copies the program's own telemetry spans (recorded through
// indexsel.WithTelemetry) into the run's spans, re-rooting the program's
// root spans under parent.
func (t *tracer) adopt(recs []indexsel.TraceRecord, parent int64) {
	ids := make(map[uint64]int64, len(recs))
	t.mu.Lock()
	for _, r := range recs {
		t.next++
		ids[r.ID] = t.next
	}
	t.mu.Unlock()
	for _, r := range recs {
		p, ok := ids[r.Parent]
		if !ok {
			p = parent
		}
		start := r.Start.UnixNano()
		t.add(span{Run: t.run, ID: ids[r.ID], Parent: p, Name: r.Name, Start: start, End: start + r.DurUS*int64(time.Microsecond)})
	}
}

// named returns the recorded spans called name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns the durations of the spans called name.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that the children
// cover. Children may overlap one another (parallel workers) and may stick
// out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach int64
	reach = parent.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return time.Duration(parent.end - parent.start - covered)
}

// timedSource wraps a what-if cost source and accounts for the time spent
// inside it. With keepCalls set it also logs every call's interval, so that
// a caller's self time can be computed exactly; callers set it only on
// serial runs, whose call count is bounded by the workload size.
type timedSource struct {
	src       whatif.Source
	keepCalls bool

	costCalls  atomic.Int64
	maintCalls atomic.Int64
	busy       atomic.Int64 // nanoseconds

	mu    sync.Mutex
	calls []interval
}

func (t *timedSource) track(start time.Time) {
	end := time.Now()
	t.busy.Add(int64(end.Sub(start)))
	if t.keepCalls {
		t.mu.Lock()
		t.calls = append(t.calls, interval{start.UnixNano(), end.UnixNano()})
		t.mu.Unlock()
	}
}

func (t *timedSource) BaseCost(q workload.Query) float64 {
	defer t.track(time.Now())
	t.costCalls.Add(1)
	return t.src.BaseCost(q)
}

func (t *timedSource) CostWithIndex(q workload.Query, k workload.Index) float64 {
	defer t.track(time.Now())
	t.costCalls.Add(1)
	return t.src.CostWithIndex(q, k)
}

func (t *timedSource) QueryCost(q workload.Query, sel workload.Selection) float64 {
	defer t.track(time.Now())
	t.costCalls.Add(1)
	return t.src.QueryCost(q, sel)
}

func (t *timedSource) MaintenanceCost(q workload.Query, k workload.Index) float64 {
	defer t.track(time.Now())
	t.maintCalls.Add(1)
	return t.src.MaintenanceCost(q, k)
}

func (t *timedSource) IndexSize(k workload.Index) int64 {
	defer t.track(time.Now())
	return t.src.IndexSize(k)
}

func (t *timedSource) busyTime() time.Duration { return time.Duration(t.busy.Load()) }

// callIntervals returns the logged call intervals (keepCalls only).
func (t *timedSource) callIntervals() []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]interval(nil), t.calls...)
}

// spanSelf is selfTime for a recorded span.
func spanSelf(s span, children []interval) time.Duration {
	return selfTime(interval{s.Start, s.End}, children)
}

func runID(workloadName string, seed int64) string {
	return fmt.Sprintf("%s-s%d-%d", workloadName, seed, os.Getpid())
}
