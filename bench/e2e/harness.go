package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	indexsel "repro"
)

// workloadDef is one named workload: how to generate its inputs, and how to
// measure them untraced (end-to-end metrics) and traced (per-layer metrics).
type workloadDef struct {
	name     string
	why      string
	generate func(dir string, seed int64, tiny bool) error
	measure  func(r *runner) error
	traced   func(r *runner) error
}

func lookup(name string) (*workloadDef, error) {
	for _, w := range []*workloadDef{erpWorkload, sqlWorkload, fleetWorkload, daemonWorkload} {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// e2eMetrics are the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eMetrics = []metricSpec{
	{Name: mSetup, Unit: "s", Better: "lower"},
	{Name: mLatency, Unit: "ms", Better: "lower"},
	{Name: mThroughput, Unit: "1/s", Better: "higher"},
	{Name: mRSS, Unit: "MB", Better: "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// note is a workload-specific figure for the report and the results file:
// the per-strategy timings, cost ratios and sample counts that the
// end-to-end metrics summarise.
type note struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Tail is the highest percentile with at least ten samples beyond it,
	// TailP its rank; both are absent when the sample is too small.
	Tail  float64 `json:"tail,omitempty"`
	TailP float64 `json:"tail_p,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// result is one run's full record, one line of results.jsonl.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Seconds   int              `json:"seconds"`
	Tiny      bool             `json:"tiny,omitempty"`
	Started   time.Time        `json:"started"`
	Host      hostInfo         `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []string         `json:"failed_checks,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Notes     map[string]note  `json:"notes,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runner carries one measured run: its inputs, its time budget and what it
// has measured so far.
type runner struct {
	name    string
	dir     string // the run's working directory
	inputs  string // generated inputs, read-only to the run
	seed    int64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil in untraced runs
	root    int64   // the run's root span

	setupTimes []float64    // seconds per set-up
	resetup    func() error // repeats set-up once; see setup

	res result
}

// setupReps is how many set-up samples are taken before the measured
// operations; setupBestOf is how many set-ups one sample runs.
const (
	setupReps   = 5
	setupBestOf = 3
)

// setup takes setupReps set-up samples and returns the last set-up's
// result; every earlier one goes to release. A sample runs load setupBestOf
// times back to back, from a freshly collected heap, and keeps the fastest.
// setup also keeps the sampling so that loop can repeat it between the
// measured operations. setup_s is the median over all samples.
//
// Both choices come from the host the benchmark was sized on, a shared
// virtual machine. Short tasks there run at two speeds, about 1.7x apart,
// switching every few milliseconds in a mix that drifts from second to
// second and minute to minute. The median of single set-ups jumps from one
// speed to the other when the slow share crosses one half; the median of
// best-of-three samples stays on the fast speed until the slow share nears
// four fifths. Spreading the samples across the run, instead of crowding
// them into its first fraction of a second, follows the drift less.
func setup[T any](r *runner, load func() (T, error), release func(T)) (T, error) {
	rep := func() (T, error) {
		runtime.GC()
		var v T
		best := math.Inf(1)
		for i := 0; i < setupBestOf; i++ {
			if i > 0 && release != nil {
				release(v)
			}
			start := time.Now()
			var err error
			if v, err = load(); err != nil {
				return v, err
			}
			best = math.Min(best, time.Since(start).Seconds())
		}
		r.setupTimes = append(r.setupTimes, best)
		return v, nil
	}
	var v T
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release(v)
		}
		var err error
		if v, err = rep(); err != nil {
			return v, err
		}
	}
	r.resetup = func() error {
		v, err := rep()
		if err == nil && release != nil {
			release(v)
		}
		return err
	}
	return v, nil
}

// loop calls op until the run's measured time is used up, and at least
// minOps times, and repeats set-up after each call. It collects garbage
// before each call when gc is set, so that every call starts from the heap
// a fresh process would have.
func (r *runner) loop(minOps int, gc bool, op func(i int) error) error {
	deadline := time.Now().Add(r.seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if gc {
			runtime.GC()
		}
		if err := op(i); err != nil {
			return err
		}
		if err := r.resetup(); err != nil {
			return err
		}
	}
	return nil
}

// span opens a span under the run's root; it is a no-op in untraced runs.
func (r *runner) span(name string) func() span {
	_, end := r.open(name)
	return end
}

// open is span that also returns the span's id, for adopting the program's
// own spans under it.
func (r *runner) open(name string) (int64, func() span) { return r.openUnder(r.root, name) }

func (r *runner) openUnder(parent int64, name string) (int64, func() span) {
	if r.tr == nil {
		return 0, func() span { return span{} }
	}
	return r.tr.begin(name, parent)
}

// telemetry returns a fresh program telemetry bundle in traced runs, nil
// otherwise.
func (r *runner) telemetry() *indexsel.Telemetry {
	if r.tr == nil {
		return nil
	}
	return &indexsel.Telemetry{Tracer: indexsel.NewTracer(1<<15, nil)}
}

// adopt moves the spans the program recorded into tel under parent.
func (r *runner) adopt(tel *indexsel.Telemetry, parent int64) {
	if r.tr != nil && tel != nil {
		r.tr.adopt(tel.Tracer.Snapshot(), parent)
	}
}

func (r *runner) set(name string, v float64, unit string) {
	r.res.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *runner) note(name string, v float64, unit string) {
	r.res.Notes[name] = note{Value: v, Unit: unit}
}

// timing notes a timing's median, sample count and supported tail.
func (r *runner) timing(name string, xs []float64, unit string) {
	if len(xs) == 0 {
		return
	}
	n := note{Value: median(xs), Unit: unit, N: len(xs)}
	if p, ok := tailPercentile(len(xs)); ok && p > 50 {
		n.Tail, n.TailP = percentile(xs, p), p
	}
	r.res.Notes[name] = n
}

// check records a failed correctness check.
func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.res.Checks = append(r.res.Checks, fmt.Sprintf(format, args...))
	}
}

// attempt counts one unit of work and whether it failed.
func (r *runner) attempt(failed bool) {
	r.res.Attempted++
	if failed {
		r.res.Failed++
	}
}

// measure is the child process: it measures one workload's generated
// inputs, prints the report and the summary line, and appends the result to
// results.jsonl.
func measure(o options, wl *workloadDef) error {
	dir := runDir(o, wl.name)
	r := newRunner(wl.name, dir, o.seed, time.Duration(o.seconds)*time.Second, o.tiny, o.trace == 1)
	if err := r.run(wl); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
			return err
		}
	}
	if err := appendResult(filepath.Join(o.out, "results.jsonl"), &r.res); err != nil {
		return err
	}
	report(os.Stdout, &r.res)
	line, err := json.Marshal(summary{r.res.Correct, r.res.Attempted, r.res.Failed, r.res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.res.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", wl.name, len(r.res.Checks))
	}
	return nil
}

func newRunner(name, dir string, seed int64, seconds time.Duration, tiny, traced bool) *runner {
	r := &runner{
		name:    name,
		dir:     dir,
		inputs:  filepath.Join(dir, "inputs"),
		seed:    seed,
		seconds: seconds,
		nproc:   runtime.NumCPU(),
		res: result{
			Workload: name,
			Seed:     seed,
			Trace:    traced,
			Seconds:  int(seconds / time.Second),
			Tiny:     tiny,
			Started:  time.Now().UTC(),
			Host:     host(),
			Metrics:  map[string]value{},
			Notes:    map[string]note{},
		},
	}
	if traced {
		r.tr = newTracer(runID(name, seed))
	}
	return r
}

// run measures the workload, traced or not, and checks the result is
// complete.
func (r *runner) run(wl *workloadDef) error {
	var err error
	if r.tr != nil {
		var end func() span
		r.root, end = r.tr.begin("bench."+wl.name, 0)
		err = wl.traced(r)
		end()
	} else {
		err = wl.measure(r)
		r.set(mRSS, peakRSSMB(), "MB")
		r.set(mSetup, median(r.setupTimes), "s")
	}
	if err != nil {
		return err
	}
	r.timing("setup_s", r.setupTimes, "s")
	if r.res.Attempted > 0 {
		r.note("failed_frac", float64(r.res.Failed)/float64(r.res.Attempted), "ratio")
	}
	return r.complete()
}

// complete checks that the run reported every declared metric: all
// end-to-end metrics untraced; traced, every per-layer metric of a layer the
// workload exercises, with 0 for the layers it leaves idle.
func (r *runner) complete() error {
	if r.res.Attempted < 1 {
		return fmt.Errorf("%s: no work attempted", r.name)
	}
	r.res.Correct = len(r.res.Checks) == 0 && r.res.Failed == 0
	if !r.res.Trace {
		for _, m := range e2eMetrics {
			v, ok := r.res.Metrics[m.Name]
			if !ok || !(v.Value > 0) {
				return fmt.Errorf("%s: end-to-end metric %s missing or not positive", r.name, m.Name)
			}
		}
		return nil
	}
	for _, lm := range layerMetrics {
		if _, ok := r.res.Metrics[lm.Name]; ok {
			continue
		}
		for _, w := range lm.On {
			if w == r.name {
				return fmt.Errorf("%s: per-layer metric %s missing", r.name, lm.Name)
			}
		}
		r.set(lm.Name, 0, lm.Unit)
	}
	return nil
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the run for a human reader: every metric with its unit,
// then the workload's notes.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s seed=%d trace=%t seconds=%d nproc=%d cpu=%q %s\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Host.NProc, res.Host.CPU, res.Host.Go)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(res.Notes) {
		n := res.Notes[name]
		fmt.Fprintf(w, "  . %-32s %14.6g %s", name, n.Value, n.Unit)
		if n.N > 0 {
			fmt.Fprintf(w, "  median of %d", n.N)
		}
		if n.TailP > 0 {
			fmt.Fprintf(w, ", p%g %.6g", n.TailP, n.Tail)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
