package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// HELP text escaping: backslash and line feed are the only characters the
// Prometheus text format escapes in HELP, and an unescaped newline would
// tear the exposition into an invalid line.
func TestHelpTextEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "path C:\\tmp\nsecond line").Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	want := `# HELP esc_total path C:\\tmp\nsecond line`
	if !strings.Contains(text, want) {
		t.Fatalf("HELP not escaped:\n%s", text)
	}
	// Every line must still be a comment or a sample — an unescaped newline
	// would have produced the bare line "second line".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "esc_total") {
			t.Errorf("torn exposition line %q", line)
		}
	}
}

// A value exactly on a bucket bound belongs to that bucket: Prometheus `le`
// is less-than-OR-EQUAL, and sort.SearchFloat64s returns the first bound
// >= v, which is the bound itself on exact hits.
func TestHistogramBucketBoundary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bnd_seconds", "", []float64{1, 2, 3})
	h.Observe(2.0)          // exactly on a bound -> le="2"
	h.Observe(2.0000000001) // just above -> le="3"
	h.Observe(3.1)          // above all bounds -> +Inf only

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	wantCum := map[string]string{
		`le="1"`:    " 0",
		`le="2"`:    " 1",
		`le="3"`:    " 2",
		`le="+Inf"`: " 3",
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "bnd_seconds_bucket") {
			continue
		}
		for le, want := range wantCum {
			if strings.Contains(line, le) && !strings.HasSuffix(line, want) {
				t.Errorf("bucket %s: got %q, want count%s", le, line, want)
			}
		}
	}
	if h.Count() != 3 {
		t.Errorf("count %d, want 3", h.Count())
	}
}

func journalLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}

// Rotation happens between whole lines only: after writing lines past the
// cap, the live file and every rotated file must contain complete lines.
func TestRotatingWriterRotatesBetweenLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	line := []byte(`{"i":1234567890}` + "\n") // 17 bytes
	rw, err := NewRotatingWriter(path, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := rw.Write(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range []string{path, path + ".1", path + ".2"} {
		for _, l := range journalLines(t, p) {
			if !json.Valid([]byte(l)) {
				t.Errorf("%s holds torn line %q", p, l)
			}
			total++
		}
	}
	// keep=2: the oldest file (lines 1-2) was dropped; 40-byte cap fits two
	// 17-byte lines per file, so 7 lines = files of 2+2+2+1, oldest 2 gone.
	if total != 5 {
		t.Errorf("retained %d lines across the chain, want 5", total)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("rotation kept more files than keep=2 allows")
	}
}

// A single line longer than maxBytes still goes out whole — line
// completeness beats the size cap.
func TestRotatingWriterOversizeLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	rw, err := NewRotatingWriter(path, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	huge := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", 100)) + "\n")
	if _, err := rw.Write([]byte(`{"a":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write(huge); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, path)
	if len(lines) != 1 || !json.Valid([]byte(lines[0])) || len(lines[0]) < 100 {
		t.Fatalf("oversize line not written whole: %d lines in live file", len(lines))
	}
}

func TestRotatingWriterClosed(t *testing.T) {
	dir := t.TempDir()
	rw, err := NewRotatingWriter(filepath.Join(dir, "t.jsonl"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	if _, err := rw.Write([]byte("x\n")); err != os.ErrClosed {
		t.Fatalf("write after close: %v, want os.ErrClosed", err)
	}
}
