package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/drift"
	"repro/internal/workload"
)

// oldSignature is the builder the drift window and guardrail used before
// they shared compress.TemplateSignature; it is kept here as the oracle for
// the journaled and /status signature strings.
func oldSignature(table int, kind workload.QueryKind, attrs []int) string {
	sig := fmt.Sprintf("t%d:%s:", table, kind)
	for i, a := range attrs {
		if i > 0 {
			sig += ","
		}
		sig += fmt.Sprint(a)
	}
	return sig
}

// The window (Resolve) and the guardrail (HeavyQuery.Sig) produce the same
// bytes as the old builder for every template of the generated, TPC-C and
// ERP workloads and for every observation of FuzzDecodeBatch's seed corpus.
func TestTemplateSignatureMatchesOldBuilder(t *testing.T) {
	workloads := map[string]*workload.Workload{
		"tpcc": workload.MustTPCC(1),
		"erp":  workload.MustGenerateERP(workload.DefaultERPConfig()),
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultGenConfig()
		cfg.Seed = seed
		workloads[fmt.Sprintf("generate-%d", seed)] = workload.MustGenerate(cfg)
	}
	for name, w := range workloads {
		win := drift.NewWindow(w, drift.WindowConfig{})
		for _, q := range w.Queries {
			want := oldSignature(q.Table, q.Kind, q.Attrs)
			if got := compress.TemplateSignature(q); got != want {
				t.Fatalf("%s query %d: guardrail signature %q, old builder %q", name, q.ID, got, want)
			}
			names := make([]string, len(q.Attrs))
			for i, a := range q.Attrs {
				names[i] = w.Attr(a).Name
			}
			obs := drift.Observation{Table: w.Tables[q.Table].Name, Attrs: names, Kind: q.Kind.String(), Count: 1}
			sig, attrs, kind, err := win.Resolve(obs)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, q.ID, err)
			}
			sorted := append([]int(nil), q.Attrs...)
			sort.Ints(sorted)
			if want := oldSignature(q.Table, q.Kind, sorted); sig != want || kind != q.Kind || fmt.Sprint(attrs) != fmt.Sprint(sorted) {
				t.Fatalf("%s query %d: window signature %q, old builder %q", name, q.ID, sig, want)
			}
		}
	}

	schema := daemonSchema(t)
	win := drift.NewWindow(schema, drift.WindowConfig{})
	resolved := 0
	for _, body := range decodeBatchCorpus(t) {
		batch, err := decodeBatch(httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body)))
		if err != nil {
			continue
		}
		for _, obs := range batch {
			sig, attrs, kind, err := win.Resolve(obs)
			if err != nil {
				continue
			}
			resolved++
			if want := oldSignature(schema.TableOf(attrs[0]), kind, attrs); sig != want {
				t.Fatalf("observation %+v: window signature %q, old builder %q", obs, sig, want)
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no seed-corpus observation resolved")
	}
}

// decodeBatchCorpus returns FuzzDecodeBatch's whole seed corpus: the inline
// seeds and the testdata/fuzz files (format "go test fuzz v1" then one
// []byte literal).
func decodeBatchCorpus(t *testing.T) [][]byte {
	t.Helper()
	corpus := append([][]byte(nil), decodeBatchSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeBatch", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzDecodeBatch corpus files (%v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, []byte(body))
	}
	return corpus
}
