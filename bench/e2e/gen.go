package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	indexsel "repro"
	"repro/internal/compress"
)

// Input generation. Everything here runs in the generating process; the
// measured process only reads the files written below.

func writeWorkload(path string, w *indexsel.Workload) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := indexsel.WriteWorkload(f, w); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// --- erp-extend ---------------------------------------------------------

func erpConfig(seed int64, tiny bool) indexsel.ERPConfig {
	cfg := indexsel.DefaultERPConfig()
	cfg.Seed = seed
	if tiny {
		cfg.Tables, cfg.TotalAttrs, cfg.Queries = 12, 80, 40
	}
	return cfg
}

func genERP(dir string, seed int64, tiny bool) error {
	w, err := indexsel.GenerateERPWorkload(erpConfig(seed, tiny))
	if err != nil {
		return err
	}
	return writeWorkload(filepath.Join(dir, "erp.json"), w)
}

// --- sql-writes ---------------------------------------------------------

// writesConfig is the Appendix-C generator with a fifth of each table's
// templates turned into writes; sql-writes and daemon-drift share it. Tables
// are 30 attributes wide, not the paper's 50: candidate enumeration expands
// every full-row insert into all its attribute combinations up to width 4,
// which at 50 attributes takes seconds and a gigabyte per candidate set.
func writesConfig(seed int64, tiny bool) indexsel.GenConfig {
	cfg := indexsel.DefaultGenConfig()
	cfg.Seed = seed
	cfg.AttrsPerTable = 30
	cfg.WriteShare = 0.2
	if tiny {
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 10
	}
	return cfg
}

// sqlExpect is what parsing the generated script must yield.
type sqlExpect struct {
	Templates int   `json:"templates"`
	TotalFreq int64 `json:"total_freq"`
}

func genSQL(dir string, seed int64, tiny bool) error {
	w, err := indexsel.GenerateWorkload(writesConfig(seed, tiny))
	if err != nil {
		return err
	}
	script, expect := renderSQL(w)
	if err := os.WriteFile(filepath.Join(dir, "workload.sql"), []byte(script), 0o644); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "expect.json"), expect)
}

// renderSQL writes w as a schema script plus query log. Every template is
// logged twice with its frequency split between the two statements, so the
// parser must aggregate identical templates to recover w. Templates that
// only differ in attribute order are one template to the parser; the
// expectation counts them once.
func renderSQL(w *indexsel.Workload) (string, sqlExpect) {
	var b strings.Builder
	col := func(attr int) string {
		t := w.Tables[w.TableOf(attr)]
		for i, a := range t.Attrs {
			if a == attr {
				return fmt.Sprintf("a%02d", i+1)
			}
		}
		panic("attribute not in its table")
	}
	tab := func(t int) string { return fmt.Sprintf("t%02d", t+1) }
	for _, t := range w.Tables {
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", tab(t.ID))
		for i, id := range t.Attrs {
			a := w.Attr(id)
			sep := ","
			if i == len(t.Attrs)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "  %s CHAR(%d) CARDINALITY %d%s\n", col(id), a.ValueSize, a.Distinct, sep)
		}
		fmt.Fprintf(&b, ") ROWS %d;\n", t.Rows)
	}
	statement := func(q indexsel.Query) string {
		cols := make([]string, len(q.Attrs))
		for i, a := range q.Attrs {
			cols[i] = col(a)
		}
		switch q.Kind.String() {
		case "insert":
			marks := strings.TrimSuffix(strings.Repeat("?, ", len(cols)), ", ")
			return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s);", tab(q.Table), strings.Join(cols, ", "), marks)
		case "update":
			return fmt.Sprintf("UPDATE %s SET %s = ?;", tab(q.Table), strings.Join(cols, " = ?, "))
		default:
			return fmt.Sprintf("SELECT * FROM %s WHERE %s = ?;", tab(q.Table), strings.Join(cols, " = ? AND "))
		}
	}
	distinct := map[string]bool{}
	var expect sqlExpect
	for pass := 0; pass < 2; pass++ {
		for _, q := range w.Queries {
			first := (q.Freq + 1) / 2
			freq := first
			if pass == 1 {
				freq = q.Freq - first
			}
			if freq == 0 {
				continue
			}
			fmt.Fprintf(&b, "-- freq: %d\n%s\n", freq, statement(q))
		}
	}
	for _, q := range w.Queries {
		attrs := append([]int(nil), q.Attrs...)
		sort.Ints(attrs)
		distinct[fmt.Sprint(q.Table, q.Kind, attrs)] = true
		expect.TotalFreq += q.Freq
	}
	expect.Templates = len(distinct)
	return b.String(), expect
}

// --- fleet-nearclone ----------------------------------------------------

type fleetManifest struct {
	Families []fleetFamily `json:"families"`
	Tenants  []fleetMember `json:"tenants"`
}

type fleetFamily struct {
	Schema string `json:"schema"` // base workload the family's database is built from
	DBSeed int64  `json:"db_seed"`
}

type fleetMember struct {
	File   string  `json:"file"`
	Family int     `json:"family"`
	Weight float64 `json:"weight"`
}

func fleetShape(tiny bool) (families, clones int) {
	if tiny {
		return 2, 4
	}
	return 16, 16
}

func genFleet(dir string, seed int64, tiny bool) error {
	families, clones := fleetShape(tiny)
	rng := rand.New(rand.NewSource(seed))
	var m fleetManifest
	for f := 0; f < families; f++ {
		cfg := indexsel.DefaultGenConfig()
		cfg.Tables, cfg.AttrsPerTable, cfg.QueriesPerTable = 2, 10, 20
		cfg.RowsBase = int64(3000 + 250*f)
		if tiny {
			cfg.RowsBase /= 10
		}
		cfg.Seed = seed*1000 + int64(f)
		base, err := indexsel.GenerateWorkload(cfg)
		if err != nil {
			return err
		}
		schema := fmt.Sprintf("family-%d.json", f)
		if err := writeWorkload(filepath.Join(dir, schema), base); err != nil {
			return err
		}
		m.Families = append(m.Families, fleetFamily{Schema: schema, DBSeed: cfg.Seed})
		members, err := indexsel.TenantFamily(base, clones, cfg.Seed*1000, 0.6)
		if err != nil {
			return err
		}
		for i, w := range members {
			clone, err := indexsel.PerturbTemplates(w, cfg.Seed*10000+int64(i), 2, 2)
			if err != nil {
				return err
			}
			if clone, err = distinctTemplates(clone); err != nil {
				return err
			}
			file := fmt.Sprintf("tenant-%d-%02d.json", f, i)
			if err := writeWorkload(filepath.Join(dir, file), clone); err != nil {
				return err
			}
			// Random weights make the scheduler interleave families instead
			// of draining them one after another.
			m.Tenants = append(m.Tenants, fleetMember{File: file, Family: f, Weight: 0.5 + 1.5*rng.Float64()})
		}
	}
	return writeJSON(filepath.Join(dir, "manifest.json"), m)
}

// distinctTemplates merges templates with equal signatures, adding up their
// frequencies. A tenant without repeated templates keeps its own template
// IDs as the first member of a near-match cluster, which is what lets the
// benchmark compare that tenant with a standalone run over its own measured
// source.
func distinctTemplates(w *indexsel.Workload) (*indexsel.Workload, error) {
	var qs []indexsel.Query
	at := map[string]int{}
	for _, q := range w.Queries {
		sig := compress.TemplateSignature(q)
		if i, ok := at[sig]; ok {
			qs[i].Freq += q.Freq
			continue
		}
		at[sig] = len(qs)
		q.ID = len(qs)
		q.Attrs = append([]int(nil), q.Attrs...)
		qs = append(qs, q)
	}
	tables := make([]indexsel.Table, len(w.Tables))
	copy(tables, w.Tables)
	return indexsel.NewWorkload(tables, append([]indexsel.Attribute(nil), w.Attrs()...), qs)
}

// --- daemon-drift -------------------------------------------------------

const (
	daemonBatch       = 32            // observations per POST
	daemonObsPerPhase = 4             // observations per template and phase
	daemonPhaseGap    = time.Hour     // fake-clock time between phases
	daemonDrift       = 25            // templates dropped and added between phases
	daemonStartUnix   = 1_767_225_600 // 2026-01-01T00:00:00Z
)

// daemonShape is how many streams the client replays and how many phases
// each has.
func daemonShape(tiny bool) (streams, phases int) {
	if tiny {
		return 2, 3
	}
	return 4, 18
}

// genDaemon writes the schema (the sql-writes workload) and drifting
// observation streams: in every phase each current template is observed
// daemonObsPerPhase times, in shuffled order, stamped with the phase's time.
// Between phases daemonDrift templates are dropped and as many added. The
// streams start from the same schema and drift apart.
func genDaemon(dir string, seed int64, tiny bool) error {
	base, err := indexsel.GenerateWorkload(writesConfig(seed, tiny))
	if err != nil {
		return err
	}
	if err := writeWorkload(filepath.Join(dir, "schema.json"), base); err != nil {
		return err
	}
	streams, phases := daemonShape(tiny)
	drift := daemonDrift
	if tiny {
		drift = 3
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < streams; k++ {
		path := filepath.Join(dir, fmt.Sprintf("stream-%d.jsonl", k))
		if err := writeStream(path, base, phases, drift, seed*1000+int64(k)*100, rng); err != nil {
			return err
		}
	}
	return nil
}

func writeStream(path string, base *indexsel.Workload, phases, drift int, seed int64, rng *rand.Rand) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	cur := base
	for p := 0; p < phases; p++ {
		if p > 0 {
			if cur, err = indexsel.PerturbTemplates(cur, seed+int64(p), drift, drift); err != nil {
				f.Close()
				return err
			}
		}
		at := time.Unix(daemonStartUnix, 0).UTC().Add(time.Duration(p) * daemonPhaseGap)
		var obs []indexsel.Observation
		for _, q := range cur.Queries {
			o := indexsel.Observation{Table: cur.Tables[q.Table].Name, Kind: q.Kind.String(), At: at}
			for _, a := range q.Attrs {
				o.Attrs = append(o.Attrs, cur.Attr(a).Name)
			}
			o.Count = max(1, q.Freq/daemonObsPerPhase)
			for i := 0; i < daemonObsPerPhase; i++ {
				obs = append(obs, o)
			}
		}
		rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
		for _, o := range obs {
			if err := enc.Encode(o); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
