package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewMux returns an http.ServeMux exposing the registry at /metrics
// (Prometheus text format), the progress snapshot at /progress, the expvar
// mirror at /debug/vars, and the pprof handlers under /debug/pprof/ — the
// standard inspection surface for a long-running advisor service, on one
// mux so a single -metrics-addr flag wires all of it.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/progress", handleProgress)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleProgress serves ProgressSnapshot: the run section at the top level,
// and the fleet and daemon sections once begun. Without parameters it
// returns one JSON snapshot; with ?stream=1 it streams snapshots as
// server-sent events (one `data:` line per tick, default every 200ms,
// ?interval= to override) until the run, and the fleet when one has begun,
// finishes or the client goes away — `curl -N :PORT/progress?stream=1`
// watches a deadline-bound run live.
func handleProgress(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("stream") == "" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ProgressSnapshot())
		return
	}

	interval := 200 * time.Millisecond
	if s := req.URL.Query().Get("interval"); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d >= 50*time.Millisecond {
			interval = d
		}
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		st := ProgressSnapshot()
		b, err := json.Marshal(st)
		if err != nil {
			return
		}
		if _, err := w.Write(append(append([]byte("data: "), b...), '\n', '\n')); err != nil {
			return
		}
		fl.Flush()
		// A fleet interleaves many per-tenant runs, each flipping Done; keep
		// streaming until the fleet itself (when one is live) has finished.
		if st.Done && !st.Active && (st.Fleet == nil || (st.Fleet.Done && !st.Fleet.Active)) {
			return
		}
		select {
		case <-req.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// Serve starts an HTTP server for NewMux(r) on addr in a background
// goroutine, returning the server (for Close/Shutdown) and the bound
// address (useful with ":0").
func Serve(addr string, r *Registry) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: NewMux(r)}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
