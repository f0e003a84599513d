package server

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"pascalr"
	"pascalr/internal/obs"
)

// metricsPayload is the /metrics.json document: serving-layer gauges,
// the live engine counters, and a per-relation statistics snapshot.
type metricsPayload struct {
	Sessions sessionMetrics      `json:"sessions"`
	Counters pascalr.Stats       `json:"counters"`
	Tables   []pascalr.TableStat `json:"tables"`
}

type sessionMetrics struct {
	Active   int    `json:"active"`
	Peak     int    `json:"peak"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Killed   uint64 `json:"killed"`
	Max      int    `json:"max"`
}

// startMonitor binds the HTTP monitoring listener and serves /metrics
// (Prometheus exposition), /metrics.json (the structured snapshot),
// /processlist, and /debug/pprof until Shutdown closes it.
func (s *Server) startMonitor() error {
	ln, err := net.Listen("tcp", s.cfg.MonitorAddr)
	if err != nil {
		return err
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handlePrometheus)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/processlist", s.handleProcessList)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return nil
}

// handlePrometheus renders the process-wide metrics registry in the
// Prometheus text exposition format. Every value is read through the
// registry's atomic snapshot, so scraping during a write-heavy workload
// sees no torn values.
func handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w)
}

// handleMetricsJSON snapshots through the same paths the binary
// protocol uses — Database.Stats merges the counter sinks under the
// engine's lock, TableStats reads the relations' published snapshots —
// so a scrape concurrent with a write-heavy workload observes a
// consistent document. A fail-stopped database answers 503 with its
// error.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	tables, err := s.db.TableStats()
	if err != nil {
		// A fail-stopped database: its statistics observed mutations
		// recovery will not reproduce.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.mu.Lock()
	active, peak := len(s.sessions), s.peak
	s.mu.Unlock()
	payload := metricsPayload{
		Sessions: sessionMetrics{
			Active:   active,
			Peak:     peak,
			Accepted: s.accepted.Load(),
			Rejected: s.rejected.Load(),
			Killed:   s.killed.Load(),
			Max:      s.cfg.MaxSessions,
		},
		Counters: s.db.Stats(),
		Tables:   tables,
	}
	writeJSON(w, payload)
}

func (s *Server) handleProcessList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.processList())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
