package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a live telemetry endpoint bound to an observer.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the telemetry endpoint on addr (e.g. "127.0.0.1:0" for an
// ephemeral port). Routes:
//
//	/metrics        registry snapshot as JSON; ?format=prom for the
//	                Prometheus text exposition format
//	/trace          drain the tracer rings as Chrome trace_event JSON
//	/recovery       the most recent recovery profile (per-worker
//	                virtual-time decomposition, critical path, top
//	                stalls), published via SetView("recovery", ...)
//	/tenants        the serving layer's per-tenant admission state
//	                (watermarks, queue depths, throttle counters),
//	                published via SetView("tenants", ...)
//	/slo            the current SLO snapshot (compliance, error budget,
//	                multi-window burn rates), published via
//	                SetView("slo", ...)
//	/incidents      the reconstructed incident timeline (serve-layer
//	                heals, Slowdown bursts, SLO breach
//	                edges, journey-derived stage latencies) as ordered
//	                JSON; ?format=chrome for a Chrome trace; ?quiet_ms=N
//	                tunes the incident clustering gap
//	/debug/pprof/*  the standard runtime profiles
//
// The handler holds only the observer pointer, so metrics published after
// Serve starts are visible. /trace is destructive (it drains the rings);
// concurrent span emission during a drain is safe.
func Serve(addr string, o *Observer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := o.Registry()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WriteProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		events, dropped := o.T().Drain()
		w.Header().Set("Content-Type", "application/json")
		_ = ExportChrome(w, events, dropped)
	})
	mux.HandleFunc("/recovery", func(w http.ResponseWriter, r *http.Request) {
		v, ok := o.View("recovery")
		if !ok {
			http.Error(w, "no recovery profile recorded yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		v, ok := o.View("tenants")
		if !ok {
			http.Error(w, "no serving layer attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		v, ok := o.View("slo")
		if !ok {
			http.Error(w, "no SLO monitor attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
	mux.HandleFunc("/incidents", func(w http.ResponseWriter, r *http.Request) {
		tl := o.Timeline()
		if tl == nil {
			http.Error(w, "no timeline recorded", http.StatusNotFound)
			return
		}
		quiet := time.Second
		if q := r.URL.Query().Get("quiet_ms"); q != "" {
			if ms, err := time.ParseDuration(q + "ms"); err == nil && ms > 0 {
				quiet = ms
			}
		}
		rep := tl.Report(quiet)
		if r.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			_ = ExportTimelineChrome(w, rep)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// URL returns the server's base URL (http://host:port).
func (s *Server) URL() string { return "http://" + s.ln.Addr().String() }

// Close stops the server, waiting briefly for in-flight handlers.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
