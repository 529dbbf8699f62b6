package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Source is what a live endpoint introspects — *core.Table satisfies it.
// Either method may return nil (e.g. before the table under test exists);
// the handlers answer 503 until it does.
type Source interface {
	Metrics() *Registry
	TraceSnapshot() []Event
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP endpoint on addr (":0" picks a free port) exposing
//
//	/metrics      — registry snapshot as JSON
//	/trace        — merged flight-recorder dump, text (add ?format=json); the
//	                text form opens with a "#" line stating the op lane's
//	                sample period when the source's registry has the
//	                flight.op_sample_period gauge
//	/debug/pprof/ — the standard runtime profiles
//
// against src. It returns once the listener is bound; requests are served
// on a background goroutine until Close.
func Serve(addr string, src Source) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		reg := src.Metrics()
		if reg == nil {
			http.Error(w, "no table attached", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		events := src.TraceSnapshot()
		if events == nil {
			http.Error(w, "no table attached", http.StatusServiceUnavailable)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(events)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// What the dump can be read as: the source says, through its
		// registry, how thinly it samples the op lane.
		if reg := src.Metrics(); reg != nil {
			if n := reg.Snapshot().Gauges["flight.op_sample_period"]; n > 1 {
				fmt.Fprintf(w, "# control lane complete; op lane sampled 1 in %d by key hash, plus every failed mutation (b=0)\n", n)
			}
		}
		for _, e := range events {
			fmt.Fprintln(w, e.String())
		}
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

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
