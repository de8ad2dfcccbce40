package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Admin serves the operator plane over HTTP on its own listener,
// separate from the DNS sockets:
//
//	/metrics        Prometheus text exposition of Registry
//	/healthz        readiness probe (503 while draining)
//	/health         health-registry snapshot as JSON (404 if unwired)
//	/routes         subnet→PoP routing-table summary as JSON (404 if unwired)
//	/mesh           federated-mesh peer view as JSON (404 if unwired)
//	/reload         POST: online config/zone reload (404 if unwired)
//	/querylog       drains the sampled query log as JSON lines
//	/debug/pprof/   the standard Go profiling handlers
type Admin struct {
	// Addr is the listen address, e.g. "127.0.0.1:8053" or ":0".
	Addr string
	// Registry backs /metrics; nil serves an empty exposition.
	Registry *Registry
	// Log backs /querylog; nil returns 404.
	Log *QueryLog
	// Healthy gates /healthz; nil means always ready. Wire it to the
	// DNS server's drain state so load balancers stop sending traffic
	// during graceful shutdown.
	Healthy func() bool
	// Health backs /health with a JSON-serializable snapshot; nil
	// returns 404. Wire it to a health.Registry's Snapshot so
	// operators can read target states and probe scores.
	Health func() any
	// Routes backs /routes with a JSON-serializable summary of the
	// subnet→PoP routing table; nil returns 404.
	Routes func() any
	// Mesh backs /mesh with a JSON-serializable snapshot of the
	// federated-mesh peer view (generations, digest sizes, eligibility);
	// nil returns 404.
	Mesh func() any
	// Reload backs POST /reload: re-parse configuration files and swap
	// the serving snapshots in place (the SIGHUP path over HTTP); nil
	// returns 404. GET is rejected — reloading mutates state.
	Reload func() error

	mu  sync.Mutex
	ln  net.Listener
	srv *http.Server
}

// Handler returns the admin mux; exported so tests and embedders can
// serve it without a socket.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if a.Registry != nil {
			_ = a.Registry.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if a.Healthy != nil && !a.Healthy() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		if a.Health == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Health())
	})
	mux.HandleFunc("/routes", func(w http.ResponseWriter, r *http.Request) {
		if a.Routes == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Routes())
	})
	mux.HandleFunc("/mesh", func(w http.ResponseWriter, r *http.Request) {
		if a.Mesh == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Mesh())
	})
	mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
		if a.Reload == nil {
			http.NotFound(w, r)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := a.Reload(); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "error", "error": err.Error()})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/querylog", func(w http.ResponseWriter, r *http.Request) {
		if a.Log == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = a.Log.WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds the listener and serves in a background goroutine.
func (a *Admin) Start() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln != nil {
		return errors.New("telemetry: admin already started")
	}
	ln, err := net.Listen("tcp", a.Addr)
	if err != nil {
		return fmt.Errorf("telemetry: admin listen %q: %w", a.Addr, err)
	}
	a.ln = ln
	a.srv = &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = a.srv.Serve(ln) }()
	return nil
}

// LocalAddr returns the bound address; valid after Start.
func (a *Admin) LocalAddr() net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ln == nil {
		return nil
	}
	return a.ln.Addr()
}

// Close stops the admin server.
func (a *Admin) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.srv == nil {
		return nil
	}
	err := a.srv.Close()
	a.srv, a.ln = nil, nil
	return err
}
