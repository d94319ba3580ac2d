package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is the /healthz payload: enough for an operator (or the
// deploy smoke test) to tell which process answered and where its
// round watermark stands. Role-specific fields are zero/omitted on
// roles they do not apply to.
type Health struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch"`
	// Round is the process's round watermark: the next round for the
	// coordinator and gateways, the last round begun for a mix hop.
	Round uint64 `json:"round"`
	// ShardLo/ShardHi report a gateway's registry shard range.
	ShardLo int `json:"shard_lo,omitempty"`
	ShardHi int `json:"shard_hi,omitempty"`
	// Chain/Position report a mix hop's current binding.
	Chain    int `json:"chain,omitempty"`
	Position int `json:"position,omitempty"`
	Users    int `json:"users,omitempty"`
	Chains   int `json:"chains,omitempty"`
}

// AdminConfig configures ServeAdmin. Zero fields fall back to the
// process-wide defaults.
type AdminConfig struct {
	// Registry backs /metrics; nil means Default.
	Registry *Registry
	// Tracer backs /debug/rounds; nil means DefaultTracer.
	Tracer *Tracer
	// Health backs /healthz; nil serves an empty Health.
	Health func() Health
}

// AdminServer is a running admin HTTP endpoint.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeAdmin starts a plain-HTTP admin server on addr serving:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       role, epoch, round watermark, shard range (JSON)
//	/debug/rounds  recent round traces (JSON, newest first)
//	/debug/pprof/  the standard pprof index, profiles and traces
//
// The pprof handlers are mounted on this server's private mux — not
// http.DefaultServeMux — so importing net/http/pprof's side effects
// is avoided and nothing is exposed except on the operator-chosen
// admin address. The admin port is unauthenticated plain HTTP by
// design (pprof and metrics are operator-only); bind it to loopback
// or a management network, never the public service address.
func ServeAdmin(addr string, cfg AdminConfig) (*AdminServer, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = DefaultTracer
	}
	health := cfg.Health
	if health == nil {
		health = func() Health { return Health{} }
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(health())
	})
	mux.HandleFunc("/debug/rounds", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tracer.Recent())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen on %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler: mux,
		// No global read/write timeouts: /debug/pprof/profile and
		// /debug/pprof/trace legitimately stream for their ?seconds=
		// duration. Header reads are still bounded.
		ReadHeaderTimeout: 10 * time.Second,
	}
	s := &AdminServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with :0).
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the admin server down.
func (s *AdminServer) Close() error { return s.srv.Close() }
