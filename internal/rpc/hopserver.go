package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/aead"
	"repro/internal/mix"
	"repro/internal/nizk"
)

// HopServer hosts one mix server position for a remote chain
// orchestrator: the serving half of the hop transport, what an
// `xrd-server -role mix` process runs. It starts keyless; the
// gateway binds it to a chain position with hop.init (supplying the
// base point its keys chain off, §6.1) and then drives rounds
// through the hop.* methods, each of which is the mix.Server method
// of the same name and nothing else: the endpoint keeps no batch and
// no round state of its own.
//
// The hop trusts its orchestrator for liveness only: every incoming
// point is validated as its request decodes, and a malformed request
// gets an error response, never a panic. Secrets never leave except
// where the protocol says so (inner key reveal after a successful
// round, blame reveals with their DLEQ proofs).
type HopServer struct {
	*listenerCore
	scheme aead.Scheme

	// mu serialises the handlers: one mix.Server call at a time, and a
	// rebind swaps srv.
	mu  sync.Mutex
	srv *mix.Server

	// bound remembers the init binding for idempotent re-inits (a
	// gateway that restarts mid-setup re-sends the same request), and
	// lastRound is the highest round a hop.begin has been seen for, a
	// liveness watermark. Both are written under mu but atomic, so the
	// admin health endpoint reads them while a hop.mix holds mu.
	bound     atomic.Pointer[HopInitRequest]
	lastRound atomic.Uint64
}

// NewHopServer starts a hop endpoint on addr. A nil scheme selects
// ChaCha20-Poly1305; it must match the deployment's.
func NewHopServer(addr string, scheme aead.Scheme) (*HopServer, error) {
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	h := &HopServer{scheme: scheme}
	lc, err := newListenerCore(addr, nil, nil, h.methods())
	if err != nil {
		return nil, err
	}
	h.listenerCore = lc
	return h, nil
}

// methods is the hop endpoint's method table. Every handler runs
// under h.mu.
func (h *HopServer) methods() map[string]handler {
	m := map[string]handler{
		"hop.init":    typed(h.bind),
		"hop.begin":   bound(h, h.begin),
		"hop.reveal":  bound(h, h.reveal),
		"hop.mix":     bound(h, h.mix),
		"hop.certify": bound(h, h.certify),
		"hop.blame":   bound(h, h.blame),
		"hop.accuse":  bound(h, h.accuse),
	}
	for name, fn := range m {
		m[name] = func(body frameBody) (*bytes.Buffer, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			return fn(body)
		}
	}
	return m
}

// HealthInfo reports the hop's binding state for the admin health
// endpoint: whether a coordinator has bound it yet, the epoch and
// chain coordinate it serves, and the last round it began. It never
// waits for a handler, so it answers while the hop is mixing.
func (h *HopServer) HealthInfo() (bound bool, epoch uint64, chain, index int, round uint64) {
	b := h.bound.Load()
	if b == nil {
		return false, 0, 0, 0, h.lastRound.Load()
	}
	return true, b.Epoch, b.Chain, b.Index, h.lastRound.Load()
}

// bound adapts a handler that drives the bound mix server, refusing
// the call while hop.init has not happened yet.
func bound[Req, Resp any](h *HopServer, fn func(*mix.Server, *Req) (Resp, error)) handler {
	return typed(func(req *Req) (Resp, error) {
		if h.srv == nil {
			var zero Resp
			return zero, errors.New("rpc: hop not initialised; gateway must send hop.init first")
		}
		return fn(h.srv, req)
	})
}

func (h *HopServer) bind(req *HopInitRequest) (mix.HopKeys, error) {
	if cur := h.bound.Load(); cur != nil {
		if req.Epoch == cur.Epoch {
			if cur.Chain != req.Chain || cur.Index != req.Index || !cur.Base.Equal(req.Base) {
				return mix.HopKeys{}, fmt.Errorf("rpc: hop already bound to chain %d position %d in epoch %d", cur.Chain, cur.Index, cur.Epoch)
			}
			return h.srv.Keys(), nil
		}
		if req.Epoch < cur.Epoch {
			return mix.HopKeys{}, fmt.Errorf("rpc: hop serving epoch %d, refusing rebind to stale epoch %d", cur.Epoch, req.Epoch)
		}
	}
	if req.Index < 0 || req.Chain < 0 {
		return mix.HopKeys{}, fmt.Errorf("rpc: invalid chain position %d:%d", req.Chain, req.Index)
	}
	// Fresh bind, or an epoch advance: the chain was re-formed, so
	// the old position and keys are gone.
	h.srv = mix.NewChainServer(req.Chain, req.Index, req.Base, h.scheme)
	h.bound.Store(req)
	return h.srv.Keys(), nil
}

func (h *HopServer) begin(srv *mix.Server, req *HopBeginRequest) (HopBeginResponse, error) {
	if req.Round > h.lastRound.Load() {
		h.lastRound.Store(req.Round)
	}
	ipk, proof := srv.BeginRound(req.Round)
	return HopBeginResponse{Ipk: ipk, Proof: proof}, nil
}

func (h *HopServer) reveal(srv *mix.Server, req *HopRevealRequest) (HopRevealResponse, error) {
	isk, err := srv.RevealInnerKey(req.Round)
	return HopRevealResponse{Isk: isk}, err
}

func (h *HopServer) mix(srv *mix.Server, req *HopMixRequest) (*mix.MixResult, error) {
	return srv.Mix(req.Round, req.Nonce, req.Envelopes)
}

func (h *HopServer) certify(srv *mix.Server, req *HopCertifyRequest) (nizk.Proof, error) {
	keep, err := unpackBools(req.Keep, req.N)
	if err != nil {
		return nizk.Proof{}, err
	}
	return srv.ReProveSubset(req.Round, req.Epoch, keep)
}

func (h *HopServer) blame(srv *mix.Server, req *HopBlameRequest) (mix.BlameReveal, error) {
	return srv.BlameRevealAt(req.Round, req.Msg, req.Pos)
}

func (h *HopServer) accuse(srv *mix.Server, req *HopAccuseRequest) (mix.AccuseReveal, error) {
	return srv.Accuse(req.Round, req.Msg, req.Key), nil
}
