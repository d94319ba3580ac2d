package rpc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/aead"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// HopServer hosts one mix server position for a remote chain
// orchestrator: the serving half of the hop transport, what an
// `xrd-server -role mix` process runs. It starts keyless; the
// gateway binds it to a chain position with hop.init (supplying the
// base point its keys chain off, §6.1) and then drives rounds
// through the hop.* methods. Incoming batches are staged chunk by
// chunk so no single frame — and no single allocation on the read
// path — grows with the round size.
//
// The hop trusts its orchestrator for liveness only: every incoming
// point is validated as its request decodes, chunk sizes and
// sequence numbers are enforced, and a malformed request gets an
// error response, never a panic. Secrets never leave except where
// the protocol says so (inner key reveal after a successful round,
// blame reveals with their DLEQ proofs).
type HopServer struct {
	*listenerCore
	scheme aead.Scheme

	mu  sync.Mutex
	srv *mix.Server
	// bound remembers the init binding for idempotent re-inits (a
	// gateway that restarts mid-setup re-sends the same request).
	bound *HopInitRequest
	// stage is the inbound batch being assembled for a round.
	stage *hopStage
	// mixed is the last mixing step's output awaiting pulls.
	mixed *hopMixed
	// lastRound is the highest round a hop.begin has been seen for,
	// reported on the admin health endpoint as a liveness watermark.
	lastRound uint64
}

type hopStage struct {
	round   uint64
	nextSeq int
	envs    []onion.Envelope
}

type hopMixed struct {
	round uint64
	out   []onion.Envelope
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
// under h.mu: the staging and binding state belongs to one round
// conversation at a time.
func (h *HopServer) methods() map[string]handler {
	m := map[string]handler{
		"hop.init":    typed(h.bind),
		"hop.begin":   bound(h, h.begin),
		"hop.reveal":  bound(h, h.reveal),
		"hop.batch":   bound(h, h.batch),
		"hop.mix":     bound(h, h.mix),
		"hop.pull":    typed(h.pull),
		"hop.certify": bound(h, h.certify),
		"hop.blame":   bound(h, h.blame),
		"hop.accuse":  bound(h, h.accuse),
	}
	for name, fn := range m {
		m[name] = func(body []byte) ([]byte, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			return fn(body)
		}
	}
	return m
}

// HealthInfo reports the hop's binding state for the admin health
// endpoint: whether a coordinator has bound it yet, the epoch and
// chain coordinate it serves, and the last round it began.
func (h *HopServer) HealthInfo() (bound bool, epoch uint64, chain, index int, round uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bound == nil {
		return false, 0, 0, 0, h.lastRound
	}
	return true, h.bound.Epoch, h.bound.Chain, h.bound.Index, h.lastRound
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
	if h.bound != nil && req.Epoch == h.bound.Epoch {
		if h.bound.Chain != req.Chain || h.bound.Index != req.Index || !h.bound.Base.Equal(req.Base) {
			return mix.HopKeys{}, fmt.Errorf("rpc: hop already bound to chain %d position %d in epoch %d", h.bound.Chain, h.bound.Index, h.bound.Epoch)
		}
		return h.srv.Keys(), nil
	}
	if h.bound != nil && req.Epoch < h.bound.Epoch {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop serving epoch %d, refusing rebind to stale epoch %d", h.bound.Epoch, req.Epoch)
	}
	if req.Index < 0 || req.Chain < 0 {
		return mix.HopKeys{}, fmt.Errorf("rpc: invalid chain position %d:%d", req.Chain, req.Index)
	}
	// Fresh bind, or an epoch advance: the chain was re-formed, so
	// the old position, keys and any half-staged round are gone.
	h.srv = mix.NewChainServer(req.Chain, req.Index, req.Base, h.scheme)
	h.bound = req
	h.stage, h.mixed = nil, nil
	return h.srv.Keys(), nil
}

func (h *HopServer) begin(srv *mix.Server, req *HopBeginRequest) (HopBeginResponse, error) {
	if req.Round > h.lastRound {
		h.lastRound = req.Round
	}
	ipk, proof := srv.BeginRound(req.Round)
	return HopBeginResponse{Ipk: ipk, Proof: proof}, nil
}

func (h *HopServer) reveal(srv *mix.Server, req *HopRevealRequest) (HopRevealResponse, error) {
	isk, err := srv.RevealInnerKey(req.Round)
	return HopRevealResponse{Isk: isk}, err
}

func (h *HopServer) batch(_ *mix.Server, req *HopBatchRequest) (HopBatchResponse, error) {
	if len(req.Envelopes) == 0 || len(req.Envelopes) > MaxHopChunkEnvelopes {
		return HopBatchResponse{}, fmt.Errorf("rpc: batch chunk of %d envelopes outside (0, %d]", len(req.Envelopes), MaxHopChunkEnvelopes)
	}
	if req.Seq == 0 {
		// A fresh batch opens a new staging buffer, superseding
		// anything half-staged (the orchestrator restarts from
		// chunk 0 after blame removals or its own crash).
		h.stage = &hopStage{round: req.Round}
	}
	if h.stage == nil || h.stage.round != req.Round || req.Seq != h.stage.nextSeq {
		return HopBatchResponse{}, fmt.Errorf("rpc: unexpected batch chunk round=%d seq=%d", req.Round, req.Seq)
	}
	h.stage.envs = append(h.stage.envs, req.Envelopes...)
	h.stage.nextSeq++
	return HopBatchResponse{Received: len(h.stage.envs)}, nil
}

func (h *HopServer) mix(srv *mix.Server, req *HopMixRequest) (HopMixResponse, error) {
	if len(req.Nonce) != aead.NonceSize {
		return HopMixResponse{}, fmt.Errorf("rpc: nonce has %d bytes, want %d", len(req.Nonce), aead.NonceSize)
	}
	if h.stage == nil || h.stage.round != req.Round {
		return HopMixResponse{}, fmt.Errorf("rpc: no staged batch for round %d", req.Round)
	}
	if len(h.stage.envs) != req.Count {
		return HopMixResponse{}, fmt.Errorf("rpc: staged %d envelopes, orchestrator announced %d", len(h.stage.envs), req.Count)
	}
	var nonce [aead.NonceSize]byte
	copy(nonce[:], req.Nonce)
	envs := h.stage.envs
	h.stage = nil // consumed either way; retries restage from seq 0
	mr, err := srv.Mix(req.Round, nonce, envs)
	if err != nil {
		return HopMixResponse{}, err
	}
	if len(mr.Failed) > 0 {
		h.mixed = nil
		return HopMixResponse{Failed: mr.Failed}, nil
	}
	h.mixed = &hopMixed{round: req.Round, out: mr.Out}
	return HopMixResponse{
		Proof:    mr.Proof,
		Out2In:   mr.Out2In,
		OutCount: len(mr.Out),
	}, nil
}

func (h *HopServer) pull(req *HopPullRequest) (HopPullResponse, error) {
	if h.mixed == nil || h.mixed.round != req.Round {
		return HopPullResponse{}, fmt.Errorf("rpc: no mixed output for round %d", req.Round)
	}
	// Bound Seq itself before multiplying: a huge value would
	// overflow the offset computation into a negative slice index.
	if req.Seq < 0 || req.Seq > len(h.mixed.out)/MaxHopChunkEnvelopes {
		return HopPullResponse{}, fmt.Errorf("rpc: output chunk %d out of range", req.Seq)
	}
	lo := req.Seq * MaxHopChunkEnvelopes
	if lo >= len(h.mixed.out) {
		return HopPullResponse{}, fmt.Errorf("rpc: output chunk %d out of range", req.Seq)
	}
	hi := min(lo+MaxHopChunkEnvelopes, len(h.mixed.out))
	return HopPullResponse{
		Envelopes: h.mixed.out[lo:hi],
		More:      hi < len(h.mixed.out),
	}, nil
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
