package rpc

import (
	"crypto/tls"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// HopClient is the gateway's handle on one remote mix position: the
// dialing half of the hop transport, implementing mix.Hop over pooled
// TLS connections with per-call deadlines. Batches stream in bounded
// chunks (MaxHopChunkEnvelopes per frame) and everything received is
// re-parsed and validated before it reaches the chain orchestrator.
//
// Init must run once, before the chain is assembled, to bind the
// remote process to its chain position and fetch its keys.
type HopClient struct {
	// CallTimeout bounds one ordinary request/response exchange;
	// MixTimeout bounds the hop.mix exchange, which waits for the
	// remote to mix the entire staged batch. Zero disables the
	// respective deadline.
	CallTimeout time.Duration
	MixTimeout  time.Duration

	*link

	keysMu sync.Mutex
	ready  bool
	keys   mix.HopKeys
}

var _ mix.Hop = (*HopClient)(nil)

// DialHop prepares a hop client for addr with the pinned TLS
// configuration (the mix process's certificate, distributed
// out-of-band like every server identity, §3.1). Connections are
// opened lazily and pooled.
func DialHop(addr string, tlsCfg *tls.Config) *HopClient {
	h := &HopClient{CallTimeout: DefaultHopCallTimeout, MixTimeout: DefaultHopMixTimeout}
	h.link = &link{
		addr:      addr,
		tlsCfg:    tlsCfg,
		dials:     obsHopDials,
		idleReaps: obsHopIdleReaps,
		timeout: func(class deadlineClass) time.Duration {
			if class == classMix {
				return h.MixTimeout
			}
			return h.CallTimeout
		},
	}
	return h
}

// Close releases all pooled connections.
func (h *HopClient) Close() error { h.link.close(); return nil }

// SetConnWrapper installs a wrapper applied to every connection the
// client dials from now on — the fault-injection hook (a
// faults.Injector.Wrapper value). nil removes the wrapper; already
// pooled connections are unaffected.
func (h *HopClient) SetConnWrapper(w func(net.Conn) net.Conn) {
	h.link.mu.Lock()
	h.link.wrap = w
	h.link.mu.Unlock()
}

// Init binds the remote process to chain position (chain, index) with
// key base `base` and fetches its published keys. Idempotent against
// the same binding, so a restarted gateway can re-run setup.
func (h *HopClient) Init(chain, index int, base group.Point) (mix.HopKeys, error) {
	return h.InitEpoch(0, chain, index, base)
}

// InitEpoch is Init for a given epoch. A higher epoch supersedes the
// hop's previous binding: after an eviction the orchestrator re-forms
// chains and re-initialises each surviving process in place, with
// fresh keys at its new position.
func (h *HopClient) InitEpoch(epoch uint64, chain, index int, base group.Point) (mix.HopKeys, error) {
	h.metrics.Store(newHopMetrics(chain, index))
	var w HopKeysResponse
	req := HopInitRequest{Epoch: epoch, Chain: chain, Index: index, Base: base.Bytes()}
	if err := h.call("hop.init", req, &w); err != nil {
		return mix.HopKeys{}, err
	}
	if w.Chain != chain || w.Index != index {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop answered for chain %d position %d, asked for %d:%d", w.Chain, w.Index, chain, index)
	}
	keys, err := hopKeysFromWire(w, base)
	if err != nil {
		return mix.HopKeys{}, err
	}
	h.keysMu.Lock()
	h.keys, h.ready = keys, true
	h.keysMu.Unlock()
	return keys, nil
}

// Keys returns the keys fetched by Init.
func (h *HopClient) Keys() mix.HopKeys {
	h.keysMu.Lock()
	defer h.keysMu.Unlock()
	if !h.ready {
		panic("rpc: HopClient.Keys before Init")
	}
	return h.keys
}

// BeginRound implements mix.Hop.
func (h *HopClient) BeginRound(round uint64) (group.Point, nizk.Proof, error) {
	var resp HopBeginResponse
	if err := h.call("hop.begin", HopBeginRequest{Round: round}, &resp); err != nil {
		return group.Point{}, nizk.Proof{}, err
	}
	ipk, err := group.ParsePoint(resp.Ipk)
	if err != nil {
		return group.Point{}, nizk.Proof{}, fmt.Errorf("rpc: inner key: %w", err)
	}
	proof, err := nizk.ParseProof(resp.Proof)
	if err != nil {
		return group.Point{}, nizk.Proof{}, fmt.Errorf("rpc: inner key proof: %w", err)
	}
	return ipk, proof, nil
}

// RevealInnerKey implements mix.Hop.
func (h *HopClient) RevealInnerKey(round uint64) (group.Scalar, error) {
	var resp HopRevealResponse
	if err := h.call("hop.reveal", HopRevealRequest{Round: round}, &resp); err != nil {
		return group.Scalar{}, err
	}
	isk, err := group.ParseScalar(resp.Isk)
	if err != nil {
		return group.Scalar{}, fmt.Errorf("rpc: inner secret: %w", err)
	}
	return isk, nil
}

// Mix implements mix.Hop: stream the batch in chunks, trigger the
// mixing step, pull the output back in chunks. The response is
// validated structurally here (parses, sizes, index ranges); the
// chain re-checks everything cryptographically.
func (h *HopClient) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*mix.MixResult, error) {
	err := chunks(len(in), func(seq, lo, hi int) error {
		var ack HopBatchResponse
		req := HopBatchRequest{Round: round, Seq: seq, Envelopes: envelopesToWire(in[lo:hi])}
		if err := h.call("hop.batch", req, &ack); err != nil {
			return fmt.Errorf("rpc: streaming batch chunk %d: %w", seq, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var mr HopMixResponse
	if err := h.call("hop.mix", HopMixRequest{Round: round, Nonce: nonce[:], Count: len(in)}, &mr); err != nil {
		return nil, err
	}
	if len(mr.Failed) > 0 {
		return &mix.MixResult{Failed: mr.Failed}, nil
	}
	proof, err := nizk.ParseProof(mr.Proof)
	if err != nil {
		return nil, fmt.Errorf("rpc: shuffle certificate: %w", err)
	}
	if mr.OutCount < 0 || mr.OutCount > len(in) {
		return nil, fmt.Errorf("rpc: hop reports %d outputs for %d inputs", mr.OutCount, len(in))
	}
	out := make([]onion.Envelope, 0, mr.OutCount)
	err = chunks(mr.OutCount, func(seq, lo, hi int) error {
		var pr HopPullResponse
		if err := h.call("hop.pull", HopPullRequest{Round: round, Seq: seq}, &pr); err != nil {
			return fmt.Errorf("rpc: pulling output chunk %d: %w", seq, err)
		}
		if len(pr.Envelopes) != hi-lo || pr.More != (hi < mr.OutCount) {
			return fmt.Errorf("rpc: output chunk %d (%d envelopes, more=%v) disagrees with the hop's announced output count %d", seq, len(pr.Envelopes), pr.More, mr.OutCount)
		}
		envs, err := envelopesFromWire(pr.Envelopes)
		if err != nil {
			return err
		}
		out = append(out, envs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &mix.MixResult{Out: out, Proof: proof, Out2In: mr.Out2In}, nil
}

// ReProveSubset implements mix.Hop.
func (h *HopClient) ReProveSubset(round uint64, epoch int, keep []bool) (nizk.Proof, error) {
	req := HopCertifyRequest{Round: round, Epoch: epoch, N: len(keep), Keep: packBools(keep)}
	var resp HopCertifyResponse
	if err := h.call("hop.certify", req, &resp); err != nil {
		return nizk.Proof{}, err
	}
	proof, err := nizk.ParseProof(resp.Proof)
	if err != nil {
		return nizk.Proof{}, fmt.Errorf("rpc: re-certification proof: %w", err)
	}
	return proof, nil
}

// BlameReveal implements mix.Hop.
func (h *HopClient) BlameReveal(round uint64, msg, pos int) (mix.BlameReveal, error) {
	var resp HopBlameResponse
	if err := h.call("hop.blame", HopBlameRequest{Round: round, Msg: msg, Pos: pos}, &resp); err != nil {
		return mix.BlameReveal{}, err
	}
	var rev mix.BlameReveal
	var err error
	if rev.Xin, err = group.ParsePoint(resp.Xin); err != nil {
		return mix.BlameReveal{}, fmt.Errorf("rpc: blame Xin: %w", err)
	}
	if rev.BlindProof, err = nizk.ParseProof(resp.BlindProof); err != nil {
		return mix.BlameReveal{}, fmt.Errorf("rpc: blame blind proof: %w", err)
	}
	if rev.K, err = group.ParsePoint(resp.K); err != nil {
		return mix.BlameReveal{}, fmt.Errorf("rpc: blame key: %w", err)
	}
	if rev.KeyProof, err = nizk.ParseProof(resp.KeyProof); err != nil {
		return mix.BlameReveal{}, fmt.Errorf("rpc: blame key proof: %w", err)
	}
	return rev, nil
}

// Accuse implements mix.Hop.
func (h *HopClient) Accuse(round uint64, msg int, key group.Point) (mix.AccuseReveal, error) {
	var resp HopAccuseResponse
	if err := h.call("hop.accuse", HopAccuseRequest{Round: round, Msg: msg, Key: key.Bytes()}, &resp); err != nil {
		return mix.AccuseReveal{}, err
	}
	var ar mix.AccuseReveal
	var err error
	if ar.K, err = group.ParsePoint(resp.K); err != nil {
		return mix.AccuseReveal{}, fmt.Errorf("rpc: accuse key: %w", err)
	}
	if ar.Proof, err = nizk.ParseProof(resp.Proof); err != nil {
		return mix.AccuseReveal{}, fmt.Errorf("rpc: accuse proof: %w", err)
	}
	return ar, nil
}
