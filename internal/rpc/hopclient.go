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
// TLS connections with per-call deadlines, one exchange per method.
// Every point and proof received was validated when it decoded, before
// it reaches the chain orchestrator.
//
// Init must run once, before the chain is assembled, to bind the
// remote process to its chain position and fetch its keys.
type HopClient struct {
	// CallTimeout bounds one ordinary request/response exchange;
	// MixTimeout bounds the hop.mix exchange, which waits for the
	// remote to mix the entire batch. Zero disables the
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
	var keys mix.HopKeys
	req := HopInitRequest{Epoch: epoch, Chain: chain, Index: index, Base: base}
	if err := h.call("hop.init", req, &keys); err != nil {
		return mix.HopKeys{}, err
	}
	if keys.Chain != chain || keys.Index != index {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop answered for chain %d position %d, asked for %d:%d", keys.Chain, keys.Index, chain, index)
	}
	// The base is the orchestrator's choice, never the peer's word: a
	// hop that proved its keys over some other base must fail
	// VerifyHopKeys against the one it was asked to chain off.
	keys.BpkPrev = base
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
	err := h.call("hop.begin", HopBeginRequest{Round: round}, &resp)
	return resp.Ipk, resp.Proof, err
}

// RevealInnerKey implements mix.Hop.
func (h *HopClient) RevealInnerKey(round uint64) (group.Scalar, error) {
	var resp HopRevealResponse
	err := h.call("hop.reveal", HopRevealRequest{Round: round}, &resp)
	return resp.Isk, err
}

// Mix implements mix.Hop. The result's points and proof were
// validated when it decoded; its shape — output count, failure
// indices — is the chain's to check, as for any hop.
func (h *HopClient) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*mix.MixResult, error) {
	var mr mix.MixResult
	if err := h.call("hop.mix", HopMixRequest{Round: round, Nonce: nonce, Envelopes: in}, &mr); err != nil {
		return nil, err
	}
	return &mr, nil
}

// ReProveSubset implements mix.Hop.
func (h *HopClient) ReProveSubset(round uint64, epoch int, keep []bool) (nizk.Proof, error) {
	var proof nizk.Proof
	req := HopCertifyRequest{Round: round, Epoch: epoch, N: len(keep), Keep: packBools(keep)}
	err := h.call("hop.certify", req, &proof)
	return proof, err
}

// BlameReveal implements mix.Hop.
func (h *HopClient) BlameReveal(round uint64, msg, pos int) (mix.BlameReveal, error) {
	var rev mix.BlameReveal
	err := h.call("hop.blame", HopBlameRequest{Round: round, Msg: msg, Pos: pos}, &rev)
	return rev, err
}

// Accuse implements mix.Hop.
func (h *HopClient) Accuse(round uint64, msg int, key group.Point) (mix.AccuseReveal, error) {
	var ar mix.AccuseReveal
	err := h.call("hop.accuse", HopAccuseRequest{Round: round, Msg: msg, Key: key}, &ar)
	return ar, err
}
