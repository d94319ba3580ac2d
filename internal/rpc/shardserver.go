package rpc

import (
	"crypto/tls"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// ShardServer exposes one gateway shard (a core.Frontend) over TLS.
// It serves two audiences on the same listener: users (registration,
// parameter distribution, submission, mailbox download, status) and
// the round coordinator (the shard.* methods carrying the
// core.GatewayShard protocol; see shardwire.go). A production
// deployment would put the coordinator methods behind mutual TLS;
// here both share the endpoint's pinned certificate, matching how the
// mix hop endpoints trust their orchestrator.
type ShardServer struct {
	*listenerCore
	fe *core.Frontend

	// chainLength is pushed at init; the shard itself never needs k,
	// but its status endpoint reports it to clients.
	chainLength atomic.Int64
}

// NewShardServer starts a TLS listener on addr serving the given
// gateway shard, with a fresh ephemeral certificate.
func NewShardServer(fe *core.Frontend, addr string) (*ShardServer, error) {
	return NewShardServerTLS(fe, addr, nil, nil)
}

// NewShardServerTLS is NewShardServer with a caller-supplied TLS
// identity, so a durable shard restarted over its data directory
// presents the certificate its coordinator and clients already pinned
// (see LoadOrCreateTLSIdentity). A nil serverTLS means an ephemeral
// certificate.
func NewShardServerTLS(fe *core.Frontend, addr string, serverTLS, clientTLS *tls.Config) (*ShardServer, error) {
	s := &ShardServer{fe: fe}
	methods := userMethods(fe)
	methods["status"] = typed(s.status)
	methods["shard.init"] = typed(s.init)
	methods["shard.begin"] = typed(fe.BeginRound)
	methods["shard.finish"] = typed(fe.FinishRound)
	methods["shard.abort"] = typed(s.abort)
	methods["shard.rebalance"] = typed(s.rebalance)
	lc, err := newListenerCore(addr, serverTLS, clientTLS, methods)
	if err != nil {
		return nil, err
	}
	s.listenerCore = lc
	return s, nil
}

func (s *ShardServer) status(*struct{}) (StatusResponse, error) {
	rng := s.fe.Range()
	resp := StatusResponse{
		Round:       s.fe.Round(),
		ChainLength: int(s.chainLength.Load()),
		Epoch:       s.fe.Epoch(),
		Role:        "gateway",
		ShardLo:     rng.Lo,
		ShardHi:     rng.Hi,
		Users:       s.fe.NumUsers(),
	}
	if plan := s.fe.Plan(); plan != nil {
		resp.NumChains = plan.NumChains
		resp.L = plan.L
	}
	return resp, nil
}

func (s *ShardServer) init(ir *ShardInitRequest) (ShardInitResponse, error) {
	rng := s.fe.Range()
	if ir.Lo != rng.Lo || ir.Hi != rng.Hi {
		return ShardInitResponse{}, fmt.Errorf("rpc: coordinator expects shard range %d:%d but this gateway owns %s", ir.Lo, ir.Hi, rng)
	}
	if ir.NumChains > 0 {
		if err := s.fe.Rebalance(ir.Epoch, ir.NumChains); err != nil {
			return ShardInitResponse{}, err
		}
	}
	if ir.Round > 0 {
		s.fe.SetRound(ir.Round)
	}
	if len(ir.Cur) > 0 {
		s.fe.SetParams(ir.Round, ir.Cur, ir.Next, ir.Dead)
	}
	s.chainLength.Store(int64(ir.ChainLength))
	return ShardInitResponse{Lo: rng.Lo, Hi: rng.Hi}, nil
}

func (s *ShardServer) abort(ar *ShardAbortRequest) (ack, error) {
	s.fe.AbortRound(ar.Round)
	return ack{}, nil
}

func (s *ShardServer) rebalance(rr *ShardRebalanceRequest) (ack, error) {
	return ack{}, s.fe.Rebalance(rr.Epoch, rr.NumChains)
}
