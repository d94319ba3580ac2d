package rpc

import (
	"crypto/tls"
	"fmt"
	"sync"

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

	// mu guards the per-round scratch state below. The coordinator
	// drives one round at a time, but user traffic is concurrent with
	// it and a retried round replaces the previous attempt's state.
	mu sync.Mutex
	// chainLength is pushed at init; the shard itself never needs k,
	// but its status endpoint reports it to clients.
	chainLength int
	// build caches the last BeginRound's result for the chunked
	// shard.batch pulls.
	buildRound uint64
	build      *core.ShardBuild
	// buffered accumulates shard.deliver chunks until shard.finish.
	deliverRound uint64
	buffered     [][]byte
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
	methods["shard.begin"] = typed(s.begin)
	methods["shard.batch"] = typed(s.batch)
	methods["shard.deliver"] = typed(s.deliver)
	methods["shard.finish"] = typed(s.finish)
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
		Round:   s.fe.Round(),
		Epoch:   s.fe.Epoch(),
		Role:    "gateway",
		ShardLo: rng.Lo,
		ShardHi: rng.Hi,
		Users:   s.fe.NumUsers(),
	}
	s.mu.Lock()
	resp.ChainLength = s.chainLength
	s.mu.Unlock()
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
	s.mu.Lock()
	s.chainLength = ir.ChainLength
	s.mu.Unlock()
	return ShardInitResponse{Lo: rng.Lo, Hi: rng.Hi}, nil
}

func (s *ShardServer) begin(br *core.BeginRound) (ShardBeginResponse, error) {
	build, err := s.fe.BeginRound(br)
	if err != nil {
		return ShardBeginResponse{}, err
	}
	s.mu.Lock()
	s.buildRound = br.Round
	s.build = build
	// A retried round must not inherit the failed attempt's
	// delivery buffer.
	s.deliverRound = br.Round
	s.buffered = nil
	s.mu.Unlock()
	resp := ShardBeginResponse{Covered: build.Covered, Skipped: build.Skipped}
	resp.Counts = make([]int, len(build.Batches))
	for c := range build.Batches {
		resp.Counts[c] = len(build.Batches[c].Subs)
	}
	return resp, nil
}

func (s *ShardServer) batch(br *ShardBatchRequest) (core.ChainBatch, error) {
	s.mu.Lock()
	build := s.build
	round := s.buildRound
	s.mu.Unlock()
	if build == nil || round != br.Round {
		return core.ChainBatch{}, fmt.Errorf("rpc: no cached build for round %d", br.Round)
	}
	if br.Chain < 0 || br.Chain >= len(build.Batches) {
		return core.ChainBatch{}, fmt.Errorf("rpc: no chain %d in build", br.Chain)
	}
	batch := build.Batches[br.Chain]
	if br.Offset < 0 || br.Offset > len(batch.Subs) || br.Max <= 0 {
		return core.ChainBatch{}, fmt.Errorf("rpc: bad batch window %d+%d of %d", br.Offset, br.Max, len(batch.Subs))
	}
	// Clamp Max before adding: a huge value would overflow the end
	// computation into a negative slice bound.
	end := min(br.Offset+min(br.Max, MaxHopChunkEnvelopes), len(batch.Subs))
	return core.ChainBatch{Subs: batch.Subs[br.Offset:end], Submitters: batch.Submitters[br.Offset:end]}, nil
}

func (s *ShardServer) deliver(dr *ShardDeliverRequest) (ShardDeliverResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deliverRound != dr.Round {
		s.deliverRound = dr.Round
		s.buffered = nil
	}
	s.buffered = append(s.buffered, dr.Msgs...)
	return ShardDeliverResponse{Buffered: len(s.buffered)}, nil
}

func (s *ShardServer) finish(fr *core.FinishRound) (core.FinishStats, error) {
	s.mu.Lock()
	// Deliveries come from the shard.deliver chunks, never from the
	// commit message itself.
	fr.Delivered = s.buffered
	if s.deliverRound != fr.Round {
		fr.Delivered = nil
	}
	s.buffered = nil
	s.build = nil
	s.mu.Unlock()
	return s.fe.FinishRound(fr)
}

func (s *ShardServer) abort(ar *ShardAbortRequest) (ack, error) {
	s.fe.AbortRound(ar.Round)
	s.mu.Lock()
	s.build = nil
	s.buffered = nil
	s.mu.Unlock()
	return ack{}, nil
}

func (s *ShardServer) rebalance(rr *ShardRebalanceRequest) (ack, error) {
	return ack{}, s.fe.Rebalance(rr.Epoch, rr.NumChains)
}
