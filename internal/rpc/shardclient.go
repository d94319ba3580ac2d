package rpc

import (
	"crypto/tls"
	"fmt"

	"repro/internal/core"
	"repro/internal/mix"
)

// ShardClient is the coordinator's handle on a gateway shard hosted
// in another process: it implements core.GatewayShard by carrying each
// method as one shard.* exchange (shardwire.go) over the shared TLS
// RPC transport, mirroring how HopClient carries mix.Hop.
type ShardClient struct {
	rng core.ShardRange
	c   *Client
}

var _ core.GatewayShard = (*ShardClient)(nil)

// NewShardClient creates a handle on the gateway shard at addr owning
// registry shards [lo, hi). It does not connect; Init (or the first
// round) does.
func NewShardClient(lo, hi int, addr string, tlsCfg *tls.Config) (*ShardClient, error) {
	rng := core.ShardRange{Lo: lo, Hi: hi}
	if err := rng.Validate(); err != nil {
		return nil, err
	}
	return &ShardClient{rng: rng, c: NewClient(addr, tlsCfg)}, nil
}

// Close closes the underlying connections.
func (s *ShardClient) Close() error { return s.c.Close() }

// Range implements core.GatewayShard.
func (s *ShardClient) Range() core.ShardRange { return s.rng }

// Init attaches the shard process to a running deployment: it pushes
// the current epoch, round and parameter snapshot so the gateway can
// serve clients before its first BeginRound, and verifies the remote
// end owns the range this handle was configured with.
func (s *ShardClient) Init(n *core.Network) error {
	rho := n.Round()
	numChains := n.NumChains()
	req := ShardInitRequest{
		Lo:          s.rng.Lo,
		Hi:          s.rng.Hi,
		Epoch:       n.Epoch(),
		Round:       rho,
		NumChains:   numChains,
		ChainLength: n.Topology().ChainLength,
	}
	req.Cur = make([]mix.Params, numChains)
	req.Next = make([]mix.Params, numChains)
	for c := 0; c < numChains; c++ {
		cur, errCur := n.ChainParams(c, rho)
		next, errNext := n.ChainParams(c, rho+1)
		if errCur != nil || errNext != nil {
			// A dead chain's entries stay zero, as in a BeginRound.
			req.Dead = append(req.Dead, c)
			continue
		}
		req.Cur[c], req.Next[c] = cur, next
	}
	var resp ShardInitResponse
	if err := s.c.call("shard.init", req, &resp); err != nil {
		return fmt.Errorf("rpc: initialising shard %s at %s: %w", s.rng, s.c.Addr(), err)
	}
	return nil
}

// BeginRound implements core.GatewayShard.
func (s *ShardClient) BeginRound(br *core.BeginRound) (*core.ShardBuild, error) {
	var build core.ShardBuild
	if err := s.c.call("shard.begin", br, &build); err != nil {
		return nil, err
	}
	return &build, nil
}

// FinishRound implements core.GatewayShard.
func (s *ShardClient) FinishRound(fr *core.FinishRound) (core.FinishStats, error) {
	var stats core.FinishStats
	err := s.c.call("shard.finish", fr, &stats)
	return stats, err
}

// AbortRound implements core.GatewayShard. Best-effort: an
// unreachable shard will reject resubmissions until its next
// successful BeginRound, which is the same position a freshly
// restarted shard is in.
func (s *ShardClient) AbortRound(round uint64) {
	var resp ack
	_ = s.c.call("shard.abort", ShardAbortRequest{Round: round}, &resp)
}

// Rebalance implements core.GatewayShard.
func (s *ShardClient) Rebalance(epoch uint64, numChains int) error {
	var resp ack
	return s.c.call("shard.rebalance", ShardRebalanceRequest{Epoch: epoch, NumChains: numChains}, &resp)
}
