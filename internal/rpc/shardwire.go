package rpc

// Coordinator ↔ gateway-shard protocol: the network form of
// core.GatewayShard (see internal/core/shard.go for the roles), one
// exchange per method and the interface's own types on the wire.
// shard.begin carries core.BeginRound and answers with the shard's
// core.ShardBuild; shard.finish carries core.FinishRound — routed
// deliveries included — and answers with core.FinishStats. shard.abort
// reopens the submission window after a failed round, shard.rebalance
// broadcasts a re-formed epoch, and shard.init, the one method the
// interface does not have, attaches a (re)started shard process to a
// running deployment. The endpoint keeps nothing between exchanges, so
// a pipelined coordinator may begin round ρ+1 while round ρ is still
// on its way to shard.finish.

import "repro/internal/mix"

// ShardInitRequest pushes a joining gateway shard everything it needs
// to serve clients before its first round: the epoch (and its chain
// count, from which the shard re-derives the deterministic plan), the
// upcoming round, and the current parameter snapshot.
type ShardInitRequest struct {
	Lo, Hi      int
	Epoch       uint64
	Round       uint64
	NumChains   int
	ChainLength int
	Cur, Next   []mix.Params
	Dead        []int
}

// ShardInitResponse echoes the shard's configured range so the
// coordinator can detect a mis-wired deployment.
type ShardInitResponse struct {
	Lo, Hi int
}

// ShardAbortRequest reopens the submission window for a failed round.
type ShardAbortRequest struct {
	Round uint64
}

// ShardRebalanceRequest broadcasts a re-formed epoch's chain count.
type ShardRebalanceRequest struct {
	Epoch     uint64
	NumChains int
}

// ack is the empty success body for methods with nothing to return.
type ack struct{}
