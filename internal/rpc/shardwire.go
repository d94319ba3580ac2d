package rpc

// Coordinator ↔ gateway-shard protocol: the network form of
// core.GatewayShard (see internal/core/shard.go for the roles), one
// exchange per method and the interface's own types on the wire.
// shard.begin carries core.BeginRound and answers with the shard's
// core.ShardBuild; shard.finish carries core.FinishRound — routed
// deliveries included — and answers with core.FinishStats.
// shard.rebalance broadcasts a re-formed epoch, and shard.init, the one
// method the interface does not have, attaches a (re)started shard
// process to a running deployment. shard.begin, shard.finish and
// shard.init each carry one core.RoundParams, the snapshot of two
// rounds' chain parameters; the shard takes the epoch and its chain
// count from it.
// The endpoint keeps nothing between exchanges.

import "repro/internal/core"

// ShardInitRequest pushes a joining gateway shard everything it needs
// to serve clients before its first round: the coordinator's current
// parameter snapshot, whose round is the upcoming one and whose chain
// count the shard re-derives the deterministic plan from, and the
// chain length its status endpoint reports.
type ShardInitRequest struct {
	Lo, Hi      int
	ChainLength int
	Params      core.RoundParams
}

// ShardInitResponse echoes the shard's configured range so the
// coordinator can detect a mis-wired deployment.
type ShardInitResponse struct {
	Lo, Hi int
}

// ShardRebalanceRequest broadcasts a re-formed epoch's chain count.
type ShardRebalanceRequest struct {
	Epoch     uint64
	NumChains int
}

// ack is the empty success body for methods with nothing to return.
type ack struct{}
