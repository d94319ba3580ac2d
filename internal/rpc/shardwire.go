package rpc

// Coordinator ↔ gateway-shard protocol (the network form of
// core.GatewayShard; see internal/core/shard.go for the roles). One
// round makes four exchanges: shard.begin pushes the round's
// parameters and returns the shard's batch sizes, shard.batch pulls
// the batched submissions in bounded chunks, shard.deliver pushes the
// routed mailbox messages in bounded chunks, and shard.finish commits
// the round (deliveries, blame verdicts, stranded records, next
// round's parameters). shard.abort reopens the submission window
// after a failed round, shard.rebalance broadcasts a re-formed
// epoch, and shard.init attaches a (re)started shard process to a
// running deployment.
//
// shard.begin's request is core.BeginRound itself; shard.finish's is
// core.FinishRound with Delivered left empty (the deliveries were
// already pushed in chunks) and its reply core.FinishStats.
//
// Chunking keeps every frame far below MaxFrameSize: a shard owning
// hundreds of thousands of users would otherwise ship its whole
// build in one frame.

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

// ShardBeginResponse summarises the shard's build; the submissions
// themselves are pulled with ShardBatchRequest using Counts to bound
// the chunk walk.
type ShardBeginResponse struct {
	Covered int
	Skipped []string
	// Counts is the per-chain batch size.
	Counts []int
}

// ShardBatchRequest pulls one chunk of a chain's batch from the
// shard's cached build for the round; the reply is that window as a
// core.ChainBatch, index-aligned.
type ShardBatchRequest struct {
	Round  uint64
	Chain  int
	Offset int
	Max    int
}

// ShardDeliverRequest pushes one chunk of the round's routed mailbox
// messages; the shard buffers them until ShardFinishRequest commits.
type ShardDeliverRequest struct {
	Round uint64
	Msgs  [][]byte
}

// ShardDeliverResponse acknowledges the chunk.
type ShardDeliverResponse struct {
	Buffered int
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
