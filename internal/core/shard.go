// Gateway front-end sharding. The paper's deployments scale the
// front end horizontally: many gateway servers each own a slice of
// the user base and one logical round runs across all of them (§7,
// §8.1). This file defines the split between the two roles:
//
//   - The round coordinator (Network, core.go) owns everything that
//     is global per round: chain formation and epoch recovery, key
//     announcement, driving the mix chains, blame aggregation.
//   - A gateway shard (GatewayShard; Frontend is the in-process
//     implementation) owns everything that is per user: registration,
//     presence, onion intake and external submissions, cover banking,
//     mailbox storage and fetches.
//
// The partition key is the registry shard index (registry.go): each
// gateway shard owns a contiguous half-open range [Lo, Hi) of the 64
// registry shards, and a mailbox identifier hashes to its owner with
// OwnerShard. The monolithic deployment is the degenerate case of one
// in-process Frontend owning the full range — NewNetwork builds
// exactly that when Config.Shards is empty, so a single-process
// deployment pays nothing for the split.
//
// One round crosses the boundary four times: BeginRound pushes the
// round's parameters and collects every shard's batches (submission
// forwarding), the coordinator mixes, FinishRound fans the delivered
// mailbox messages back out to their owning shards along with the
// per-shard blame report, and AbortRound reopens a shard's submission
// window when a round fails and will be retried. Rebalance installs a
// re-formed epoch's plan (recover.go). internal/rpc carries the same
// four exchanges over TLS for shards in other processes.
package core

import (
	"fmt"

	"repro/internal/mix"
	"repro/internal/onion"
)

// NumRegistryShards is the size of the registry-shard space that
// gateway shards partition; shard ranges are half-open intervals over
// [0, NumRegistryShards).
const NumRegistryShards = numShards

// OwnerShard maps a mailbox identifier to its registry shard index —
// the gateway front end's partition key.
func OwnerShard(mailbox []byte) int { return shardIndex(mailbox) }

// ShardRange is a contiguous half-open slice [Lo, Hi) of the registry
// shard space.
type ShardRange struct {
	Lo, Hi int
}

// FullRange spans the whole registry-shard space — the monolith.
func FullRange() ShardRange { return ShardRange{0, numShards} }

// Contains reports whether the registry shard index is in the range.
func (r ShardRange) Contains(shard int) bool { return shard >= r.Lo && shard < r.Hi }

// Owns reports whether the mailbox identifier hashes into the range.
func (r ShardRange) Owns(mailbox []byte) bool { return r.Contains(OwnerShard(mailbox)) }

// Width returns the number of registry shards in the range.
func (r ShardRange) Width() int { return r.Hi - r.Lo }

func (r ShardRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// Validate rejects empty or out-of-bounds ranges.
func (r ShardRange) Validate() error {
	if r.Lo < 0 || r.Hi > numShards || r.Lo >= r.Hi {
		return fmt.Errorf("core: shard range %s outside 0:%d or empty", r, numShards)
	}
	return nil
}

// ChainBatch pairs one chain's submissions with their submitters'
// mailbox identifiers, kept index-aligned for blame attribution.
type ChainBatch struct {
	Subs       []onion.Submission
	Submitters []string
}

func (b *ChainBatch) add(sub onion.Submission, who string) {
	b.Subs = append(b.Subs, sub)
	b.Submitters = append(b.Submitters, who)
}

// BeginRound is the coordinator's round-begin message to a gateway
// shard: the round and epoch it is about to execute and an immutable
// snapshot of every chain's public parameters for rounds Round and
// Round+1 (covers are built one round ahead, §5.3.3). Dead lists
// chains that failed to announce and have zero parameters in the
// snapshot; the shard strands their users instead of building.
// Pipelined says the coordinator runs at pipeline depth > 1, so this
// begin may come while the round before it still mixes.
type BeginRound struct {
	Round     uint64
	Epoch     uint64
	NumChains int
	Cur, Next []mix.Params
	Dead      []int
	Pipelined bool
}

// ShardBuild is a shard's reply to BeginRound: its users' submissions
// batched per chain (in-process users it built plus external
// submissions it collected), the number of offline users covered by
// banked covers, and the online users skipped because a dead chain
// made their round impossible.
type ShardBuild struct {
	Batches []ChainBatch
	Covered int
	Skipped []string
}

// validate refuses a build whose batches are not index-aligned. A
// remote shard's reply is a peer's word, and the merge indexes
// Submitters by position in Subs.
func (b *ShardBuild) validate() error {
	for c := range b.Batches {
		if subs, who := len(b.Batches[c].Subs), len(b.Batches[c].Submitters); subs != who {
			return fmt.Errorf("core: shard build has %d submissions but %d submitters on chain %d", subs, who, c)
		}
	}
	return nil
}

// FinishRound closes a round on a gateway shard: the mailbox messages
// routed to this shard's users, the users it owns that were convicted
// (to remove and ban) or stranded (for StrandedError), and — so the
// shard can keep serving clients between rounds — the parameter
// snapshot for the next round (Cur is Round+1, Next is Round+2).
type FinishRound struct {
	Round     uint64
	Delivered [][]byte
	Removed   []string
	Stranded  []string

	Epoch     uint64
	NumChains int
	Cur, Next []mix.Params
	Dead      []int
}

// FinishStats is a shard's round-finish accounting: messages stored
// into mailboxes and old messages the per-mailbox depth cap evicted
// to make room.
type FinishStats struct {
	Delivered int
	Dropped   int
}

// GatewayShard is the coordinator's handle on one gateway front-end
// shard. Frontend implements it in-process; rpc.ShardClient carries
// it to a shard in another process over TLS. Implementations must
// tolerate the coordinator's per-round call sequence BeginRound →
// (FinishRound | AbortRound), with Rebalance interleaved before a
// round when an epoch re-forms.
type GatewayShard interface {
	// Range returns the registry-shard slice this shard owns.
	Range() ShardRange
	// BeginRound distributes round parameters and returns the shard's
	// batches. An error marks the shard dead for the round: only its
	// own users are stranded.
	BeginRound(br *BeginRound) (*ShardBuild, error)
	// FinishRound delivers routed messages and blame results, returns
	// storage accounting (messages stored, depth-cap evictions).
	FinishRound(fr *FinishRound) (FinishStats, error)
	// AbortRound reopens the submission window for a round that
	// failed after BeginRound and will be retried.
	AbortRound(round uint64)
	// Rebalance installs a new epoch's chain count; the shard
	// re-derives the (deterministic) chain-selection plan, rebalances
	// its users and discards state keyed to the old chains' keys.
	Rebalance(epoch uint64, numChains int) error
}
