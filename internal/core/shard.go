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
//     presence, onion building and intake, the bank that holds every
//     user's round traffic and covers, mailbox storage and fetches.
//
// The partition key is the registry shard index (registry.go): each
// gateway shard owns a contiguous half-open range [Lo, Hi) of the 64
// registry shards, and a mailbox identifier hashes to its owner with
// OwnerShard. A single-process deployment is the degenerate case of
// one in-process Frontend owning the full range, passed to NewNetwork
// like any other shard, so it pays nothing for the split.
//
// One round crosses the boundary twice: BeginRound pushes the round's
// parameter snapshot (RoundParams: every chain's parameters for the
// round and the next, the epoch and its dead chains, the last two
// rounds' outcomes) and collects every shard's batches, the
// coordinator mixes, and FinishRound fans the delivered mailbox
// messages back out to their owning shards along with the per-shard
// blame report and the next round's snapshot. A round that fails between the two is begun again under
// its number: the shard's bank still holds the round's traffic until
// FinishRound commits it, so the retry collects the same submissions.
// Rebalance installs a re-formed epoch's plan and closes the upcoming
// round's submission window until that epoch's snapshot arrives
// (recover.go). internal/rpc carries the same three exchanges over TLS
// for shards in other processes.
package core

import (
	"fmt"

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

// FullRange spans the whole registry-shard space: the one Frontend of
// a single-process deployment.
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
// shard: the round it is about to execute and the parameter snapshot
// for rounds Round and Round+1, whose epoch and chain count the shard
// adopts. The shard holds every user with a dead chain of the snapshot
// among her ℓ out of the round, covers included.
type BeginRound struct {
	Round  uint64
	Params RoundParams
}

// ShardBuild is a shard's reply to BeginRound: the round's banked
// traffic batched per chain (what its in-process users built and its
// remote users submitted), the number of absent users covered by
// banked covers, and the users Skipped: those with messages for the
// round (or, in-process, online to build them) whom a dead chain among
// their ℓ held out, and the remote users whose messages for the round
// a re-formation dropped. The coordinator strands every skipped user.
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
// (to remove and ban), and — so the shard can keep serving clients
// between rounds — the parameter snapshot for rounds Round+1 and
// Round+2, which carries the round's outcome.
type FinishRound struct {
	Round     uint64
	Delivered [][]byte
	Removed   []string
	Params    RoundParams
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
// tolerate the coordinator's per-round call sequence BeginRound+ →
// FinishRound: a round may be begun again, after a failure or a lost
// reply, and collects the same traffic until it is finished, with
// Rebalance interleaved before a round when an epoch re-forms.
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
	// Rebalance installs a new epoch's chain count; the shard
	// re-derives the (deterministic) chain-selection plan, rebalances
	// its users and discards state keyed to the old chains' keys.
	Rebalance(epoch uint64, numChains int) error
}
