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
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/group"
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

// ChainBatches is a shard build's batches, one per chain, and the raw
// block that shard.begin's reply carries them in after its gob header
// (internal/rpc). Each submission's Diffie-Hellman key and proof
// commitment cross as x‖y, checked against the curve equation on
// arrival, as an onion.Batch's keys do: the coordinator parses ≈ 8 000
// of them a round at the benchmark's shape, and recovering y from a
// sign bit would cost a square root each. Users still submit
// compressed, and the WAL records them compressed.
//
//	chain count (uint32), then per chain:
//	  submission count (uint32), then per submission:
//	    key x‖y (64), commitment x‖y (64), response (32),
//	    ciphertext length (uint32), the ciphertext
//	  submitter count (uint32), then per submitter:
//	    length (uint32), the identifier
//
// The submitters are counted apart from the submissions, so a build
// whose two do not align crosses as it is and is refused where every
// build is checked (ShardBuild.validate).
type ChainBatches []ChainBatch

// subFixed is a submission's bytes besides its ciphertext.
const subFixed = 2*group.UncompressedSize + group.ScalarSize + 4

var (
	errGob       = errors.New("core: chain batches cross as a raw block, not inside gob")
	errMalformed = errors.New("core: malformed chain batches")
)

// GobEncode and GobDecode refuse: shard.begin's reply crosses with its
// batches taken out of the gob header and appended raw after it.
func (ChainBatches) GobEncode() ([]byte, error) { return nil, errGob }
func (*ChainBatches) GobDecode([]byte) error    { return errGob }

// AppendBinary implements encoding.BinaryAppender: the block described
// on ChainBatches appended to dst, which grows once, to exactly its
// length and the block's, if it has not the room.
func (bs ChainBatches) AppendBinary(dst []byte) ([]byte, error) {
	size := 4
	for _, b := range bs {
		size += 8 + len(b.Subs)*subFixed + len(b.Submitters)*4
		for _, sub := range b.Subs {
			size += len(sub.Ct)
		}
		for _, who := range b.Submitters {
			size += len(who)
		}
	}
	if uint64(size) > math.MaxUint32 {
		return nil, fmt.Errorf("core: chain batches of %d bytes", size)
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bs)))
	for _, b := range bs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Subs)))
		for _, sub := range b.Subs {
			dst = sub.DHKey.AppendUncompressed(dst)
			dst = sub.Proof.T.AppendUncompressed(dst)
			dst = append(dst, sub.Proof.S.Bytes()...)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(sub.Ct)))
			dst = append(dst, sub.Ct...)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Submitters)))
		for _, who := range b.Submitters {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(who)))
			dst = append(dst, who...)
		}
	}
	return dst, nil
}

// Decode sets *bs to the batches the block data encodes, in place:
// each ciphertext is a slice of data with its capacity clipped, and
// data is the batches' from here on (the submitters are copied, as
// strings are). Every count is checked against the bytes left before
// anything is allocated for it, every key and commitment is validated
// by group.ParseUncompressed and every response by group.ParseScalar,
// and the block must end where its last chain does. On error *bs is
// left as it was.
func (bs *ChainBatches) Decode(data []byte) error {
	r := blockReader{b: data}
	out := make(ChainBatches, r.count(8))
	for c := range out {
		b := &out[c]
		b.Subs = make([]onion.Submission, r.count(subFixed))
		for i := range b.Subs {
			b.Subs[i].DHKey = r.point()
			b.Subs[i].Proof.T = r.point()
			b.Subs[i].Proof.S = r.scalar()
			b.Subs[i].Ct = r.bytes()
		}
		b.Submitters = make([]string, r.count(4))
		for i := range b.Submitters {
			b.Submitters[i] = string(r.bytes())
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%w: %d bytes after the last chain", errMalformed, len(r.b))
	}
	if r.err != nil {
		return r.err
	}
	*bs = out
	return nil
}

// blockReader reads a ChainBatches block front to back. Its first
// error sticks: every later read returns a zero value, and every later
// count is zero, so a refused block stops allocating where it failed.
type blockReader struct {
	b   []byte
	err error
}

func (r *blockReader) take(n uint64) []byte {
	if r.err == nil && uint64(len(r.b)) < n {
		r.err = fmt.Errorf("%w: %d bytes wanted, %d left", errMalformed, n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *blockReader) uint32() uint64 {
	if b := r.take(4); b != nil {
		return uint64(binary.BigEndian.Uint32(b))
	}
	return 0
}

// count reads a count of items at least least bytes each, refusing one
// that the bytes left cannot hold.
func (r *blockReader) count(least uint64) uint64 {
	n := r.uint32()
	if r.err == nil && n > uint64(len(r.b))/least {
		r.err = fmt.Errorf("%w: %d items claimed in %d bytes", errMalformed, n, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *blockReader) bytes() []byte { return r.take(r.uint32()) }

func (r *blockReader) point() group.Point {
	b := r.take(group.UncompressedSize)
	if b == nil {
		return group.Point{}
	}
	p, err := group.ParseUncompressed(b)
	if err != nil {
		r.err = fmt.Errorf("core: chain batches: %w", err)
	}
	return p
}

func (r *blockReader) scalar() group.Scalar {
	b := r.take(group.ScalarSize)
	if b == nil {
		return group.Scalar{}
	}
	s, err := group.ParseScalar(b)
	if err != nil {
		r.err = fmt.Errorf("core: chain batches: %w", err)
	}
	return s
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
	Batches ChainBatches
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
