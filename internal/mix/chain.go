package mix

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sync"
	"time"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/obs"
	"repro/internal/onion"
)

// Per-chain stage timings, observed by every RunRound regardless of
// outcome. The coordinator's round trace consumes the same numbers
// through RoundResult; these histograms make them scrapeable from
// whichever process hosts the chain orchestration.
var (
	obsChainVerifySeconds = obs.GetOrCreateHistogram("xrd_chain_verify_seconds")
	obsChainMixSeconds    = obs.GetOrCreateHistogram("xrd_chain_mix_seconds")
)

func newDigest() hash.Hash { return sha256.New() }

// Chain is one anytrust mix chain of k positions (§5.2). It exposes
// the public key material users need and executes rounds, simulating
// the mutual proof verification every member performs. One honest
// member suffices for the guarantees; the Chain verifies everything,
// which is exactly what the honest server would do.
//
// Each position is reached through a Hop: in-process by default, or a
// separate xrd-server process over the TLS hop transport. The Chain
// keeps its own record of every batch it sent to and received from a
// position, so all verification (shuffle certificates, blame replays,
// re-certification) runs against data the orchestrator observed — a
// remote position can lie only about what it alone knows, and every
// such lie is caught by a proof check and converted into blame.
type Chain struct {
	// ID is the chain index within the network.
	ID int
	// hops are the transport handles, one per position.
	hops []Hop
	// keys caches every position's verified public key material. The
	// mixing keys are group.Precomputed, as are the aggregates in
	// innerAggs: every user of the chain raises exactly these points to
	// her onion's fresh scalars (§6.2), so they carry a fixed-key table
	// that the first build fills and every Params copy shares.
	keys []HopKeys

	scheme aead.Scheme

	// keyMu guards lastBegun and innerAggs so that ParamsFor (the
	// client-facing key lookup) is safe concurrently with the
	// coordinator announcing the next round's keys.
	keyMu sync.RWMutex
	// lastBegun is the highest round BeginRound has seen.
	lastBegun uint64
	// innerAggs maps round -> ∏ ipk_i. Round ρ+1's aggregate is
	// published during round ρ so users can build cover messages
	// (§5.3.3). BeginRound prunes rounds older than lastBegun−1, so
	// the map holds at most the current and next round and a
	// long-running server does not accumulate one entry per round.
	innerAggs map[uint64]group.Point
	// innerKeys maps round -> the proof-verified ipk_i of every
	// position, recorded at announce time. The reveal check compares
	// g^isk against THIS record, never against what the position
	// currently claims its inner key is: a byzantine hop could
	// otherwise substitute a consistent fake (ipk', isk') at reveal
	// and silently corrupt the inner sum (every message would then be
	// dropped as "malformed by its sender", with nobody blamed).
	// Pruned in lockstep with innerAggs.
	innerKeys map[uint64][]group.Point
}

// Params is the public key material users need to submit to a chain.
type Params struct {
	ChainID int
	// MixKeys are the AHS mixing keys mpk_i in order (§6.1). Users
	// never need the blinding keys bpk_i, which the positions and the
	// orchestrator hold in HopKeys.
	MixKeys []group.Point
	// InnerAggregate is ∏ ipk_i for the current round (AHS inner
	// envelope key).
	InnerAggregate group.Point
	// Round is the round InnerAggregate is valid for.
	Round uint64
}

// Precomputed returns p with the keys an onion build exponentiates —
// MixKeys and InnerAggregate — carrying fixed-key tables
// (group.Point.Precomputed), for holders whose Params did not come
// from an in-process Chain (which attaches them itself): a gateway
// shard's round snapshot and a remote client's cache. A key Equal to
// prev's in the same place is replaced by prev's point, so a table
// already built for an epoch-long mix key or for this round's
// aggregate is kept rather than rebuilt; pass the zero Params when
// there is nothing to share. p's own slices are not written.
func (p Params) Precomputed(prev Params) Params {
	share := func(k, old group.Point) group.Point {
		if old.Equal(k) {
			k = old
		}
		return k.Precomputed()
	}
	keys := make([]group.Point, len(p.MixKeys))
	for i, k := range p.MixKeys {
		var old group.Point
		if i < len(prev.MixKeys) {
			old = prev.MixKeys[i]
		}
		keys[i] = share(k, old)
	}
	p.MixKeys = keys
	p.InnerAggregate = share(p.InnerAggregate, prev.InnerAggregate)
	return p
}

// NewChain creates a chain of k freshly keyed in-process servers and
// verifies every member's key-knowledge proofs.
func NewChain(id, k int, scheme aead.Scheme) (*Chain, error) {
	if k < 1 {
		return nil, fmt.Errorf("mix: chain needs at least one server, got %d", k)
	}
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	hops := make([]Hop, k)
	base := group.Generator()
	for i := 0; i < k; i++ {
		s := NewChainServer(id, i, base, scheme)
		hops[i] = LocalHop(s)
		base = s.bpk
	}
	return NewChainFromHops(id, hops, scheme)
}

// NewChainFromHops assembles a chain over pre-built hops — local
// servers, remote processes, or a mixture — verifying every
// position's key-knowledge proofs and that each position's keys chain
// off the previous position's blinding key (§6.1).
func NewChainFromHops(id int, hops []Hop, scheme aead.Scheme) (*Chain, error) {
	if len(hops) < 1 {
		return nil, fmt.Errorf("mix: chain needs at least one server, got %d", len(hops))
	}
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	c := &Chain{ID: id, scheme: scheme}
	base := group.Generator()
	for i, h := range hops {
		k := h.Keys()
		if k.Chain != id || k.Index != i {
			return nil, fmt.Errorf("mix: hop at position %d of chain %d published keys for chain %d position %d",
				i, id, k.Chain, k.Index)
		}
		if !k.BpkPrev.Equal(base) {
			return nil, fmt.Errorf("mix: chain %d: position %d's keys are not chained off position %d's blinding key", id, i, i-1)
		}
		if err := VerifyHopKeys(k); err != nil {
			return nil, err
		}
		k.Mpk = k.Mpk.Precomputed()
		c.hops = append(c.hops, h)
		c.keys = append(c.keys, k)
		base = k.Bpk
	}
	return c, nil
}

// Len returns k, the number of positions in the chain.
func (c *Chain) Len() int { return len(c.hops) }

// Corrupt makes position pos deviate by cr's moves, wrapping whatever
// hop the chain holds there, in-process or remote, in place of any
// earlier corruption; a nil cr restores the honest hop. It is fault
// injection for tests and experiments, and must not run concurrently
// with a round.
func (c *Chain) Corrupt(pos int, cr *Corruption) {
	h := c.hops[pos]
	if ch, ok := h.(corruptHop); ok {
		h = ch.Hop
	}
	if cr != nil {
		h = corruptHop{Hop: h, c: cr}
	}
	c.hops[pos] = h
}

// BeginRound ensures every position has an inner key for the round,
// verifies the inner-key proofs, and publishes the aggregate inner
// key. It is idempotent per round; the coordinator announces round
// ρ+1 during round ρ so users can build covers.
func (c *Chain) BeginRound(round uint64) error {
	c.keyMu.Lock()
	defer c.keyMu.Unlock()
	if c.innerAggs == nil {
		c.innerAggs = make(map[uint64]group.Point)
		c.innerKeys = make(map[uint64][]group.Point)
	}
	if _, ok := c.innerAggs[round]; ok {
		if round > c.lastBegun {
			c.lastBegun = round
		}
		return nil
	}
	agg := group.Identity()
	ipks := make([]group.Point, len(c.hops))
	for i, h := range c.hops {
		ipk, proof, err := h.BeginRound(round)
		if err != nil {
			return &HopError{Chain: c.ID, Position: i, Err: fmt.Errorf("inner key: %w", err)}
		}
		if err := nizk.VerifyDlog(innerKeyContext(c.ID, i, round), group.Generator(), ipk, proof); err != nil {
			return &HopError{Chain: c.ID, Position: i, Err: fmt.Errorf("inner key proof: %w", err)}
		}
		ipks[i] = ipk
		agg = agg.Add(ipk)
	}
	if round > c.lastBegun {
		c.lastBegun = round
	}
	c.innerAggs[round] = agg.Precomputed()
	c.innerKeys[round] = ipks
	// Drop aggregates no round can use any more. The coordinator
	// announces ρ+2 only after round ρ has revealed, so the window
	// keeps the last two announced rounds: the one about to run and
	// the one its covers are built for. Without this the map grows by
	// one entry per round for the life of the server.
	for r := range c.innerAggs {
		if r+1 < c.lastBegun {
			delete(c.innerAggs, r)
			delete(c.innerKeys, r)
		}
	}
	return nil
}

// ParamsFor returns the chain's public parameters for a round whose
// inner keys have been announced.
func (c *Chain) ParamsFor(round uint64) (Params, error) {
	c.keyMu.RLock()
	agg, ok := c.innerAggs[round]
	c.keyMu.RUnlock()
	if !ok {
		return Params{}, fmt.Errorf("mix: chain %d has not begun round %d", c.ID, round)
	}
	p := Params{ChainID: c.ID, InnerAggregate: agg, Round: round, MixKeys: make([]group.Point, len(c.keys))}
	for i, hk := range c.keys {
		p.MixKeys[i] = hk.Mpk
	}
	return p, nil
}

// Params returns the public parameters for the most recently begun
// round.
func (c *Chain) Params() Params {
	c.keyMu.RLock()
	last := c.lastBegun
	c.keyMu.RUnlock()
	p, err := c.ParamsFor(last)
	if err != nil {
		panic(err) // unreachable: lastBegun is always announced
	}
	return p
}

// RoundResult is the outcome of running one round on a chain.
type RoundResult struct {
	// Delivered are the plaintext mailbox messages (for the mailbox
	// servers) in shuffled order. Empty if the chain halted.
	Delivered [][]byte
	// Halted reports that mixing stopped with no delivery because a
	// server misbehaved (§6.3: "the protocol halts with no privacy
	// leakage").
	Halted bool
	// BlamedServers are chain positions whose proofs failed.
	BlamedServers []int
	// BlamedUsers are indices into the submission slice of users
	// identified as malicious by proof failure at submission or by
	// the blame protocol (§6.4).
	BlamedUsers []int
	// DroppedInner counts messages whose inner envelope failed to
	// open after a verified shuffle (malformed by their sender; their
	// origin is untraceable by design and they are simply dropped).
	DroppedInner int
	// BlameRounds counts how many blame protocol executions ran.
	BlameRounds int
	// InputDigest is InputDigest over the submissions the chain
	// accepted (those whose knowledge proofs verified), in submission
	// order: what the round's members agree they mixed (§6.3).
	InputDigest [32]byte
	// VerifyDur and MixDur are the round's stage timings for
	// observability: the submission-proof/input-agreement stage and
	// everything after it (mixing steps, reveal, inner decryption).
	// Zero when the stage never ran.
	VerifyDur time.Duration
	MixDur    time.Duration
}

// roundState tracks the working set between mixing steps.
type roundState struct {
	// envs are the envelopes entering the current position.
	envs []onion.Envelope
	// accepted[j] is the submission index of position 0's input j:
	// the only link from a batch back to its submitters the chain
	// holds. Blame at position 0 filters it along with envs; blame
	// further down reaches it through the reveal walk (blame.go).
	accepted []int
	// states are the per-position traffic records of this round.
	states []posRecord
}

// posRecord is the orchestrator's record of one position's traffic:
// the batch it sent in and the batch it got back, and which of each
// the blame walks traced a removed message through. Every
// verification — shuffle certificates, blame replays, re-certification
// after removals — reads these records, never the position's own
// claims, which is what lets a position live on an untrusted remote
// process. Nothing here says which output came from which input: that
// is each position's secret, opened by a reveal for an accused message
// only.
type posRecord struct {
	in, out []onion.Envelope
	// inGone and outGone mark the inputs and outputs that blame walks
	// traced removed messages through, accumulated over the round's
	// blame runs; re-certification covers the rest.
	inGone, outGone []bool
}

// RunRound executes one full AHS round (§6.3) over the submissions:
// submission proof checks, the input digest, k mixing steps each
// verified by all members, blame on decryption failures (§6.4), inner
// key reveal and inner decryption.
//
// The returned error indicates an orchestration failure (wrong round,
// internal corruption); protocol misbehaviour — including a remote
// hop that dies, stalls past its transport deadline, or returns
// garbage — is reported in RoundResult instead.
func (c *Chain) RunRound(round uint64, lane byte, subs []onion.Submission) (*RoundResult, error) {
	c.keyMu.RLock()
	_, ok := c.innerAggs[round]
	c.keyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mix: chain %d asked to run round %d before its keys were announced", c.ID, round)
	}
	nonce := aead.RoundNonce(round, lane)
	res := &RoundResult{}
	verifyStart := time.Now()

	// Submission proof checks (§6.2): an invalid PoK identifies its
	// sender immediately. Proofs are verified in parallel batches
	// (one multi-scalar multiplication per chunk); failing chunks are
	// bisected, so the blamed indices are identical to the seed's
	// serial per-proof loop.
	st := &roundState{states: make([]posRecord, len(c.hops))}
	bad := VerifySubmissionProofs(subs, round, c.ID)
	res.BlamedUsers = append(res.BlamedUsers, bad...)
	accepted := make([]onion.Submission, 0, len(subs)-len(bad))
	for i, sub := range subs {
		if len(bad) > 0 && bad[0] == i {
			bad = bad[1:]
			continue
		}
		st.envs = append(st.envs, sub.Envelope)
		st.accepted = append(st.accepted, i)
		accepted = append(accepted, sub)
	}

	// Input agreement (§6.3): "the servers first agree on the inputs
	// for this round". The orchestrator hashes the accepted set once and
	// publishes the digest with the result. Comparing it per position
	// belongs to a position that is handed the digest and holds its own
	// copy of the submissions to hash; no mix.Hop method carries either
	// today — every position's input is the batch this orchestrator
	// sends it — so a loop here would compare this hash with itself.
	res.InputDigest = InputDigest(round, c.ID, accepted)
	res.VerifyDur = time.Since(verifyStart)
	obsChainVerifySeconds.ObserveDuration(res.VerifyDur)
	mixStart := time.Now()
	defer func() {
		res.MixDur = time.Since(mixStart)
		obsChainMixSeconds.ObserveDuration(res.MixDur)
	}()

	if len(st.envs) == 0 {
		// Nothing to mix; an empty product cannot be certified (the
		// identity element is rejected by the DLEQ), and there is
		// nothing to protect either.
		return res, nil
	}

	// Mixing steps, each recorded in st.states for this round's blame
	// and re-certification.
	i := 0
	epochs := make([]int, len(c.hops))
	for i < len(c.hops) {
		h := c.hops[i]
		hk := c.keys[i]
		st.states[i] = posRecord{in: st.envs, inGone: make([]bool, len(st.envs))}
		mr, err := h.Mix(round, nonce, st.envs)
		if err != nil {
			// The hop transport failed: the position is unreachable,
			// timed out or sent garbage. The chain cannot distinguish
			// a crashed member from a cheating one, so it halts with
			// nothing revealed, exactly like a failed proof (§6.3).
			res.Halted = true
			res.BlamedServers = append(res.BlamedServers, i)
			return res, nil
		}
		if len(mr.Failed) > 0 {
			if !validFailedIndices(mr.Failed, len(st.envs)) {
				// Accusations against positions that do not exist:
				// only a byzantine hop produces these.
				res.Halted = true
				res.BlamedServers = append(res.BlamedServers, i)
				return res, nil
			}
			res.BlameRounds++
			verdict := c.runBlame(round, nonce, i, mr.Failed, st)
			res.BlamedServers = append(res.BlamedServers, verdict.Servers...)
			res.BlamedUsers = append(res.BlamedUsers, verdict.Users...)
			if len(verdict.Servers) > 0 {
				// A server cheated: the honest members delete their
				// inner keys and the round aborts with nothing
				// revealed (§6.4).
				res.Halted = true
				return res, nil
			}
			// All bad messages traced to users: remove them and have
			// the upstream servers re-certify the surviving subset
			// (§6.4 closing paragraph), then retry this server. The
			// retry is a whole Mix call over the survivors — one
			// exchange, the same one a span decorator or a remote
			// position already sees — but not a whole Mix's work: the
			// server kept the failing call's exponentiations and
			// recalls them for every survivor (Server.lastPows).
			if len(mr.Failed) == len(st.envs) {
				// Every remaining message was removed as malicious;
				// nothing is left to mix, certify or deliver.
				return res, nil
			}
			if pos := c.reCertifyUpstream(round, i, epochs, st.states); pos >= 0 {
				res.Halted = true
				res.BlamedServers = append(res.BlamedServers, pos)
				return res, nil
			}
			st.envs = without(st.envs, mr.Failed)
			if i == 0 {
				st.accepted = without(st.accepted, mr.Failed)
			}
			continue
		}
		// Every member verifies the shuffle certificate; the chain
		// halts on failure (the honest server refuses to continue).
		if err := VerifyMix(round, c.ID, i, epochs[i], hk.BpkPrev, hk.Bpk, st.envs, mr.Out, mr.Proof); err != nil {
			res.Halted = true
			res.BlamedServers = append(res.BlamedServers, i)
			return res, nil
		}
		// Record the position's output, then advance: it is the next
		// position's input.
		st.states[i].out, st.states[i].outGone = mr.Out, make([]bool, len(mr.Out))
		st.envs = mr.Out
		i++
	}

	// Reveal inner keys (§6.3) and decrypt the inner envelopes. Each
	// revealed secret is checked against the ipk that was
	// proof-verified at announce time — the key users actually
	// encrypted against — not against anything the position claims
	// now.
	c.keyMu.RLock()
	announced := c.innerKeys[round]
	c.keyMu.RUnlock()
	innerSum := group.NewScalar(0)
	for i, h := range c.hops {
		isk, err := h.RevealInnerKey(round)
		if err != nil || !group.Base(isk).Equal(announced[i]) {
			res.Halted = true
			res.BlamedServers = append(res.BlamedServers, i)
			return res, nil
		}
		innerSum = innerSum.Add(isk)
	}
	for _, msg := range openInnerBatch(c.scheme, innerSum, nonce, st.envs) {
		if msg == nil {
			res.DroppedInner++
			continue
		}
		res.Delivered = append(res.Delivered, msg)
	}
	return res, nil
}

// openInnerBatch opens every envelope's inner ciphertext under the
// revealed aggregate inner secret — onion.OpenInner for the whole
// batch, fanned over the worker ranges. A nil entry is an envelope
// that failed to parse or to authenticate.
func openInnerBatch(scheme aead.Scheme, innerSum group.Scalar, nonce [aead.NonceSize]byte, envs []onion.Envelope) [][]byte {
	msgs := make([][]byte, len(envs))
	parallelRanges(len(envs), func(lo, hi int) {
		ys := make([]group.Point, hi-lo)
		parsed := make([]bool, hi-lo)
		for j := range ys {
			y, err := onion.InnerDHKey(envs[lo+j].Ct)
			if err == nil {
				ys[j], parsed[j] = y, true
			}
		}
		exchanged := group.BatchMul(ys, innerSum)[0]
		for j := range ys {
			if !parsed[j] {
				continue
			}
			msg, err := onion.OpenInnerWithKey(scheme, exchanged[j], nonce, envs[lo+j].Ct)
			if err == nil {
				msgs[lo+j] = msg
			}
		}
	})
	return msgs
}

// without returns s minus the entries at the given sorted indices,
// in order.
func without[T any](s []T, drop []int) []T {
	out := make([]T, 0, len(s)-len(drop))
	for j, e := range s {
		if len(drop) > 0 && drop[0] == j {
			drop = drop[1:]
			continue
		}
		out = append(out, e)
	}
	return out
}

// keptKeys returns the Diffie-Hellman keys of the envelopes gone does
// not mark.
func keptKeys(envs []onion.Envelope, gone []bool) []group.Point {
	keys := make([]group.Point, 0, len(envs))
	for j, g := range gone {
		if !g {
			keys = append(keys, envs[j].DHKey)
		}
	}
	return keys
}

// reCertifyUpstream makes positions 0..upto-1 re-issue their shuffle
// certificates over the messages the round's blame walks did not trace
// (§6.4 closing paragraph), and verifies each against the products of
// its kept inputs and outputs. It returns the first position whose
// certificate fails, or -1.
func (c *Chain) reCertifyUpstream(round uint64, upto int, epochs []int, states []posRecord) int {
	for i := upto - 1; i >= 0; i-- {
		rec := &states[i]
		keep := make([]bool, len(rec.in))
		for j, g := range rec.inGone {
			keep[j] = !g
		}
		epochs[i]++
		proof, err := c.hops[i].ReProveSubset(round, epochs[i], keep)
		if err != nil || nizk.VerifyDleq(mixContext(round, c.ID, i, epochs[i]),
			group.Product(keptKeys(rec.in, rec.inGone)), group.Product(keptKeys(rec.out, rec.outGone)),
			c.keys[i].BpkPrev, c.keys[i].Bpk, proof) != nil {
			return i
		}
	}
	return -1
}
