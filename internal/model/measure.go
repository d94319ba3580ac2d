package model

import (
	"sync"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// This file times the repository's real crypto for the Measure
// calibration. Each closure performs exactly the work the model
// attributes to one unit: one batch at one mixing hop, one client's
// round of wraps, or one blame layer.

const (
	measureChainLen = 32 // the paper's k at f=0.2
	// measureHopBatch is the batch one timed mixing hop carries. A
	// server's per-message cost is an amortised one — the hop raises
	// the whole batch to msk and bsk in one group.BatchMul — so the
	// model times a batch and divides.
	measureHopBatch = 512
	// measureRoundOnions is the one timed client round: the paper's
	// headline n = 100 gives ℓ = 14 chains, a message and a cover for
	// each. A client's per-onion cost is amortised the same way —
	// client.User.BuildRound wraps both lanes in one onion.WrapAHSBatch,
	// whose exponentiations batch across onions — so the model times a
	// round and divides.
	measureRoundOnions = 28
)

type measureState struct {
	scheme   aead.Scheme
	mixKeys  []group.Point
	mskFirst group.Scalar
	bskFirst group.Scalar
	bpkPrev  group.Point
	bpk      group.Point
	mpk      group.Point
	innerAgg group.Point
	nonce    [aead.NonceSize]byte
	sub      onion.Submission
	hopKeys  []group.Point // sub.DHKey, measureHopBatch times
	round    []onion.WrapJob
}

var (
	msOnce sync.Once
	ms     measureState
)

func measureSetup() {
	msOnce.Do(func() {
		ms.scheme = aead.ChaCha20Poly1305()
		ms.nonce = aead.RoundNonce(1, 0)

		// AHS key chain of length k.
		base := group.Generator()
		innerSum := group.NewScalar(0)
		agg := group.Identity()
		for i := 0; i < measureChainLen; i++ {
			bsk := group.MustRandomScalar()
			msk := group.MustRandomScalar()
			if i == 0 {
				ms.bskFirst, ms.mskFirst = bsk, msk
				ms.bpkPrev = base
				ms.bpk = base.Mul(bsk)
				ms.mpk = base.Mul(msk)
			}
			ms.mixKeys = append(ms.mixKeys, base.Mul(msk))
			base = base.Mul(bsk)
			ikp := group.GenerateBaseKeyPair()
			innerSum = innerSum.Add(ikp.Private)
			agg = agg.Add(ikp.Public)
		}
		ms.innerAgg = agg

		recipient := group.GenerateBaseKeyPair()
		var secret [32]byte
		key := kdf.ConversationKey(secret, recipient.Public.Bytes())
		mb, err := onion.SealMailboxMessage(ms.scheme, key, ms.nonce, recipient.Public, onion.Payload{Kind: onion.KindLoopback})
		if err != nil {
			panic(err)
		}
		sub, err := onion.WrapAHS(ms.scheme, ms.innerAgg, ms.mixKeys, 1, 0, ms.nonce, mb)
		if err != nil {
			panic(err)
		}
		ms.sub = sub
		// The hop's cost does not depend on the keys being distinct.
		ms.hopKeys = make([]group.Point, measureHopBatch)
		for i := range ms.hopKeys {
			ms.hopKeys[i] = sub.DHKey
		}

		// One user's round: a message and a cover for each of her ℓ
		// chains, against keys that carry tables like every
		// client.ParamsSource's do — the mix keys shared by the chain's
		// two onions, the inner aggregate per round. Only the build is
		// timed, so the keys need not form a chain.
		tabled := func() group.Point { return group.Base(group.MustRandomScalar()).Precomputed() }
		for c := 0; c < measureRoundOnions/2; c++ {
			keys := make([]group.Point, measureChainLen)
			for i := range keys {
				keys[i] = tabled()
			}
			for _, r := range []uint64{1, 2} {
				ms.round = append(ms.round, onion.WrapJob{
					InnerAgg: tabled(), MixKeys: keys, Round: r, Chain: c,
					Nonce: aead.RoundNonce(r, 0), MailboxMsg: mb,
				})
			}
		}
	})
}

// benchMixHop is one server's mixing work on a measureHopBatch-message
// batch (§6.3), the way mix.Server.Mix does it: verify every
// submission proof, raise every key to the mixing and the blinding
// secret in one batched exponentiation, open every layer. The
// per-batch shuffle certificate amortises to nothing per message.
func benchMixHop() {
	measureSetup()
	for range ms.hopKeys {
		if err := onion.VerifySubmission(ms.sub, 1, 0); err != nil {
			panic(err)
		}
	}
	pows := group.BatchMul(ms.hopKeys, ms.mskFirst, ms.bskFirst)
	for _, exchanged := range pows[0] {
		if _, err := onion.OpenWithRevealedKey(ms.scheme, exchanged, ms.nonce, ms.sub.Ct); err != nil {
			panic(err)
		}
	}
}

// benchWrapRound is the client cost of one round's measureRoundOnions
// submissions on 32-server chains (Figure 3's unit, times as many).
func benchWrapRound() {
	measureSetup()
	if _, err := onion.WrapAHSBatch(ms.scheme, ms.round); err != nil {
		panic(err)
	}
}

// benchBlameOneLayer is one layer of the blame protocol for one
// message (§6.4), the way mix.Server.BlameRevealAt and Chain.blameOne
// do it: the revealing server raises the message's key to its two
// secrets once and hands both powers, with its published keys, to the
// two DLEQ provers; every verifier runs two DLEQ checks and one
// replayed decryption.
func benchBlameOneLayer() {
	measureSetup()
	x := ms.sub.DHKey
	xout, k := x.Mul(ms.bskFirst), x.Mul(ms.mskFirst)
	blind := nizk.ProveDleqPrecomputed("blame/blind", x, xout, ms.bpkPrev, ms.bpk, ms.bskFirst)
	keyp := nizk.ProveDleqPrecomputed("blame/key", x, k, ms.bpkPrev, ms.mpk, ms.mskFirst)
	if err := nizk.VerifyDleq("blame/blind", x, xout, ms.bpkPrev, ms.bpk, blind); err != nil {
		panic(err)
	}
	if err := nizk.VerifyDleq("blame/key", x, k, ms.bpkPrev, ms.mpk, keyp); err != nil {
		panic(err)
	}
	if _, err := onion.OpenWithRevealedKey(ms.scheme, k, ms.nonce, ms.sub.Ct); err != nil {
		panic(err)
	}
}
