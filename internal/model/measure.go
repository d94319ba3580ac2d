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
// attributes to one unit: one batch at one mixing hop, one client
// wrap, or one blame layer.

const (
	measureChainLen = 32 // the paper's k at f=0.2
	// measureHopBatch is the batch one timed mixing hop carries. A
	// server's per-message cost is an amortised one — the hop raises
	// the whole batch to msk and bsk in one group.BatchMul — so the
	// model times a batch and divides.
	measureHopBatch = 512
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
	mailbox  []byte
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
		ms.mailbox = mb
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

// benchWrapOneMessage is the client cost of one AHS submission for a
// 32-server chain (Figure 3's unit).
func benchWrapOneMessage() {
	measureSetup()
	if _, err := onion.WrapAHS(ms.scheme, ms.innerAgg, ms.mixKeys, 1, 0, ms.nonce, ms.mailbox); err != nil {
		panic(err)
	}
}

// benchBlameOneLayer is one layer of the blame protocol for one
// message (§6.4): the revealing server's two DLEQ proofs plus every
// verifier's two DLEQ checks and one replayed decryption.
func benchBlameOneLayer() {
	measureSetup()
	x := ms.sub.DHKey
	blind := nizk.ProveDleq("blame/blind", x, ms.bpkPrev, ms.bskFirst)
	keyp := nizk.ProveDleq("blame/key", x, ms.bpkPrev, ms.mskFirst)
	if err := nizk.VerifyDleq("blame/blind", x, x.Mul(ms.bskFirst), ms.bpkPrev, ms.bpk, blind); err != nil {
		panic(err)
	}
	k := x.Mul(ms.mskFirst)
	if err := nizk.VerifyDleq("blame/key", x, k, ms.bpkPrev, ms.mpk, keyp); err != nil {
		panic(err)
	}
	if _, err := onion.OpenWithRevealedKey(ms.scheme, k, ms.nonce, ms.sub.Ct); err != nil {
		panic(err)
	}
}
