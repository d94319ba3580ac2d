package mix

import (
	"crypto/rand"
	"errors"
	"fmt"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/onion"
)

// Corruption makes a chain position deviate from the protocol,
// simulating the active attacks of §4.1 and §6 for tests and
// experiments. Each field is one move; any of them may be combined.
// Chain.Corrupt applies them at the Hop seam, to whatever the
// position's hop returns, so an in-process server and a remote one
// deviate alike and the honest server never knows. The output moves
// run after an honest Mix, which changes no proof: the shuffle
// certificate covers the input keys only (Server.certify).
type Corruption struct {
	// TamperPairs applies a product-preserving tamper to pairs of
	// output positions: the two Diffie-Hellman keys are shifted by D
	// and -D so the shuffle certificate still verifies, and the
	// ciphertexts garbled. This is the strongest algebraic attack
	// available to an upstream server (Appendix A); it is caught by
	// the next decryption failing and the blame protocol convicting
	// this server.
	TamperPairs [][2]int
	// ReplaceOutput substitutes entire envelopes at the given output
	// positions with adversary-crafted ones (the §4.1 attack of
	// redirecting a message at Alice). Breaks the key product, so the
	// shuffle certificate fails immediately.
	ReplaceOutput map[int]onion.Envelope
	// GarbleCiphertext flips a byte of the ciphertext at the given
	// output positions while leaving keys intact. Caught by the blame
	// protocol's decryption replay (step 3b).
	GarbleCiphertext []int
	// DropOutput removes the message at the given output position
	// (count change is caught by every verifier).
	DropOutput *int
	// BadMixProof emits an invalid shuffle certificate.
	BadMixProof bool
	// FalselyAccuse replaces a clean Mix result with these Failed
	// indices, as given: unsorted, repeated or out of range ones are
	// refused as they arrive, and the rest start the blame protocol
	// against messages whose decryption succeeds, which convicts the
	// accuser in blame step 4. A Mix that really failed is passed
	// through.
	FalselyAccuse []int
	// FailMix fails every Mix call, as a dead or garbled transport
	// would.
	FailMix bool
	// WithholdInnerKey refuses to reveal the per-round inner key
	// after mixing, halting the round without any delivery.
	WithholdInnerKey bool
	// SubstituteInnerKey reveals a fresh secret in place of the
	// round's inner key: a pair consistent with itself, not with the
	// public key proved at announce time.
	SubstituteInnerKey bool
	// RefuseBlameReveal refuses every blame reveal asked of the
	// position.
	RefuseBlameReveal bool
}

// corruptHop is a position's hop with a Corruption's moves applied to
// what it returns.
type corruptHop struct {
	Hop
	c *Corruption
}

func (h corruptHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*MixResult, error) {
	if h.c.FailMix {
		return nil, errors.New("mix: corrupt position failed its Mix")
	}
	mr, err := h.Hop.Mix(round, nonce, in)
	if err != nil || len(mr.Failed) > 0 {
		return mr, err
	}
	if len(h.c.FalselyAccuse) > 0 {
		return &MixResult{Failed: append([]int(nil), h.c.FalselyAccuse...)}, nil
	}
	mr.Out = h.c.applyMix(mr.Out)
	if h.c.BadMixProof {
		mr.Proof.S = mr.Proof.S.Add(group.NewScalar(1))
	}
	return mr, nil
}

func (h corruptHop) RevealInnerKey(round uint64) (group.Scalar, error) {
	switch {
	case h.c.WithholdInnerKey:
		return group.Scalar{}, errors.New("mix: corrupt position withheld its inner key")
	case h.c.SubstituteInnerKey:
		return group.MustRandomScalar(), nil
	}
	return h.Hop.RevealInnerKey(round)
}

func (h corruptHop) BlameReveal(round uint64, msg, pos int) (BlameReveal, error) {
	if h.c.RefuseBlameReveal {
		return BlameReveal{}, errors.New("mix: corrupt position refused a blame reveal")
	}
	return h.Hop.BlameReveal(round, msg, pos)
}

// applyMix mutates a Mix output according to the corruption and
// returns the (possibly resized) output slice.
func (c *Corruption) applyMix(out []onion.Envelope) []onion.Envelope {
	for _, pair := range c.TamperPairs {
		p1, p2 := pair[0], pair[1]
		if p1 >= len(out) || p2 >= len(out) || p1 == p2 {
			continue
		}
		// Shift the two keys in opposite directions: the product of
		// all keys is unchanged, so the DLEQ certificate still holds,
		// but the downstream AEAD keys no longer match any ciphertext
		// the adversary can produce.
		d := group.MustRandomScalar()
		shift := group.Base(d)
		out[p1].DHKey = out[p1].DHKey.Add(shift)
		out[p2].DHKey = out[p2].DHKey.Add(shift.Neg())
		garble(out[p1].Ct)
		garble(out[p2].Ct)
	}
	for p, env := range c.ReplaceOutput {
		if p < len(out) {
			out[p] = env.Clone()
		}
	}
	for _, p := range c.GarbleCiphertext {
		if p < len(out) {
			garble(out[p].Ct)
		}
	}
	if c.DropOutput != nil && *c.DropOutput < len(out) {
		p := *c.DropOutput
		out = append(out[:p:p], out[p+1:]...)
	}
	return out
}

func garble(ct []byte) {
	if len(ct) > 0 {
		ct[len(ct)/2] ^= 0x55
	}
}

// MaliciousSubmission builds a user submission whose knowledge proof
// and outer layers 0..badLayer-1 are valid but whose content at
// badLayer fails authenticated decryption — the malicious-user attack
// the blame protocol must attribute (§6.4, Figure 7's workload). A nil
// scheme means ChaCha20-Poly1305, as for NewChain.
func MaliciousSubmission(scheme aead.Scheme, p Params, round uint64, lane byte, badLayer int) (onion.Submission, error) {
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	k := len(p.MixKeys)
	if badLayer < 0 || badLayer >= k {
		return onion.Submission{}, fmt.Errorf("mix: bad layer %d outside chain of %d", badLayer, k)
	}
	nonce := aead.RoundNonce(round, lane)
	// Garbage standing in for c_badLayer (the ciphertext server
	// badLayer will try to open): correct length, invalid
	// authentication under any key.
	garbage := make([]byte, onion.AHSCiphertextSize(k)-badLayer*aead.Overhead)
	if _, err := rand.Read(garbage); err != nil {
		return onion.Submission{}, fmt.Errorf("mix: sampling garbage: %w", err)
	}
	sub, err := onion.WrapPartialAHS(scheme, p.MixKeys[:badLayer], round, p.ChainID, nonce, garbage)
	if err != nil {
		return onion.Submission{}, err
	}
	return sub, nil
}

// InvalidProofSubmission builds a submission whose knowledge proof is
// broken; servers reject it at submission time (§6.4 first case). A
// nil scheme means ChaCha20-Poly1305.
func InvalidProofSubmission(scheme aead.Scheme, p Params, round uint64, lane byte) (onion.Submission, error) {
	sub, err := MaliciousSubmission(scheme, p, round, lane, len(p.MixKeys)-1)
	if err != nil {
		return onion.Submission{}, err
	}
	sub.Proof.S = sub.Proof.S.Add(group.NewScalar(1))
	return sub, nil
}

// CraftValidOnion builds a fully valid submission addressed to the
// given recipient — what a malicious first server substitutes for a
// user's message in the §4.1 attack. The key product check makes the
// substitution detectable. A nil scheme means ChaCha20-Poly1305.
func CraftValidOnion(scheme aead.Scheme, p Params, round uint64, lane byte, recipient group.Point) (onion.Submission, error) {
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	nonce := aead.RoundNonce(round, lane)
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return onion.Submission{}, err
	}
	payload := onion.Payload{Kind: onion.KindConversation, Body: []byte("attack message")}
	var kk [aead.KeySize]byte
	copy(kk[:], key[:])
	pt, err := payload.Marshal()
	if err != nil {
		return onion.Submission{}, err
	}
	msg := append(recipient.Bytes(), scheme.Seal(nil, &kk, &nonce, pt)...)
	return onion.WrapAHS(scheme, p.InnerAggregate, p.MixKeys, round, p.ChainID, nonce, msg)
}
