// Package onion defines XRD's message formats and onion encryption.
//
// Three nested layers exist (outermost first):
//
//  1. Outer onion: one AEAD layer per mix server, peeled during
//     mixing. Two constructions are provided: the baseline of
//     Algorithm 2 (a fresh Diffie-Hellman key per layer, secure only
//     against passive adversaries) and the AHS double envelope of
//     §6.2 (a single Diffie-Hellman key g^x with a knowledge proof,
//     blinded as it travels). Building an AHS onion costs k+1
//     exponentiations of public keys that are fixed for the epoch
//     (mpkᵢ) or the round (∏ipkᵢ) while only the scalars x, y are
//     per message: WrapAHSBatch hands those of every onion a user
//     builds in a round to group.BatchDH in one call, which sums the
//     fixed-key table entries of keys that carry a table
//     (group.Point.Precomputed — mix.Chain, core's round snapshot and
//     rpc.Client attach them) as one tree of affine additions, and
//     takes the stdlib path for bare points.
//
//  2. Inner ciphertext (AHS only): a one-shot encryption under the
//     product of the servers' per-round inner keys ∏ipkᵢ, opened
//     only after every server reveals its inner key at the end of a
//     successful round (§6.3). It keeps message contents hidden even
//     from the last server until the shuffle is verified.
//
//  3. Mailbox message: (pk_u, AEnc(s, ρ, payload)) — the recipient's
//     mailbox identifier plus the payload encrypted under a key only
//     the mailbox owner can derive (loopback key) or shares with her
//     partner (conversation key).
//
// Every message at every stage has a fixed size, which the privacy
// argument needs: the adversary sees identical traffic volumes
// regardless of who talks to whom.
package onion

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/nizk"
)

const (
	// BodySize is the fixed message body, 256 bytes like the paper's
	// evaluation (§8): "about the size of a standard SMS message or a
	// Tweet".
	BodySize = 256
	// payloadHeaderSize holds the kind byte and 2-byte body length.
	payloadHeaderSize = 3
	// PlaintextSize is the fixed inner plaintext size.
	PlaintextSize = payloadHeaderSize + BodySize
	// MailboxMessageSize is the fixed size of a message delivered to
	// a mailbox: recipient key, then sealed payload.
	MailboxMessageSize = group.PointSize + PlaintextSize + aead.Overhead
	// innerEnvelopeSize is the AHS inner ciphertext: ephemeral key
	// g^y plus the sealed mailbox message.
	innerEnvelopeSize = group.PointSize + MailboxMessageSize + aead.Overhead
)

// Kind distinguishes payload semantics after decryption. On the wire
// all kinds are indistinguishable.
type Kind byte

const (
	// KindLoopback marks a dummy message a user sends to her own
	// mailbox (§5.3.2 step 1a).
	KindLoopback Kind = iota
	// KindConversation carries conversation plaintext.
	KindConversation
	// KindOffline is the cover conversation message pre-submitted for
	// round ρ+1 that tells the partner the sender has gone offline
	// (§5.3.3).
	KindOffline
)

// ErrFormat is returned for malformed messages of any layer.
var ErrFormat = errors.New("onion: malformed message")

// Payload is the decrypted content of a mailbox message.
type Payload struct {
	Kind Kind
	Body []byte // at most BodySize bytes
}

// Marshal encodes the payload into the fixed PlaintextSize, padding
// the body with zeros.
func (p Payload) Marshal() ([]byte, error) {
	if len(p.Body) > BodySize {
		return nil, fmt.Errorf("%w: body %d bytes exceeds %d; split long messages across rounds", ErrFormat, len(p.Body), BodySize)
	}
	out := make([]byte, PlaintextSize)
	out[0] = byte(p.Kind)
	binary.BigEndian.PutUint16(out[1:3], uint16(len(p.Body)))
	copy(out[payloadHeaderSize:], p.Body)
	return out, nil
}

// ParsePayload decodes a fixed-size plaintext produced by Marshal. It
// accepts exactly what Marshal emits: padding after the body that is
// not all zeros is refused, so one payload has one encoding.
func ParsePayload(b []byte) (Payload, error) {
	if len(b) != PlaintextSize {
		return Payload{}, fmt.Errorf("%w: plaintext length %d", ErrFormat, len(b))
	}
	n := int(binary.BigEndian.Uint16(b[1:3]))
	if n > BodySize {
		return Payload{}, fmt.Errorf("%w: body length %d", ErrFormat, n)
	}
	for _, c := range b[payloadHeaderSize+n:] {
		if c != 0 {
			return Payload{}, fmt.Errorf("%w: non-zero padding after a %d-byte body", ErrFormat, n)
		}
	}
	body := make([]byte, n)
	copy(body, b[payloadHeaderSize:payloadHeaderSize+n])
	return Payload{Kind: Kind(b[0]), Body: body}, nil
}

// SealMailboxMessage builds (pk_u, AEnc(s, nonce, payload)): the unit
// that mix chains deliver to mailbox servers.
func SealMailboxMessage(s aead.Scheme, key kdf.Key, nonce [aead.NonceSize]byte, recipient group.Point, p Payload) ([]byte, error) {
	pt, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, MailboxMessageSize)
	out = append(out, recipient.Bytes()...)
	k := [aead.KeySize]byte(key)
	return s.Seal(out, &k, &nonce, pt), nil
}

// Recipient extracts the destination mailbox (user public key bytes)
// from a mailbox message without decrypting it; this is how the last
// server routes messages (Algorithm 1 step 2b).
func Recipient(msg []byte) ([]byte, error) {
	if len(msg) != MailboxMessageSize {
		return nil, fmt.Errorf("%w: mailbox message length %d", ErrFormat, len(msg))
	}
	return msg[:group.PointSize], nil
}

// OpenMailboxMessage authenticates and decrypts a mailbox message
// with the recipient-side key. It is the mailbox owner's step 3 of
// Algorithm 2.
func OpenMailboxMessage(s aead.Scheme, key kdf.Key, nonce [aead.NonceSize]byte, msg []byte) (Payload, error) {
	if len(msg) != MailboxMessageSize {
		return Payload{}, fmt.Errorf("%w: mailbox message length %d", ErrFormat, len(msg))
	}
	k := [aead.KeySize]byte(key)
	pt, err := s.Open(nil, &k, &nonce, msg[group.PointSize:])
	if err != nil {
		return Payload{}, err
	}
	return ParsePayload(pt)
}

// BaselineCiphertextSize is the submission size for the baseline
// onion through k servers: each layer prepends a fresh ephemeral key
// and an AEAD tag.
func BaselineCiphertextSize(k int) int {
	return MailboxMessageSize + k*(group.PointSize+aead.Overhead)
}

// WrapBaseline onion-encrypts a mailbox message for a chain whose
// mixing public keys are mixKeys (first server first), following
// Algorithm 2 step 2: cᵢ = (g^xᵢ, AEnc(DH(mpkᵢ, xᵢ), ρ, cᵢ₊₁)).
func WrapBaseline(s aead.Scheme, mixKeys []group.Point, nonce [aead.NonceSize]byte, mailboxMsg []byte) ([]byte, error) {
	if len(mailboxMsg) != MailboxMessageSize {
		return nil, fmt.Errorf("%w: mailbox message length %d", ErrFormat, len(mailboxMsg))
	}
	privs := make([]group.Scalar, len(mixKeys))
	for i := range privs {
		privs[i] = group.MustRandomScalar()
	}
	// One batched fixed-base walk for all per-layer ephemeral keys.
	pubs := group.BatchBase(privs)
	ct := append([]byte(nil), mailboxMsg...)
	for i := len(mixKeys) - 1; i >= 0; i-- {
		key := kdf.OnionKey(group.DH(mixKeys[i], privs[i]))
		k := [aead.KeySize]byte(key)
		layer := make([]byte, 0, group.PointSize+len(ct)+aead.Overhead)
		layer = append(layer, pubs[i].Bytes()...)
		ct = s.Seal(layer, &k, &nonce, ct)
	}
	return ct, nil
}

// PeelBaseline removes one baseline layer with the server's mixing
// secret (Algorithm 1 step 1).
func PeelBaseline(s aead.Scheme, msk group.Scalar, nonce [aead.NonceSize]byte, ct []byte) ([]byte, error) {
	if len(ct) < group.PointSize+aead.Overhead {
		return nil, fmt.Errorf("%w: layer length %d", ErrFormat, len(ct))
	}
	eph, err := group.ParsePoint(ct[:group.PointSize])
	if err != nil {
		return nil, err
	}
	key := kdf.OnionKey(group.DH(eph, msk))
	k := [aead.KeySize]byte(key)
	return s.Open(nil, &k, &nonce, ct[group.PointSize:])
}

// Envelope is the unit that travels through an AHS chain: the user's
// (progressively blinded) Diffie-Hellman key Xᵢ and the remaining
// outer ciphertext cᵢ.
type Envelope struct {
	DHKey group.Point
	Ct    []byte
}

// Clone returns a deep copy, used when simulating adversarial servers
// that tamper with copies.
func (e Envelope) Clone() Envelope {
	return Envelope{DHKey: e.DHKey, Ct: append([]byte(nil), e.Ct...)}
}

// Submission is what a user sends to every server of a chain: the
// envelope plus the NIZK that she knows the discrete log of her DH
// key (§6.2 step 2), which the AHS security game requires. The proof
// is commitment-format (nizk.DlogProof) so servers can verify whole
// batches with one multi-scalar multiplication.
type Submission struct {
	Envelope
	Proof nizk.DlogProof
}

// AHSCiphertextSize is the outer ciphertext size for a chain of k
// servers: the inner envelope plus one AEAD tag per server.
func AHSCiphertextSize(k int) int {
	return innerEnvelopeSize + k*aead.Overhead
}

// SubmissionWireSize is the total bytes one AHS submission puts on
// the wire for a chain of k servers: the user's Diffie-Hellman key,
// the outer ciphertext, and the knowledge proof. It feeds the
// Figure 2 bandwidth model. The commitment-format proof costs one
// extra byte over the (c, s) encoding (a compressed point instead of
// a scalar) — the price of batch verifiability.
func SubmissionWireSize(k int) int {
	return group.PointSize + AHSCiphertextSize(k) + nizk.DlogProofSize
}

// SubmitContext is the Fiat-Shamir context binding a user's PoK to a
// round and chain, preventing replays of stale submissions.
func SubmitContext(round uint64, chain int) string {
	return fmt.Sprintf("xrd/submit/round=%d/chain=%d", round, chain)
}

// WrapJob is one onion to build: a mailbox message for one chain in
// one round, under that round's parameters of the chain.
type WrapJob struct {
	InnerAgg   group.Point   // ∏ipkᵢ for Round
	MixKeys    []group.Point // mpkᵢ, first server first
	Round      uint64
	Chain      int
	Nonce      [aead.NonceSize]byte
	MailboxMsg []byte
}

// WrapAHS builds an AHS double envelope (§6.2): the mailbox message
// is sealed under the aggregate inner key innerAgg = ∏ipkᵢ with a
// fresh g^y, then wrapped in one outer AEAD layer per server, all
// derived from a single fresh x with key DH(mpkᵢ, x). Returns the
// submission ready to send to the chain. It is WrapAHSBatch of one job.
func WrapAHS(s aead.Scheme, innerAgg group.Point, mixKeys []group.Point, round uint64, chain int, nonce [aead.NonceSize]byte, mailboxMsg []byte) (Submission, error) {
	subs, err := WrapAHSBatch(s, []WrapJob{{
		InnerAgg: innerAgg, MixKeys: mixKeys, Round: round, Chain: chain, Nonce: nonce, MailboxMsg: mailboxMsg,
	}})
	if err != nil {
		return Submission{}, err
	}
	return subs[0], nil
}

// WrapAHSBatch builds one AHS double envelope per job — a user's whole
// round, both lanes, is one call — with the public-key work of all of
// them batched: the three fixed-base points of every onion (the inner
// ephemeral g^y, the outer DH key g^x and the proof commitment g^v)
// share one group.BatchBase sweep, and all Σ(kⱼ+1) exchanges — each
// job's ∏ipk under its y, its every mpkᵢ under its single x — one
// group.BatchDH, which is what gives the tree-summed table walks their
// lanes. Sealing and proving then run per onion. Jobs are independent:
// sub[j] is distributed exactly as WrapAHS of job j alone.
func WrapAHSBatch(s aead.Scheme, jobs []WrapJob) ([]Submission, error) {
	exchanges := 0
	for _, j := range jobs {
		if len(j.MailboxMsg) != MailboxMessageSize {
			return nil, fmt.Errorf("%w: mailbox message length %d", ErrFormat, len(j.MailboxMsg))
		}
		exchanges += 1 + len(j.MixKeys)
	}
	// Job j owns scalars[3j:3j+3] = y, x, v.
	scalars := make([]group.Scalar, 3*len(jobs))
	for i := range scalars {
		scalars[i] = group.MustRandomScalar()
	}
	pts := group.BatchBase(scalars)

	pubs := make([]group.Point, 0, exchanges)
	privs := make([]group.Scalar, 0, exchanges)
	for j, job := range jobs {
		y, x := scalars[3*j], scalars[3*j+1]
		pubs = append(pubs, job.InnerAgg)
		privs = append(privs, y)
		pubs = append(pubs, job.MixKeys...)
		for range job.MixKeys {
			// The same Scalar value down the run is what lets BatchDH
			// recode x once per onion.
			privs = append(privs, x)
		}
	}
	secrets := group.BatchDH(pubs, privs)

	subs := make([]Submission, len(jobs))
	for j, job := range jobs {
		x, v := scalars[3*j+1], scalars[3*j+2]
		gy, gx, gv := pts[3*j], pts[3*j+1], pts[3*j+2]
		k := len(job.MixKeys)
		mine := secrets[:1+k]
		secrets = secrets[1+k:]

		// Inner envelope: e = (g^y, AEnc(DH(∏ipk, y), ρ, m)), in a
		// buffer with room for the k outer tags.
		ik := [aead.KeySize]byte(kdf.InnerKey(mine[0]))
		e := make([]byte, 0, AHSCiphertextSize(k))
		e = append(e, gy.Bytes()...)
		e = s.Seal(e, &ik, &job.Nonce, job.MailboxMsg)

		subs[j] = Submission{
			Envelope: Envelope{DHKey: gx, Ct: sealOuterLayers(s, mine[1:], job.Nonce, e)},
			Proof:    nizk.ProveDlogCommitPrecomputed(SubmitContext(job.Round, job.Chain), group.Generator(), gx, x, v, gv),
		}
	}
	return subs, nil
}

// sealOuterLayers wraps ct in one AEAD layer per server, innermost
// (last server) first; secrets[i] is DH(mpkᵢ, x). Each layer is sealed
// over the one before it in place (aead.Scheme allows dst = pt[:0]), so
// a ct with capacity for len(secrets) more tags is the only buffer the
// onion ever has; a shorter one just grows.
func sealOuterLayers(s aead.Scheme, secrets [][32]byte, nonce [aead.NonceSize]byte, ct []byte) []byte {
	for i := len(secrets) - 1; i >= 0; i-- {
		k := [aead.KeySize]byte(kdf.OnionKey(secrets[i]))
		ct = s.Seal(ct[:0], &k, &nonce, ct)
	}
	return ct
}

// WrapPartialAHS wraps an arbitrary byte string in outer AHS layers
// for only the given prefix of a chain's mixing keys, with a valid
// knowledge proof. It exists for fault injection: a malicious user
// can produce submissions that decrypt correctly at the first servers
// and fail deeper in the chain (§6.4, Figure 7's workload). Honest
// clients never call it.
func WrapPartialAHS(s aead.Scheme, mixKeys []group.Point, round uint64, chain int, nonce [aead.NonceSize]byte, inner []byte) (Submission, error) {
	x := group.MustRandomScalar()
	v := group.MustRandomScalar()
	pts := group.BatchBase([]group.Scalar{x, v})
	gx, gv := pts[0], pts[1]
	privs := make([]group.Scalar, len(mixKeys))
	for i := range privs {
		privs[i] = x
	}
	secrets := group.BatchDH(mixKeys, privs)
	ct := make([]byte, 0, len(inner)+len(mixKeys)*aead.Overhead)
	ct = sealOuterLayers(s, secrets, nonce, append(ct, inner...))
	proof := nizk.ProveDlogCommitPrecomputed(SubmitContext(round, chain), group.Generator(), gx, x, v, gv)
	return Submission{
		Envelope: Envelope{DHKey: gx, Ct: ct},
		Proof:    proof,
	}, nil
}

// VerifySubmission checks a user's knowledge proof against the round
// and chain it was submitted to.
func VerifySubmission(sub Submission, round uint64, chain int) error {
	return nizk.VerifyDlogCommit(SubmitContext(round, chain), group.Generator(), sub.DHKey, sub.Proof)
}

// PrepareSubmissionBatch prepares every submission's knowledge proof
// for batch verification: the defect of the whole batch is one
// multi-scalar multiplication, and a caller that finds it is not the
// identity halves it to the culprits (mix.VerifySubmissionProofs) with
// VerifySubmission as the ground truth.
func PrepareSubmissionBatch(subs []Submission, round uint64, chain int) (*nizk.DlogBatch, error) {
	ctx := SubmitContext(round, chain)
	contexts := make([]string, len(subs))
	publics := make([]group.Point, len(subs))
	proofs := make([]nizk.DlogProof, len(subs))
	for i := range subs {
		contexts[i] = ctx
		publics[i] = subs[i].DHKey
		proofs[i] = subs[i].Proof
	}
	return nizk.PrepareDlogBatch(contexts, group.Generator(), publics, proofs)
}

// VerifySubmissionBatch checks every submission's knowledge proof in
// one batched multi-scalar multiplication. A nil return means all
// proofs verify; on error at least one is invalid.
func VerifySubmissionBatch(subs []Submission, round uint64, chain int) error {
	b, err := PrepareSubmissionBatch(subs, round, chain)
	if err != nil {
		return err
	}
	if !b.Defect(0, len(subs)).IsIdentity() {
		return nizk.ErrInvalidProof
	}
	return nil
}

// PeelAHS removes one outer layer: the server derives the key from
// the (blinded) user DH key and its mixing secret, Xᵢ^mskᵢ (§6.3
// step 1). A failed authentication surfaces as aead.ErrAuth, which
// triggers the blame protocol.
func PeelAHS(s aead.Scheme, msk group.Scalar, nonce [aead.NonceSize]byte, env Envelope) ([]byte, error) {
	key := kdf.OnionKey(group.DH(env.DHKey, msk))
	k := [aead.KeySize]byte(key)
	return s.Open(nil, &k, &nonce, env.Ct)
}

// DecryptKeyFor returns the AEAD key the server at this envelope
// would use; the blame protocol reveals it alongside a DLEQ proof
// (§6.4 step 2).
func DecryptKeyFor(env Envelope, msk group.Scalar) group.Point {
	return env.DHKey.Mul(msk)
}

// OpenWithRevealedKey decrypts one layer given the revealed exchanged
// key Xᵢ^mskᵢ, as every server does while checking a blame chain.
func OpenWithRevealedKey(s aead.Scheme, revealed group.Point, nonce [aead.NonceSize]byte, ct []byte) ([]byte, error) {
	key := kdf.OnionKey(group.SharedSecret(revealed))
	k := [aead.KeySize]byte(key)
	return s.Open(nil, &k, &nonce, ct)
}

// OpenInner opens the AHS inner envelope once the aggregate inner
// secret ∑iskᵢ is known (after all servers reveal, §6.3). It is the
// single-message form of InnerDHKey → exponentiation →
// OpenInnerWithKey, which the chain runs batch-wise.
func OpenInner(s aead.Scheme, innerSecretSum group.Scalar, nonce [aead.NonceSize]byte, e []byte) ([]byte, error) {
	y, err := InnerDHKey(e)
	if err != nil {
		return nil, err
	}
	return OpenInnerWithKey(s, y.Mul(innerSecretSum), nonce, e)
}

// InnerDHKey parses the sender's ephemeral key g^y off an inner
// envelope.
func InnerDHKey(e []byte) (group.Point, error) {
	if len(e) != innerEnvelopeSize {
		return group.Point{}, fmt.Errorf("%w: inner envelope length %d", ErrFormat, len(e))
	}
	return group.ParsePoint(e[:group.PointSize])
}

// OpenInnerWithKey opens an inner envelope given the exchanged key
// (g^y)^∑iskᵢ for the envelope's InnerDHKey.
func OpenInnerWithKey(s aead.Scheme, exchanged group.Point, nonce [aead.NonceSize]byte, e []byte) ([]byte, error) {
	if len(e) != innerEnvelopeSize {
		return nil, fmt.Errorf("%w: inner envelope length %d", ErrFormat, len(e))
	}
	key := kdf.InnerKey(group.SharedSecret(exchanged))
	k := [aead.KeySize]byte(key)
	return s.Open(nil, &k, &nonce, e[group.PointSize:])
}
