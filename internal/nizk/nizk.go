// Package nizk implements the two non-interactive zero-knowledge
// proofs XRD needs, both made non-interactive with the Fiat-Shamir
// transform over SHA-256:
//
//   - Knowledge of discrete log (Schnorr/Camenisch-Stadler): users
//     prove they know x matching their outer Diffie-Hellman key g^x
//     (§6.2 step 2). Without this, adversarial users could choose keys
//     as functions of honest users' keys, which the AHS security
//     argument (Appendix A, step 4 of the game) must exclude.
//
//   - Discrete log equality (Chaum-Pedersen): servers prove
//     log_B1(Y1) = log_B2(Y2). This is the AHS shuffle certificate
//     ((∏X_i)^bsk = ∏X_{i+1} against bpk_{i-1}, bpk_i; §6.3 step 3),
//     the key-generation certificates (§6.1), and every key-reveal
//     step of the blame protocol (§6.4).
//
// The knowledge proof exists in two encodings. The original
// (challenge, response) Proof stays in use for the handful of
// per-round server proofs; user submissions use the commitment-format
// DlogProof (commitment, response), because transmitting the
// commitment instead of the challenge is what makes batch
// verification possible (see DlogBatch).
//
// All proofs bind a caller-supplied context string (round, chain and
// server identifiers) so a proof cannot be replayed elsewhere.
package nizk

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/group"
)

// ErrInvalidProof is returned when a proof fails to verify or decode.
var ErrInvalidProof = errors.New("nizk: proof verification failed")

// Proof is a Fiat-Shamir (challenge, response) pair. The same shape
// serves Schnorr and Chaum-Pedersen proofs; the challenge derivation
// (and therefore verification) differs.
type Proof struct {
	C group.Scalar // Fiat-Shamir challenge
	S group.Scalar // response s = v + c·x
}

func dlogChallenge(context string, base, public, commit group.Point) group.Scalar {
	return group.HashToScalar("xrd/nizk/dlog/v1",
		[]byte(context), base.Bytes(), public.Bytes(), commit.Bytes())
}

// ProveDlog proves knowledge of x such that public = base^x.
func ProveDlog(context string, base group.Point, x group.Scalar) Proof {
	return ProveDlogPrecomputed(context, base, base.Mul(x), x)
}

// ProveDlogPrecomputed is ProveDlog for callers that already hold
// public = base^x (a server proving the key it has just published), so
// the base is raised once, to the nonce. A wrong public only yields a
// proof VerifyDlog rejects.
func ProveDlogPrecomputed(context string, base, public group.Point, x group.Scalar) Proof {
	return proveDlog(context, base, public, x, group.MustRandomScalar())
}

// proveDlog is the one prover, its nonce v explicit for the tests.
func proveDlog(context string, base, public group.Point, x, v group.Scalar) Proof {
	c := dlogChallenge(context, base, public, base.Mul(v))
	return Proof{C: c, S: v.Add(c.Mul(x))}
}

// VerifyDlog checks a ProveDlog proof for the statement
// public = base^x. The commitment is recomputed as one two-term
// product base^s · public^(-c) (≈ 0.6 of two ladders) and the
// challenge re-derived.
func VerifyDlog(context string, base, public group.Point, p Proof) error {
	if base.IsIdentity() || public.IsIdentity() {
		// A trivial base or key admits degenerate proofs; XRD never
		// produces them, so reject outright.
		return ErrInvalidProof
	}
	commit := group.MultiScalarMult([]group.Point{base, public.Neg()}, []group.Scalar{p.S, p.C})
	if !dlogChallenge(context, base, public, commit).Equal(p.C) {
		return ErrInvalidProof
	}
	return nil
}

func dleqChallenge(context string, b1, y1, b2, y2, t1, t2 group.Point) group.Scalar {
	return group.HashToScalar("xrd/nizk/dleq/v1",
		[]byte(context), b1.Bytes(), y1.Bytes(), b2.Bytes(), y2.Bytes(), t1.Bytes(), t2.Bytes())
}

// ProveDleq proves log_b1(y1) = log_b2(y2) = x, i.e. y1 = b1^x and
// y2 = b2^x for the same secret x.
func ProveDleq(context string, b1, b2 group.Point, x group.Scalar) Proof {
	return ProveDleqPrecomputed(context, b1, b1.Mul(x), b2, b2.Mul(x), x)
}

// ProveDleqPrecomputed is ProveDleq for callers that already hold
// y1 = b1^x and y2 = b2^x (a server's y2 is its own published key), so
// each base is raised once, to the nonce. A wrong y1 or y2 only yields
// a proof VerifyDleq rejects.
func ProveDleqPrecomputed(context string, b1, y1, b2, y2 group.Point, x group.Scalar) Proof {
	return proveDleq(context, b1, y1, b2, y2, x, group.MustRandomScalar())
}

// proveDleq is the one prover, its nonce v explicit for the tests.
func proveDleq(context string, b1, y1, b2, y2 group.Point, x, v group.Scalar) Proof {
	c := dleqChallenge(context, b1, y1, b2, y2, b1.Mul(v), b2.Mul(v))
	return Proof{C: c, S: v.Add(c.Mul(x))}
}

// VerifyDleq checks a ProveDleq proof for the statement
// y1 = b1^x ∧ y2 = b2^x, reconstructing each commitment as one
// two-term product b^s·y^−c (≈ 0.6 of two ladders).
func VerifyDleq(context string, b1, y1, b2, y2 group.Point, p Proof) error {
	if b1.IsIdentity() || b2.IsIdentity() {
		return ErrInvalidProof
	}
	sc := []group.Scalar{p.S, p.C}
	t1 := group.MultiScalarMult([]group.Point{b1, y1.Neg()}, sc)
	t2 := group.MultiScalarMult([]group.Point{b2, y2.Neg()}, sc)
	if !dleqChallenge(context, b1, y1, b2, y2, t1, t2).Equal(p.C) {
		return ErrInvalidProof
	}
	return nil
}

// DlogProofSize is the encoded size of a commitment-format knowledge
// proof (commitment point followed by response scalar).
const DlogProofSize = group.PointSize + group.ScalarSize

// DlogProof is a Schnorr proof of knowledge in commitment format: the
// prover sends the commitment T = base^v and the response
// s = v + c·x, and the verifier recomputes the challenge c by hashing
// T (it is never transmitted). Unlike the (c, s) Proof — whose check
// reconstructs T from c and therefore needs one verification equation
// per proof — this format admits batch verification: the per-proof
// equations base^sᵢ = Tᵢ·Xᵢ^cᵢ can be folded into a single
// multi-scalar product with random weights.
type DlogProof struct {
	T group.Point  // commitment base^v
	S group.Scalar // response s = v + c·x
}

// Bytes encodes the proof as T || S.
func (p DlogProof) Bytes() []byte {
	out := make([]byte, 0, DlogProofSize)
	out = append(out, p.T.Bytes()...)
	return append(out, p.S.Bytes()...)
}

// ParseDlogProof decodes a proof encoded by Bytes, rejecting
// off-curve commitments and non-canonical scalars.
func ParseDlogProof(b []byte) (DlogProof, error) {
	if len(b) != DlogProofSize {
		return DlogProof{}, ErrInvalidProof
	}
	t, err := group.ParsePoint(b[:group.PointSize])
	if err != nil {
		return DlogProof{}, ErrInvalidProof
	}
	s, err := group.ParseScalar(b[group.PointSize:])
	if err != nil {
		return DlogProof{}, ErrInvalidProof
	}
	return DlogProof{T: t, S: s}, nil
}

func dlogCommitChallenge(context string, base, public, commit group.Point) group.Scalar {
	return group.HashToScalar("xrd/nizk/dlog-commit/v1",
		[]byte(context), base.Bytes(), public.Bytes(), commit.Bytes())
}

// ProveDlogCommit proves knowledge of x such that public = base^x, in
// commitment format.
func ProveDlogCommit(context string, base group.Point, x group.Scalar) DlogProof {
	v := group.MustRandomScalar()
	return ProveDlogCommitPrecomputed(context, base, base.Mul(x), x, v, base.Mul(v))
}

// ProveDlogCommitPrecomputed is ProveDlogCommit for callers that have
// already computed public = base^x and the commitment pair
// (v, commit = base^v) — typically through group.BatchBase, which
// amortizes the fixed-base work across a whole onion. The caller must
// supply a fresh uniformly random v per proof; reusing v leaks x.
func ProveDlogCommitPrecomputed(context string, base, public group.Point, x, v group.Scalar, commit group.Point) DlogProof {
	c := dlogCommitChallenge(context, base, public, commit)
	return DlogProof{T: commit, S: v.Add(c.Mul(x))}
}

// VerifyDlogCommit checks a ProveDlogCommit proof for the statement
// public = base^x: the challenge is re-derived from the transmitted
// commitment and base^s must equal T·public^c.
func VerifyDlogCommit(context string, base, public group.Point, p DlogProof) error {
	if base.IsIdentity() || public.IsIdentity() {
		// A trivial base or key admits degenerate proofs; XRD never
		// produces them, so reject outright.
		return ErrInvalidProof
	}
	c := dlogCommitChallenge(context, base, public, p.T)
	lhs := base.Mul(p.S)
	rhs := p.T.Add(public.Mul(c))
	if !lhs.Equal(rhs) {
		return ErrInvalidProof
	}
	return nil
}

// batchRandomizerBytes sizes the per-proof random weights rᵢ of the
// batch check. 128 bits make the probability that a range containing
// any invalid proof still has the identity for its defect at most
// 2^−128.
const batchRandomizerBytes = 16

// DlogBatch is a run of commitment-format proofs over a common base,
// prepared for batch verification. Proof i asserts
// base^sᵢ = Tᵢ·publicsᵢ^cᵢ, i.e. that its defect
// Eᵢ = Tᵢ·publicsᵢ^cᵢ·base^−sᵢ is the identity; preparation hashes
// every cᵢ and draws one random 128-bit weight rᵢ per proof, after the
// proofs are fixed, and the weights never leave the value. Any range
// holding a bad proof then has a non-identity Defect except with
// probability 2^−128, however the bad proofs were aimed (DESIGN.md,
// "Blame attribution under batching"). A proof VerifyDlogCommit refuses
// outright (an identity public key) is given Eᵢ = base.
type DlogBatch struct {
	base    group.Point
	points  []group.Point  // T₀, X₀, T₁, X₁, …
	scalars []group.Scalar // r₀, r₀c₀, r₁, r₁c₁, …
	sums    []group.Scalar // sums[i] = Σ_{j<i} rⱼsⱼ
}

// PrepareDlogBatch prepares proofs of publics[i] = base^x under
// contexts[i]. It fails on mismatched lengths, a trivial base or a
// failing randomness source, never because of what a proof contains.
func PrepareDlogBatch(contexts []string, base group.Point, publics []group.Point, proofs []DlogProof) (*DlogBatch, error) {
	n := len(proofs)
	if len(contexts) != n || len(publics) != n {
		return nil, fmt.Errorf("nizk: batch of %d proofs with %d contexts and %d publics", n, len(contexts), len(publics))
	}
	if n > 0 && base.IsIdentity() {
		return nil, ErrInvalidProof
	}
	rnd := make([]byte, n*batchRandomizerBytes)
	if _, err := rand.Read(rnd); err != nil {
		return nil, fmt.Errorf("nizk: sampling batch randomizers: %w", err)
	}
	b := &DlogBatch{
		base:    base,
		points:  make([]group.Point, 2*n),
		scalars: make([]group.Scalar, 2*n),
		sums:    make([]group.Scalar, n+1),
	}
	for i := range proofs {
		r := group.ScalarFromBig(new(big.Int).SetBytes(rnd[i*batchRandomizerBytes : (i+1)*batchRandomizerBytes]))
		if r.IsZero() {
			r = group.NewScalar(1)
		}
		if publics[i].IsIdentity() {
			// Eᵢ = base: no points, and −rᵢ where rᵢsᵢ would go.
			b.sums[i+1] = b.sums[i].Sub(r)
			continue
		}
		c := dlogCommitChallenge(contexts[i], base, publics[i], proofs[i].T)
		b.points[2*i], b.points[2*i+1] = proofs[i].T, publics[i]
		b.scalars[2*i], b.scalars[2*i+1] = r, r.Mul(c)
		b.sums[i+1] = b.sums[i].Add(r.Mul(proofs[i].S))
	}
	return b, nil
}

// Defect returns Π_{lo≤i<hi} Eᵢ^rᵢ, the identity iff every proof in
// [lo, hi) verifies: one multi-scalar multiplication over 2(hi−lo)
// points and one multiplication of the base. Defects of adjacent ranges
// multiply, so a range's and its left half's give the right half's.
func (b *DlogBatch) Defect(lo, hi int) group.Point {
	rhs := group.MultiScalarMult(b.points[2*lo:2*hi], b.scalars[2*lo:2*hi])
	return rhs.Add(b.base.Mul(b.sums[lo].Sub(b.sums[hi])))
}

// VerifyDlogBatch verifies many commitment-format proofs over a
// common base in one shot — the whole batch's Defect — which costs far
// less than n separate verifications. A nil return guarantees (up to
// the 2^−128 randomizer soundness) that every proof verifies; on error
// at least one is bad, and a caller that must know which halves a
// DlogBatch's defect down to VerifyDlogCommit.
func VerifyDlogBatch(contexts []string, base group.Point, publics []group.Point, proofs []DlogProof) error {
	b, err := PrepareDlogBatch(contexts, base, publics, proofs)
	if err != nil {
		return err
	}
	if !b.Defect(0, len(proofs)).IsIdentity() {
		return ErrInvalidProof
	}
	return nil
}
