package mix

import (
	"fmt"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// The hop transport abstraction. A Chain is an orchestration of k
// positions; everything the orchestrator needs from a position goes
// through the Hop interface, so a position can live in this process
// (LocalHop, the default — batches pass by slice reference, zero
// copies) or in a separate xrd-server process reached over TLS
// (rpc.HopClient). The Chain treats every hop as untrusted: proofs
// are verified against the chain's own record of what it sent and
// received, malformed responses are converted into blame, and a hop
// that errors mid-round halts the chain exactly like a server caught
// cheating (§6.3/§6.4 — halting leaks nothing).

// HopKeys is the public key material one chain position publishes at
// setup (§6.1): the blinding and mixing keys chained off the previous
// position's blinding key, and the knowledge proofs every other member checks.
type HopKeys struct {
	Chain int
	Index int
	// BpkPrev is the base of this position's keys: g for the first
	// position, bpk_{i-1} otherwise.
	BpkPrev group.Point
	// Bpk and Mpk are the AHS blinding and mixing public keys.
	Bpk, Mpk group.Point
	// BskProof and MskProof prove knowledge of the two secrets.
	BskProof, MskProof nizk.Proof
}

// VerifyHopKeys checks a position's key-knowledge proofs against its
// published public keys, as every chain member does at setup.
func VerifyHopKeys(k HopKeys) error {
	if err := nizk.VerifyDlog(keyGenContext(k.Chain, k.Index, "bsk"), k.BpkPrev, k.Bpk, k.BskProof); err != nil {
		return fmt.Errorf("mix: server %d blinding key proof: %w", k.Index, err)
	}
	if err := nizk.VerifyDlog(keyGenContext(k.Chain, k.Index, "msk"), k.BpkPrev, k.Mpk, k.MskProof); err != nil {
		return fmt.Errorf("mix: server %d mixing key proof: %w", k.Index, err)
	}
	return nil
}

// BlameReveal is one position's disclosure for one problem message in
// the blame protocol (§6.4).
type BlameReveal struct {
	// Xin is the message's Diffie-Hellman key as it entered the
	// position (step 1 of §6.4).
	Xin group.Point
	// BlindProof shows log_Xin(Xout) = log_bpkPrev(bpk) = bsk.
	BlindProof nizk.Proof
	// K is the exchanged decryption key Xin^msk (step 2).
	K group.Point
	// KeyProof shows log_Xin(K) = log_bpkPrev(mpk) = msk.
	KeyProof nizk.Proof
}

// AccuseReveal is the accusing position's disclosure in blame step 4:
// its exchanged key for the accused message, with proof it matches
// the published mixing key.
type AccuseReveal struct {
	K     group.Point
	Proof nizk.Proof
}

// Hop is the chain orchestrator's handle on one chain position. All
// round traffic — the onion batch hop to hop, shuffle certification,
// and blame material — crosses this interface, so implementations
// decide whether a position is an in-process function call or a
// remote process on the far side of a TLS connection.
//
// Implementations must validate anything that crossed a network
// before returning it (parse points and proofs, check index ranges);
// the Chain additionally re-checks structural properties (failure
// indices, batch sizes) so a hostile hop can at worst halt its own
// chain.
type Hop interface {
	// Keys returns the position's published key material. It must be
	// valid for the lifetime of the hop (keys are long-term, §6.1).
	Keys() HopKeys
	// BeginRound generates (idempotently) the position's per-round
	// inner key and returns the public key with its knowledge proof.
	BeginRound(round uint64) (group.Point, nizk.Proof, error)
	// RevealInnerKey discloses the per-round inner secret after
	// mixing succeeded (§6.3). The chain checks the revealed secret
	// against the inner public key it verified at BeginRound, so an
	// implementation cannot substitute a different (consistent) pair.
	RevealInnerKey(round uint64) (group.Scalar, error)
	// Mix carries the batch to the position and returns its mixing
	// step output: either Failed indices (decryption failures, blame
	// follows) or the shuffled output with its certificate. The
	// permutation stays with the position.
	Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*MixResult, error)
	// ReProveSubset re-issues the shuffle certificate over the
	// messages that survived blame removal (§6.4).
	ReProveSubset(round uint64, epoch int, keep []bool) (nizk.Proof, error)
	// BlameReveal produces the position's blame disclosure for the
	// message at output position pos of its last Mix: the input key
	// behind it, with proofs. msg names the accused working index
	// (context binding only).
	BlameReveal(round uint64, msg, pos int) (BlameReveal, error)
	// Accuse produces the accusing position's step 4 disclosure for
	// the given submitted Diffie-Hellman key.
	Accuse(round uint64, msg int, key group.Point) (AccuseReveal, error)
}

// HopError attributes a hop failure to its chain position. The chain
// wraps transport and verification failures from per-position calls
// in it so an orchestrator can translate the position into a server
// identity — the input the eviction step of epoch recovery needs.
type HopError struct {
	Chain    int
	Position int
	Err      error
}

func (e *HopError) Error() string {
	return fmt.Sprintf("mix: chain %d position %d: %v", e.Chain, e.Position, e.Err)
}

func (e *HopError) Unwrap() error { return e.Err }

// localHop adapts an in-process *Server to the Hop interface. It is
// the zero-copy default: batches pass by reference, nothing is
// serialised.
type localHop struct{ s *Server }

// LocalHop wraps an in-process mix server as a chain hop.
func LocalHop(s *Server) Hop { return localHop{s: s} }

func (h localHop) Keys() HopKeys { return h.s.Keys() }

func (h localHop) BeginRound(round uint64) (group.Point, nizk.Proof, error) {
	ipk, proof := h.s.BeginRound(round)
	return ipk, proof, nil
}

func (h localHop) RevealInnerKey(round uint64) (group.Scalar, error) {
	return h.s.RevealInnerKey(round)
}

func (h localHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*MixResult, error) {
	return h.s.Mix(round, nonce, in)
}

func (h localHop) ReProveSubset(round uint64, epoch int, keep []bool) (nizk.Proof, error) {
	return h.s.ReProveSubset(round, epoch, keep)
}

func (h localHop) BlameReveal(round uint64, msg, pos int) (BlameReveal, error) {
	return h.s.BlameRevealAt(round, msg, pos)
}

func (h localHop) Accuse(round uint64, msg int, key group.Point) (AccuseReveal, error) {
	return h.s.Accuse(round, msg, key), nil
}

// validFailedIndices reports whether a hop's Failed list is sorted,
// duplicate-free and within [0, n) — the shape Server.Mix produces
// and the blame path relies on.
func validFailedIndices(failed []int, n int) bool {
	prev := -1
	for _, j := range failed {
		if j <= prev || j >= n {
			return false
		}
		prev = j
	}
	return true
}
