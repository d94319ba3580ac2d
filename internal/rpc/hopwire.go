package rpc

import (
	"fmt"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// Server↔server wire messages for the hop transport: how a chain
// orchestrator (gateway) drives one remote mix position. Messages
// carry the domain types themselves — onion.Batch and nizk.Proof as
// fields, mix.HopKeys, mix.BlameReveal and mix.AccuseReveal as whole
// replies — and their group elements validate on arrival in
// group.Point/Scalar.UnmarshalBinary and onion.Batch.UnmarshalBinary,
// so an off-curve point or a non-canonical scalar fails the decode
// before any handler runs.
//
// The methods are mix.Hop's, one exchange each: hop.begin, hop.reveal,
// hop.mix (the whole batch in, the whole mix.MixResult back),
// hop.certify (re-certification after blame removals), hop.blame and
// hop.accuse (blame reveals) — plus hop.init, which binds the process
// to a chain position and is what Keys() was fetched by.

// HopInitRequest binds a hop process to a chain position: the hop
// generates its long-term keys chained off Base (bpk_{i-1}, or g for
// position 0) and publishes them as mix.HopKeys. Re-sending the same
// binding is idempotent; a conflicting one at the same epoch is
// refused, and a higher Epoch rebinds the hop in place with fresh keys
// (chain re-formation after an eviction).
type HopInitRequest struct {
	Epoch uint64
	Chain int
	Index int
	Base  group.Point
}

// HopBeginRequest asks for the per-round inner key announcement.
type HopBeginRequest struct {
	Round uint64
}

// HopBeginResponse carries the inner public key and knowledge proof.
type HopBeginResponse struct {
	Ipk   group.Point
	Proof nizk.Proof
}

// HopRevealRequest asks the hop to disclose its per-round inner
// secret after mixing succeeded (§6.3). The orchestrator checks the
// revealed secret against the inner public key it verified at
// hop.begin, so the hop cannot substitute a different pair.
type HopRevealRequest struct {
	Round uint64
}

// HopRevealResponse carries the inner secret scalar.
type HopRevealResponse struct {
	Isk group.Scalar
}

// HopMixRequest is one mixing step (§6.3 steps 1-3): the round, the
// round nonce and the position's whole input batch. The reply is the
// mix.MixResult itself, whose Out is an onion.Batch too: in both
// directions the batch crosses as one block with its keys as x‖y,
// checked against the curve equation on arrival (see onion.Batch), and
// hop.mix has no other encoding. A nonce of any other length fails the
// decode.
type HopMixRequest struct {
	Round     uint64
	Nonce     [aead.NonceSize]byte
	Envelopes onion.Batch
}

// HopCertifyRequest asks for a re-issued shuffle certificate (a
// nizk.Proof) over the messages that survived blame removal (§6.4).
// Keep is a bitmap over the hop's last input, N its bit length.
type HopCertifyRequest struct {
	Round uint64
	Epoch int
	N     int
	Keep  []byte
}

// HopBlameRequest asks for the hop's blame disclosure (§6.4 steps
// 1-2, a mix.BlameReveal) for the message at its input position Pos;
// Msg names the accused working index and binds the proof contexts.
type HopBlameRequest struct {
	Round uint64
	Msg   int
	Pos   int
}

// HopAccuseRequest asks the accusing hop for its step 4 disclosure (a
// mix.AccuseReveal) over the accused message's submitted
// Diffie-Hellman key.
type HopAccuseRequest struct {
	Round uint64
	Msg   int
	Key   group.Point
}

// packBools encodes a []bool as a bitmap (LSB-first within bytes).
func packBools(bs []bool) []byte {
	out := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// unpackBools decodes an n-bit bitmap, rejecting length mismatches.
func unpackBools(b []byte, n int) ([]bool, error) {
	if n < 0 || len(b) != (n+7)/8 {
		return nil, fmt.Errorf("rpc: bitmap has %d bytes for %d bits", len(b), n)
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}
