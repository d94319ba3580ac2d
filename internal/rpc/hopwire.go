package rpc

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// Server↔server wire messages for the hop transport: how a chain
// orchestrator (gateway) drives one remote mix position. Everything
// that crosses the wire is canonical bytes re-parsed and re-validated
// on arrival — ParsePoint rejects off-curve encodings, ParseProof and
// ParseScalar reject non-canonical field elements — and batches move
// in bounded chunks so neither side ever allocates a frame
// proportional to the whole round.
//
// One mixing step is a short conversation:
//
//	hop.batch × ⌈n/MaxHopChunkEnvelopes⌉   (HopBatchRequest, streamed in)
//	hop.mix                                (HopMixRequest → proof/permutation/failures)
//	hop.pull  × ⌈n/MaxHopChunkEnvelopes⌉   (HopPullRequest, streamed out)
//
// plus hop.certify (re-certification after blame removals), hop.blame
// and hop.accuse (blame reveals), and the key/round-setup calls.

// WireEnvelope is one onion.Envelope in wire form.
type WireEnvelope struct {
	DHKey []byte
	Ct    []byte
}

// HopInitRequest binds a hop process to a chain position: the hop
// generates its long-term keys chained off Base (bpk_{i-1}, or g for
// position 0) and publishes them. Re-sending the same binding is
// idempotent; a conflicting one at the same epoch is refused, and a
// higher Epoch rebinds the hop in place with fresh keys (chain
// re-formation after an eviction). Gob decodes an absent Epoch as 0,
// so pre-epoch orchestrators keep working.
type HopInitRequest struct {
	Epoch uint64
	Chain int
	Index int
	Base  []byte
}

// HopKeysResponse carries mix.HopKeys in wire form.
type HopKeysResponse struct {
	Chain       int
	Index       int
	Bpk         []byte
	Mpk         []byte
	BaselinePub []byte
	BskProof    []byte
	MskProof    []byte
}

// HopBeginRequest asks for the per-round inner key announcement.
type HopBeginRequest struct {
	Round uint64
}

// HopBeginResponse carries the inner public key and knowledge proof.
type HopBeginResponse struct {
	Ipk   []byte
	Proof []byte
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
	Isk []byte
}

// HopBatchRequest streams one bounded chunk of the round's onion
// batch into the hop. Chunks must arrive in Seq order starting at 0;
// Seq 0 opens a fresh staging buffer for Round, dropping any older
// staged batch.
type HopBatchRequest struct {
	Round     uint64
	Seq       int
	Envelopes []WireEnvelope
}

// HopBatchResponse acknowledges a chunk with the running total.
type HopBatchResponse struct {
	Received int
}

// HopMixRequest runs the mixing step (§6.3 steps 1-3) over the staged
// batch. Count is the orchestrator's view of the batch size; a
// mismatch with what was staged is refused (the input-agreement
// analogue at the transport layer).
type HopMixRequest struct {
	Round uint64
	Nonce []byte
	Count int
}

// HopMixResponse is the mixing step's summary: either Failed is
// non-empty (decryption failures, the blame protocol follows and no
// output exists) or the shuffle certificate, the disclosed
// permutation and the output size, with the output itself pulled in
// chunks.
type HopMixResponse struct {
	Failed   []int
	Proof    []byte
	Out2In   []int
	OutCount int
}

// HopPullRequest fetches one bounded chunk of the last mix output.
type HopPullRequest struct {
	Round uint64
	Seq   int
}

// HopPullResponse carries the chunk; More reports whether another
// chunk follows.
type HopPullResponse struct {
	Envelopes []WireEnvelope
	More      bool
}

// HopCertifyRequest asks for a re-issued shuffle certificate over the
// messages that survived blame removal (§6.4). Keep is a bitmap over
// the hop's last input, N its bit length.
type HopCertifyRequest struct {
	Round uint64
	Epoch int
	N     int
	Keep  []byte
}

// HopCertifyResponse carries the re-certification DLEQ proof.
type HopCertifyResponse struct {
	Proof []byte
}

// HopBlameRequest asks for the hop's blame disclosure (§6.4 steps
// 1-2) for the message at its input position Pos; Msg names the
// accused working index and binds the proof contexts.
type HopBlameRequest struct {
	Round uint64
	Msg   int
	Pos   int
}

// HopBlameResponse carries the blame reveal.
type HopBlameResponse struct {
	Xin        []byte
	BlindProof []byte
	K          []byte
	KeyProof   []byte
}

// HopAccuseRequest asks the accusing hop for its step 4 disclosure
// over the accused message's submitted Diffie-Hellman key.
type HopAccuseRequest struct {
	Round uint64
	Msg   int
	Key   []byte
}

// HopAccuseResponse carries the exchanged key and matching proof.
type HopAccuseResponse struct {
	K     []byte
	Proof []byte
}

// envelopesToWire converts a batch chunk for transmission. The
// Diffie-Hellman key column is encoded through the group batch seam.
func envelopesToWire(envs []onion.Envelope) []WireEnvelope {
	keys := make([]group.Point, len(envs))
	for i, e := range envs {
		keys[i] = e.DHKey
	}
	enc := group.EncodePoints(keys)
	out := make([]WireEnvelope, len(envs))
	for i, e := range envs {
		out[i] = WireEnvelope{DHKey: enc[i], Ct: e.Ct}
	}
	return out
}

// envelopesFromWire validates and converts a received chunk. Every
// Diffie-Hellman key is checked to be on the curve; a single bad
// envelope rejects the chunk.
func envelopesFromWire(ws []WireEnvelope) ([]onion.Envelope, error) {
	enc := make([][]byte, len(ws))
	for i, w := range ws {
		enc[i] = w.DHKey
	}
	keys, err := group.ParsePoints(enc)
	if err != nil {
		return nil, fmt.Errorf("rpc: envelope key: %w", err)
	}
	out := make([]onion.Envelope, len(ws))
	for i, w := range ws {
		out[i] = onion.Envelope{DHKey: keys[i], Ct: w.Ct}
	}
	return out, nil
}

// hopKeysToWire converts published position keys for transmission.
func hopKeysToWire(k mix.HopKeys) HopKeysResponse {
	return HopKeysResponse{
		Chain:       k.Chain,
		Index:       k.Index,
		Bpk:         k.Bpk.Bytes(),
		Mpk:         k.Mpk.Bytes(),
		BaselinePub: k.BaselinePub.Bytes(),
		BskProof:    k.BskProof.Bytes(),
		MskProof:    k.MskProof.Bytes(),
	}
}

// hopKeysFromWire validates and converts received position keys.
// BpkPrev is supplied by the receiver (it chose the base), not taken
// from the wire.
func hopKeysFromWire(w HopKeysResponse, bpkPrev group.Point) (mix.HopKeys, error) {
	k := mix.HopKeys{Chain: w.Chain, Index: w.Index, BpkPrev: bpkPrev}
	var err error
	if k.Bpk, err = group.ParsePoint(w.Bpk); err != nil {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop blinding key: %w", err)
	}
	if k.Mpk, err = group.ParsePoint(w.Mpk); err != nil {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop mixing key: %w", err)
	}
	if k.BaselinePub, err = group.ParsePoint(w.BaselinePub); err != nil {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop baseline key: %w", err)
	}
	if k.BskProof, err = nizk.ParseProof(w.BskProof); err != nil {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop bsk proof: %w", err)
	}
	if k.MskProof, err = nizk.ParseProof(w.MskProof); err != nil {
		return mix.HopKeys{}, fmt.Errorf("rpc: hop msk proof: %w", err)
	}
	return k, nil
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
