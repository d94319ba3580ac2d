package onion

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/group"
)

// Batch is what one chain position hands the next (§6.3): every
// envelope on the chain at that hop. It is its own wire format — the
// field type of a hop.mix request and of mix.MixResult.Out — and the
// one place an AHS Diffie-Hellman key crosses a link uncompressed.
//
// A batch encodes as one block, sized before a byte is written:
//
//	layout byte, count (uint32)
//	ciphertext length (uint32)            uniform layout
//	  or count lengths (uint32 each)      per-envelope layout
//	count keys, x‖y, 64 bytes each (the identity as zeros)
//	the ciphertexts, back to back
//
// Every honest ciphertext at position i of a chain of k is
// AHSCiphertextSize(k) − i·aead.Overhead bytes, so the length is said
// once; a batch whose ciphertexts differ in length — tests and
// byzantine peers build those — says each, and only such a batch may
// (an encoding is canonical: decode, re-encode, same bytes).
//
// The keys carry y because the receiver is a server about to raise
// each of them to two exponents: checking y² = x³ − 3x + b costs three
// field multiplications where recovering y from a sign bit costs a
// square root, ≈ 260 (group.ParseUncompressed against group.ParsePoint,
// 0.2 µs against 4.3), and 32 more bytes cost a link 0.26 µs at 1 Gb/s.
// Anything a user sends or stores and anything hashed — submissions,
// parameters, digests, KDF input, WAL records — stays compressed.
type Batch []Envelope

const (
	batchUniform     = 0 // one ciphertext length for the whole batch
	batchPerEnvelope = 1 // a length per envelope
	// batchPrefixSize is the layout byte and the count.
	batchPrefixSize = 1 + 4
)

// MarshalBinary implements encoding.BinaryMarshaler (encoding/gob calls
// it): the block described on Batch, allocated once at its final size.
func (b Batch) MarshalBinary() ([]byte, error) {
	if uint64(len(b)) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: batch of %d envelopes", ErrFormat, len(b))
	}
	uniform, ctBytes := true, 0
	for i := range b {
		if uint64(len(b[i].Ct)) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: ciphertext of %d bytes", ErrFormat, len(b[i].Ct))
		}
		uniform = uniform && len(b[i].Ct) == len(b[0].Ct)
		ctBytes += len(b[i].Ct)
	}
	lengths := 1
	if !uniform {
		lengths = len(b)
	}
	out := make([]byte, 0, batchPrefixSize+4*lengths+group.UncompressedSize*len(b)+ctBytes)
	if uniform {
		out = append(out, batchUniform)
		out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
		ctLen := 0
		if len(b) > 0 {
			ctLen = len(b[0].Ct)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(ctLen))
	} else {
		out = append(out, batchPerEnvelope)
		out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
		for i := range b {
			out = binary.BigEndian.AppendUint32(out, uint32(len(b[i].Ct)))
		}
	}
	for i := range b {
		out = b[i].DHKey.AppendUncompressed(out)
	}
	for i := range b {
		out = append(out, b[i].Ct...)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for bytes off
// the network. The count and the lengths are claims: they are checked
// against the bytes actually present — exactly, so nothing trails the
// block — before anything is allocated, so what is then allocated (the
// envelopes, their keys, one copy of the ciphertext column) follows the
// bytes a peer really sent. Every key is validated by group.ParseUncompressed,
// so an off-curve or non-canonical point fails the decode before any
// handler sees the batch. On error *b is left as it was.
func (b *Batch) UnmarshalBinary(data []byte) error {
	if len(data) < batchPrefixSize+4 {
		return fmt.Errorf("%w: batch block of %d bytes", ErrFormat, len(data))
	}
	layout, n := data[0], uint64(binary.BigEndian.Uint32(data[1:]))
	rest := data[batchPrefixSize:]
	var ctLen uint64   // uniform layout
	var lengths []byte // per-envelope layout: n uint32s
	var ctBytes uint64 // the ciphertext column's size
	switch layout {
	case batchUniform:
		ctLen, rest = uint64(binary.BigEndian.Uint32(rest)), rest[4:]
		// n·per may pass 2⁶⁴; n ≤ len/per cannot.
		per := group.UncompressedSize + ctLen
		if n > uint64(len(rest))/per || n*per != uint64(len(rest)) || n == 0 && ctLen != 0 {
			return fmt.Errorf("%w: batch claims %d envelopes of %d+%d bytes in %d", ErrFormat, n, group.UncompressedSize, ctLen, len(rest))
		}
		ctBytes = n * ctLen
	case batchPerEnvelope:
		const per = 4 + group.UncompressedSize
		if n > uint64(len(rest))/per {
			return fmt.Errorf("%w: batch claims %d envelopes in %d bytes", ErrFormat, n, len(rest))
		}
		lengths, rest = rest[:4*n], rest[4*n:]
		uniform := true
		for i := uint64(0); i < n; i++ {
			l := binary.BigEndian.Uint32(lengths[4*i:])
			uniform = uniform && l == binary.BigEndian.Uint32(lengths)
			ctBytes += uint64(l)
		}
		if uniform || n*group.UncompressedSize+ctBytes != uint64(len(rest)) {
			return fmt.Errorf("%w: batch of %d envelopes, %d ciphertext bytes claimed, %d bytes present", ErrFormat, n, ctBytes, len(rest))
		}
	default:
		return fmt.Errorf("%w: batch layout %d", ErrFormat, layout)
	}

	keys, cts := rest[:n*group.UncompressedSize], rest[n*group.UncompressedSize:]
	out := make(Batch, n)
	for i := range out {
		key, err := group.ParseUncompressed(keys[i*group.UncompressedSize:][:group.UncompressedSize])
		if err != nil {
			return fmt.Errorf("onion: batch key %d: %w", i, err)
		}
		out[i].DHKey = key
	}
	// data is the caller's buffer (gob reuses its own), so the
	// ciphertexts are copied — once, as a column — and sliced out of the
	// copy with their capacity clipped: appending to one cannot reach
	// the next.
	cts = append(make([]byte, 0, ctBytes), cts...)
	for i := range out {
		l := ctLen
		if lengths != nil {
			l = uint64(binary.BigEndian.Uint32(lengths[4*i:]))
		}
		out[i].Ct, cts = cts[:l:l], cts[l:]
	}
	*b = out
	return nil
}
