package onion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/group"
)

// Batch is what one chain position hands the next (§6.3): every
// envelope on the chain at that hop. It is its own wire format, the
// raw block after the gob header of a hop.mix request and of its
// reply (mix.MixResult.Out) in internal/rpc, and never crosses inside
// gob.
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
// Keys cross uncompressed in two places: here, between the coordinator
// and a remote mix position, and in a gateway shard's build on its way
// to the coordinator (core.ChainBatches), whose submissions' keys the
// coordinator verifies proofs over before position 0 raises them.
// Anything a user sends or stores and anything hashed — submissions,
// parameters, digests, KDF input, WAL records — stays compressed.
type Batch []Envelope

const (
	batchUniform     = 0 // one ciphertext length for the whole batch
	batchPerEnvelope = 1 // a length per envelope
	// batchPrefixSize is the layout byte and the count.
	batchPrefixSize = 1 + 4
)

// errGob is what a batch answers encoding/gob with.
var errGob = errors.New("onion: a batch crosses as a raw block, not inside gob")

// GobEncode and GobDecode refuse: a body that carries a batch crosses
// with the batch taken out of its gob header and appended raw after it
// (internal/rpc), so gob never holds one.
func (Batch) GobEncode() ([]byte, error) { return nil, errGob }
func (*Batch) GobDecode([]byte) error    { return errGob }

// MarshalBinary implements encoding.BinaryMarshaler: AppendBinary(nil).
func (b Batch) MarshalBinary() ([]byte, error) { return b.AppendBinary(nil) }

// AppendBinary implements encoding.BinaryAppender: the block described
// on Batch appended to dst, which grows once, to exactly its length
// and the block's, if it has not the room.
func (b Batch) AppendBinary(dst []byte) ([]byte, error) {
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
	out := grow(dst, batchPrefixSize+4*lengths+group.UncompressedSize*len(b)+ctBytes)
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

// grow returns dst with room for n more bytes: dst itself if it has
// it, else a copy in a buffer of exactly len(dst)+n, where append would
// round up and copy again as it went.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n), dst...)
}

// Decode sets *b to the batch the block data encodes, in place: each
// ciphertext is a slice of data, its capacity clipped so that
// appending to one cannot reach the next, and data is the batch's from
// here on. internal/rpc hands it the frame the batch arrived in, which
// nothing else holds; anything kept past the call that received it is
// copied out where it is kept.
//
// The count and the lengths are claims: they are checked against the
// bytes actually present — exactly, so nothing trails the block —
// before anything is allocated, so what is then allocated (the
// envelopes, their keys) follows the bytes a peer really sent. Every
// key is validated by group.ParseUncompressed, so an off-curve or
// non-canonical point fails the decode before any handler sees the
// batch. On error *b is left as it was.
func (b *Batch) Decode(data []byte) error {
	if len(data) < batchPrefixSize+4 {
		return fmt.Errorf("%w: batch block of %d bytes", ErrFormat, len(data))
	}
	layout, n := data[0], uint64(binary.BigEndian.Uint32(data[1:]))
	rest := data[batchPrefixSize:]
	var ctLen uint64   // uniform layout
	var lengths []byte // per-envelope layout: n uint32s
	var ctBytes uint64 // the ciphertext column's size, per-envelope layout
	switch layout {
	case batchUniform:
		ctLen, rest = uint64(binary.BigEndian.Uint32(rest)), rest[4:]
		// n·per may pass 2⁶⁴; n ≤ len/per cannot.
		per := group.UncompressedSize + ctLen
		if n > uint64(len(rest))/per || n*per != uint64(len(rest)) || n == 0 && ctLen != 0 {
			return fmt.Errorf("%w: batch claims %d envelopes of %d+%d bytes in %d", ErrFormat, n, group.UncompressedSize, ctLen, len(rest))
		}
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
