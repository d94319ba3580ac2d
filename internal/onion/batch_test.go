package onion

import (
	"bytes"
	"crypto/elliptic"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/group"
)

// testBatch is n envelopes with distinct keys and ciphertexts of
// ctLen(i) bytes.
func testBatch(n int, ctLen func(i int) int) Batch {
	b := make(Batch, n)
	for i := range b {
		ct := make([]byte, ctLen(i))
		for j := range ct {
			ct[j] = byte(i + j)
		}
		b[i] = Envelope{DHKey: group.Base(group.NewScalar(int64(i + 2))), Ct: ct}
	}
	return b
}

func uniformLen(n int) func(int) int { return func(int) int { return n } }

func sameBatch(a, b Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].DHKey.Equal(b[i].DHKey) || !bytes.Equal(a[i].Ct, b[i].Ct) {
			return false
		}
	}
	return true
}

// TestBatchRoundTrip: uniform batches (the honest case) at the sizes of
// a chain position, a batch with the identity as a key, zero-length
// ciphertexts, the empty batch, and the per-envelope fallback for
// ciphertexts of different lengths — each to the exact size the layout
// promises, appended after what a buffer already holds, and back to an
// equal batch whose ciphertexts are the block's own bytes. gob refuses
// a batch: it crosses only as a raw block.
func TestBatchRoundTrip(t *testing.T) {
	k := 6
	withIdentity := testBatch(5, uniformLen(40))
	withIdentity[2].DHKey = group.Identity()
	for _, tc := range []struct {
		name string
		b    Batch
		size int
	}{
		{"empty", Batch{}, 9},
		{"nil", nil, 9},
		{"one", testBatch(1, uniformLen(AHSCiphertextSize(k))), 9 + 64 + AHSCiphertextSize(k)},
		{"position 0 of 6, 512", testBatch(512, uniformLen(AHSCiphertextSize(k))), 9 + 512*(64+AHSCiphertextSize(k))},
		{"identity key", withIdentity, 9 + 5*(64+40)},
		{"empty ciphertexts", testBatch(3, uniformLen(0)), 9 + 3*64},
		{"non-uniform", testBatch(4, func(i int) int { return 10 * i }), 5 + 4*4 + 4*64 + 60},
		{"non-uniform, last differs", testBatch(3, func(i int) int { return 7 + i/2 }), 5 + 3*4 + 3*64 + 22},
	} {
		enc, err := tc.b.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(enc) != tc.size || cap(enc) != tc.size {
			t.Errorf("%s: %d bytes in a buffer of %d, want exactly %d", tc.name, len(enc), cap(enc), tc.size)
		}
		head := []byte("gob header")
		appended, err := tc.b.AppendBinary(head)
		if err != nil || !bytes.Equal(appended[len(head):], enc) || cap(appended) != len(head)+tc.size {
			t.Errorf("%s: appended after %d bytes: %d bytes in a buffer of %d (%v), want the block in exactly %d", tc.name, len(head), len(appended), cap(appended), err, len(head)+tc.size)
		}
		got := Batch{{Ct: []byte("stale")}}
		if err := got.Decode(enc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameBatch(got, tc.b) {
			t.Errorf("%s: decoded batch differs", tc.name)
		}
		for i := range got {
			if len(got[i].Ct) > 0 && !inside(got[i].Ct, enc) {
				t.Errorf("%s: ciphertext %d was copied out of the block", tc.name, i)
			}
		}
		// The decoded ciphertexts share one buffer; growing one must
		// not write into the next.
		if len(got) > 1 {
			next := append([]byte(nil), got[1].Ct...)
			got[0].Ct = append(got[0].Ct, 0xEE, 0xEE)
			if !bytes.Equal(got[1].Ct, next) {
				t.Errorf("%s: appending to one ciphertext overwrote its neighbour", tc.name)
			}
		}

		type carrier struct {
			Round uint64
			B     Batch
		}
		if err := gob.NewEncoder(io.Discard).Encode(carrier{Round: 7, B: tc.b}); len(tc.b) > 0 && !errors.Is(err, errGob) {
			t.Errorf("%s: gob encoded a batch: %v", tc.name, err)
		}
	}
}

// inside reports whether b's bytes lie within buf's.
func inside(b, buf []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= start && p+uintptr(len(b)) <= start+uintptr(len(buf))
}

// TestBatchDecodeAllocationsAreFlat: a key is a value inside its
// envelope and a ciphertext a slice of the block, so decoding a uniform
// batch allocates the envelopes — one object — however many envelopes
// it holds. (Two while the ciphertexts were copied out as a column;
// four more per key while group.Point held big.Ints.)
func TestBatchDecodeAllocationsAreFlat(t *testing.T) {
	allocs := func(n int) float64 {
		data, err := testBatch(n, uniformLen(AHSCiphertextSize(6))).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			var b Batch
			if err := b.Decode(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(8), allocs(512); small != large || large > 1 {
		t.Fatalf("decoding 8 envelopes allocates %v objects, 512 envelopes %v; want 1 and 1", small, large)
	}
}

// allocated reports the bytes fn allocates by TotalAlloc, the least of
// up to three runs above limit (the counter is process-wide).
func allocated(limit uint64, fn func()) uint64 {
	var before, after runtime.MemStats
	got := ^uint64(0)
	for try := 0; try < 3 && got > limit; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	return got
}

// TestBatchUnmarshalHostile: the block is bytes off the network. Each
// case is refused with the error named, leaves the destination alone,
// and none makes the decoder allocate by what the block claims rather
// than by what it holds.
func TestBatchUnmarshalHostile(t *testing.T) {
	good := testBatch(4, uniformLen(20))
	enc, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	keyAt := func(i int) int { return 9 + 64*i }
	mutate := func(fn func(b []byte) []byte) []byte { return fn(append([]byte(nil), enc...)) }
	header := func(layout byte, n, ctLen uint32, body ...byte) []byte {
		out := []byte{layout}
		out = binary.BigEndian.AppendUint32(out, n)
		out = binary.BigEndian.AppendUint32(out, ctLen)
		return append(out, body...)
	}
	p := elliptic.P256().Params().P.FillBytes(make([]byte, 32))

	uneven := testBatch(3, func(i int) int { return 5 + i })
	unevenEnc, err := uneven.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The per-envelope layout around a batch the uniform one must carry.
	falseFallback := []byte{batchPerEnvelope, 0, 0, 0, 4}
	for range good {
		falseFallback = binary.BigEndian.AppendUint32(falseFallback, 20)
	}
	falseFallback = append(falseFallback, enc[9:]...)

	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"no bytes", nil, ErrFormat},
		{"header cut short", enc[:8], ErrFormat},
		{"unknown layout", mutate(func(b []byte) []byte { b[0] = 2; return b }), ErrFormat},
		{"off-curve key", mutate(func(b []byte) []byte { b[keyAt(1)+63] ^= 1; return b }), group.ErrInvalidPoint},
		{"x coordinate = p", mutate(func(b []byte) []byte { copy(b[keyAt(2):], p); return b }), group.ErrInvalidPoint},
		{"y coordinate ≥ p", mutate(func(b []byte) []byte { copy(b[keyAt(2)+32:], bytes.Repeat([]byte{0xFF}, 32)); return b }), group.ErrInvalidPoint},
		{"(x, 0…0) half-identity", mutate(func(b []byte) []byte { copy(b[keyAt(3)+32:], make([]byte, 32)); return b }), group.ErrInvalidPoint},
		{"(0…0, y) half-identity", mutate(func(b []byte) []byte { copy(b[keyAt(0):], make([]byte, 32)); return b }), group.ErrInvalidPoint},
		{"truncated key column", header(batchUniform, 4, 0, enc[9:9+64*3+40]...), ErrFormat},
		{"one byte short", enc[:len(enc)-1], ErrFormat},
		{"trailing byte", append(append([]byte(nil), enc...), 0), ErrFormat},
		{"count one too many", mutate(func(b []byte) []byte { b[4]++; return b }), ErrFormat},
		{"count one too few", mutate(func(b []byte) []byte { b[4]--; return b }), ErrFormat},
		{"empty batch with a ciphertext length", header(batchUniform, 0, 20), ErrFormat},
		{"empty batch with a body", header(batchUniform, 0, 0, 1, 2, 3), ErrFormat},
		// 2³² − 1 envelopes of 2³² − 1 + 64 bytes: the product passes
		// 2⁶⁴, and a check that multiplied first would wrap to a small
		// number.
		{"count × size overflows", header(batchUniform, math.MaxUint32, math.MaxUint32, make([]byte, 191)...), ErrFormat},
		// 2³¹ × 64 = 2³⁷ is 0 in 32 bits: the length of this body.
		{"count × size wraps to the body length in 32 bits", header(batchUniform, 1<<31, 0), ErrFormat},
		{"2³¹ envelopes over 11 bytes", header(batchUniform, 1<<31, 0, 0xAA, 0xBB), ErrFormat},
		{"2³¹ lengths over 11 bytes", header(batchPerEnvelope, 1<<31, 7, 0xAA, 0xBB), ErrFormat},
		{"per-envelope layout, one length short", unevenEnc[:len(unevenEnc)-1], ErrFormat},
		{"per-envelope layout, trailing byte", append(append([]byte(nil), unevenEnc...), 9), ErrFormat},
		{"per-envelope layout, lengths all equal", falseFallback, ErrFormat},
		{"per-envelope layout, one envelope", append([]byte{batchPerEnvelope, 0, 0, 0, 1, 0, 0, 0, 0}, enc[9:9+64]...), ErrFormat},
	} {
		got := Batch{{Ct: []byte("kept")}}
		var err error
		const limit = 1 << 20
		spent := allocated(limit, func() { err = got.Decode(tc.in) })
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if len(got) != 1 || string(got[0].Ct) != "kept" {
			t.Errorf("%s: a refused block changed the destination", tc.name)
		}
		if spent >= limit {
			t.Errorf("%s: %d bytes made the decoder allocate %d", tc.name, len(tc.in), spent)
		}
	}
	// The mutations are of a block that does decode.
	var back Batch
	if err := back.Decode(enc); err != nil || !sameBatch(back, good) {
		t.Fatalf("the unmutated block: %v", err)
	}
	if err := back.Decode(unevenEnc); err != nil || !sameBatch(back, uneven) {
		t.Fatalf("the unmutated per-envelope block: %v", err)
	}
}

// FuzzBatchUnmarshal: any bytes are an error or a batch — never a panic
// — an accepted block is the only encoding of its batch, and its
// ciphertexts are slices of the block. The seeds include blocks as a
// hop.mix frame carries them after its gob header: position 0's
// ciphertexts on a chain of 6, one key the identity.
func FuzzBatchUnmarshal(f *testing.F) {
	withIdentity := testBatch(4, uniformLen(AHSCiphertextSize(6)))
	withIdentity[1].DHKey = group.Identity()
	for _, b := range []Batch{
		nil,
		testBatch(1, uniformLen(0)),
		testBatch(3, uniformLen(AHSCiphertextSize(2))),
		testBatch(3, func(i int) int { return 3 * i }),
		withIdentity,
	} {
		enc, err := b.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{batchUniform, 0x80, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xBB})
	f.Add([]byte{batchPerEnvelope, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Batch
		if err := b.Decode(data); err != nil {
			if b != nil {
				t.Fatalf("refused block left %d envelopes behind", len(b))
			}
			return
		}
		enc, err := b.AppendBinary(nil)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, re-encodes as %x (%v)", data, enc, err)
		}
		for i := range b {
			if len(b[i].Ct) > 0 && !inside(b[i].Ct, data) {
				t.Fatalf("ciphertext %d was copied out of the block", i)
			}
		}
	})
}

// BenchmarkBatchCodec: a chain position's batch to its block and back,
// per envelope (ns/env and B/env; -benchmem's B/op and allocs/op are
// for the whole batch). Encoding is two FillBytes and a copy an
// envelope into one allocation; decoding is the curve equation an
// envelope, in place.
func BenchmarkBatchCodec(b *testing.B) {
	for _, n := range []int{512, 4096} {
		batch := make(Batch, n)
		for i := range batch {
			batch[i] = Envelope{DHKey: group.Base(group.MustRandomScalar()), Ct: make([]byte, AHSCiphertextSize(6))}
		}
		enc, err := batch.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, op func() error) {
			b.Run(fmt.Sprintf("%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(enc)))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				envs := float64(b.N * n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/envs, "ns/env")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/envs, "B/env")
			})
		}
		run("encode", func() error { _, err := batch.MarshalBinary(); return err })
		var out Batch
		run("decode", func() error { return out.Decode(enc) })
	}
}
