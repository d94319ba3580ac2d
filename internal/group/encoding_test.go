//lint:file-ignore SA1019 crypto/elliptic's deprecated methods are the reference these tests compare against

package group

import (
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
)

// agreesWithStdlib checks ParsePoint against elliptic.UnmarshalCompressed
// on one 33-byte input with a non-zero tag: the same verdict, and on
// acceptance the same coordinates.
func agreesWithStdlib(t *testing.T, name string, in []byte) (accepted bool) {
	t.Helper()
	wantX, wantY := elliptic.UnmarshalCompressed(curve, in)
	got, err := ParsePoint(in)
	if wantX == nil {
		if !errors.Is(err, ErrInvalidPoint) || !got.IsIdentity() {
			t.Fatalf("%s: %x refused by the stdlib, ParsePoint gave %v, %v", name, in, got, err)
		}
		return false
	}
	if err != nil || got.bigX().Cmp(wantX) != 0 || got.bigY().Cmp(wantY) != 0 {
		t.Fatalf("%s: %x is (%x, %x) to the stdlib, ParsePoint gave %v, %v", name, in, wantX, wantY, got, err)
	}
	if !bytes.Equal(got.Bytes(), in) {
		t.Fatalf("%s: %x re-encodes as %x", name, in, got.Bytes())
	}
	return true
}

// TestParsePointMatchesStdlib is the differential test of the fe
// decompression: random points under both tags (so both parities, and
// the negation branch, are taken for each), random x of which about
// half carry no point, every x at and around p, small x, and the tags
// and lengths that are not an encoding at all.
func TestParsePointMatchesStdlib(t *testing.T) {
	parities := [2]int{}
	for i := 0; i < 512; i++ {
		enc := Base(MustRandomScalar()).Bytes()
		parities[enc[0]&1]++
		agreesWithStdlib(t, "random point", enc)
		enc[0] ^= 1
		agreesWithStdlib(t, "its negation", enc)
	}
	if parities[0] == 0 || parities[1] == 0 {
		t.Fatalf("512 random points covered parities %v", parities)
	}

	residues := [2]int{}
	in := make([]byte, PointSize)
	for i := 0; i < 512; i++ {
		if _, err := rand.Read(in[1:]); err != nil {
			t.Fatal(err)
		}
		in[0] = 2 | byte(i&1)
		if agreesWithStdlib(t, "random x", in) {
			residues[1]++
		} else {
			residues[0]++
		}
	}
	if residues[0] < 128 || residues[1] < 128 {
		t.Fatalf("512 random x: %d with a point, %d without; want about half each", residues[1], residues[0])
	}

	p := curve.Params().P
	for d := int64(-3); d <= 3; d++ {
		x := new(big.Int).Add(p, big.NewInt(d))
		x.FillBytes(in[1:])
		for _, tag := range []byte{2, 3} {
			in[0] = tag
			if agreesWithStdlib(t, "x near p", in) && d >= 0 {
				t.Fatalf("x = p%+d accepted", d)
			}
		}
	}
	for x := int64(0); x < 64; x++ {
		big.NewInt(x).FillBytes(in[1:])
		for _, tag := range []byte{2, 3} {
			in[0] = tag
			agreesWithStdlib(t, "small x", in)
		}
	}
	copy(in[1:], bytes.Repeat([]byte{0xFF}, 32))
	in[0] = 2
	agreesWithStdlib(t, "x all ones", in)

	g := Generator().Bytes()
	for _, tag := range []byte{0, 1, 4, 5, 6, 7, 0x82, 0xFF} {
		bad := append([]byte{tag}, g[1:]...)
		if _, err := ParsePoint(bad); !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("tag %#x: %v", tag, err)
		}
	}
	for _, n := range []int{0, 1, 32, 34, 64, 65} {
		if _, err := ParsePoint(make([]byte, n)); !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("length %d: %v", n, err)
		}
	}
	if id, err := ParsePoint(make([]byte, PointSize)); err != nil || !id.IsIdentity() {
		t.Fatalf("all zeros: %v, %v", id, err)
	}
}

// TestUncompressedRoundTrip: x‖y out and back for random points, the
// identity and x with leading zero bytes, appended behind bytes already
// in dst, and agreeing with elliptic.Marshal's body.
func TestUncompressedRoundTrip(t *testing.T) {
	small, err := ParsePoint(append([]byte{2}, NewScalar(5).Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{Generator(), Identity(), small, small.Neg()}
	for i := 0; i < 64; i++ {
		pts = append(pts, Base(MustRandomScalar()))
	}
	for _, p := range pts {
		enc := p.AppendUncompressed([]byte("head"))
		if len(enc) != 4+UncompressedSize || string(enc[:4]) != "head" {
			t.Fatalf("%v: appended %d bytes", p, len(enc)-4)
		}
		enc = enc[4:]
		if !p.IsIdentity() {
			if want := elliptic.Marshal(curve, p.bigX(), p.bigY())[1:]; !bytes.Equal(enc, want) {
				t.Fatalf("%v: %x, elliptic.Marshal has %x", p, enc, want)
			}
		}
		got, err := ParseUncompressed(enc)
		if err != nil || !got.Equal(p) {
			t.Fatalf("%v: back as %v, %v", p, got, err)
		}
		if !bytes.Equal(got.Bytes(), p.Bytes()) {
			t.Fatalf("%v: compressed form changed across the uncompressed one", p)
		}
	}
}

// TestParseUncompressedRejects: what is not x‖y of a point. Negating or
// nudging either coordinate leaves the curve, a coordinate ≥ p is not
// canonical even when it names a point mod p, and a zero half beside a
// real coordinate is not the identity.
func TestParseUncompressedRejects(t *testing.T) {
	g := Generator()
	good := g.AppendUncompressed(nil)
	p := curve.Params().P
	with := func(x, y *big.Int) []byte {
		out := make([]byte, UncompressedSize)
		x.FillBytes(out[:32])
		y.FillBytes(out[32:])
		return out
	}
	zero := new(big.Int)
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"compressed", g.Bytes()},
		{"one byte short", good[:UncompressedSize-1]},
		{"one byte long", append(good[:UncompressedSize:UncompressedSize], 0)},
		{"SEC 1 prefix", append([]byte{4}, good...)},
		{"y + 1", with(g.bigX(), new(big.Int).Add(g.bigY(), big.NewInt(1)))},
		{"x + 1", with(new(big.Int).Add(g.bigX(), big.NewInt(1)), g.bigY())},
		{"coordinates swapped", with(g.bigY(), g.bigX())},
		{"(x, 0)", with(g.bigX(), zero)},
		{"(0, y)", with(zero, g.bigY())},
		{"x = p", with(p, g.bigY())},
		{"y = p", with(g.bigX(), p)},
		{"all ones", bytes.Repeat([]byte{0xFF}, UncompressedSize)},
	} {
		if got, err := ParseUncompressed(tc.in); !errors.Is(err, ErrInvalidPoint) || !got.IsIdentity() {
			t.Errorf("%s: %v, %v", tc.name, got, err)
		}
	}
	// x = 5 is on the curve; 5 + p fits 32 bytes and is the same x mod
	// p, so only the range check can refuse it.
	small, err := ParsePoint(append([]byte{2}, NewScalar(5).Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseUncompressed(with(small.bigX(), small.bigY())); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseUncompressed(with(new(big.Int).Add(small.bigX(), p), small.bigY())); !errors.Is(err, ErrInvalidPoint) {
		t.Fatalf("x + p accepted: %v", err)
	}
}

// FuzzParseUncompressed: never a panic; what is accepted re-encodes to
// the bytes that came in and is the point the compressed form names.
func FuzzParseUncompressed(f *testing.F) {
	f.Add(Generator().AppendUncompressed(nil))
	f.Add(make([]byte, UncompressedSize))
	f.Add(bytes.Repeat([]byte{0xFF}, UncompressedSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParseUncompressed(b)
		if err != nil {
			return
		}
		if out := p.AppendUncompressed(nil); !bytes.Equal(out, b) {
			t.Fatalf("%x accepted, re-encodes as %x", b, out)
		}
		if q, err := ParsePoint(p.Bytes()); err != nil || !q.Equal(p) {
			t.Fatalf("%x: compressed form names %v, %v", b, q, err)
		}
	})
}

// BenchmarkParsePoint: one element off the wire, compressed (a square
// root: ≈ 253 squarings) against uncompressed (the curve equation: one
// squaring, two multiplications and two domain conversions).
func BenchmarkParsePoint(b *testing.B) {
	p := Base(MustRandomScalar())
	b.Run("compressed", func(b *testing.B) {
		enc := p.Bytes()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParsePoint(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncompressed", func(b *testing.B) {
		enc := p.AppendUncompressed(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseUncompressed(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
