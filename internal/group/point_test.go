//lint:file-ignore SA1019 crypto/elliptic's deprecated methods are the reference these tests compare against

package group

import (
	"bytes"
	"crypto/ecdh"
	"math/big"
	"testing"
	"unsafe"
)

// TestPointIsAValue pins the representation: the struct's size, and that
// the operations which only read or rewrite coordinates touch no heap.
// Add's one division goes through feInv, the package's only remaining
// big.Int user, so Add is held to exactly feInv's allocations: none of
// its own.
func TestPointIsAValue(t *testing.T) {
	if size := unsafe.Sizeof(Point{}); size > 72 {
		t.Fatalf("a Point is %d bytes, want at most 72", size)
	}
	p, q := Base(NewScalar(7)), Base(NewScalar(11)).Precomputed()
	compressed, uncompressed := p.Bytes(), p.AppendUncompressed(nil)
	buf := make([]byte, 0, UncompressedSize)
	var sink Point
	var sunk bool
	inv := p.x
	invAllocs := testing.AllocsPerRun(100, func() { feInv(&inv, &inv) })
	for _, tc := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Equal", 0, func() { sunk = p.Equal(q) }},
		{"Neg", 0, func() { sink = p.Neg() }},
		{"Add", invAllocs, func() { sink = p.Add(q) }},
		{"Add (doubling)", invAllocs, func() { sink = p.Add(p) }},
		{"Add (cancelling)", 0, func() { sink = p.Add(p.Neg()) }},
		{"Add (identity)", 0, func() { sink = p.Add(Point{}) }},
		{"ParsePoint", 0, func() { sink, _ = ParsePoint(compressed) }},
		{"ParseUncompressed", 0, func() { sink, _ = ParseUncompressed(uncompressed) }},
		{"AppendUncompressed", 0, func() { buf = p.AppendUncompressed(buf[:0]) }},
		{"IsIdentity", 0, func() { sunk = p.IsIdentity() }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got != tc.want {
			t.Errorf("%s: %v allocations a call, want %v", tc.name, got, tc.want)
		}
	}
	_, _ = sink, sunk
}

// TestBatchMulAllocationsAreFlat: the kernel's buffers are one slab and
// its results land in place, so what a run allocates depends on the
// scalars (their coefficient bookkeeping is big.Int) and not on how many
// bases it raises.
func TestBatchMulAllocationsAreFlat(t *testing.T) {
	scalars := []Scalar{HashToScalar("flat", []byte{1}), HashToScalar("flat", []byte{2})}
	allocs := func(n int) float64 {
		pts := testBases("batchmul/allocs", n)
		return testing.AllocsPerRun(3, func() { BatchMul(pts, scalars...) })
	}
	// The runtime's own allocations land in the count now and then, so
	// the bound is loose: not one object more per sixteen bases.
	if small, large := allocs(64), allocs(512); large-small > (512-64)/16 {
		t.Fatalf("BatchMul of 64×2 allocates %v objects, of 512×2 %v", small, large)
	}
}

// TestIdentityIsTheZeroValue pins the identity's three forms to one
// another: the zero Point, 33 zero bytes and 64 zero bytes.
func TestIdentityIsTheZeroValue(t *testing.T) {
	var zero Point
	if !zero.IsIdentity() || !zero.Equal(Identity()) || zero != Identity() {
		t.Fatal("the zero Point is not the identity")
	}
	if got := zero.Bytes(); !bytes.Equal(got, make([]byte, PointSize)) {
		t.Fatalf("identity compresses to %x", got)
	}
	if got := zero.AppendUncompressed(nil); !bytes.Equal(got, make([]byte, UncompressedSize)) {
		t.Fatalf("identity encodes as %x", got)
	}
	if p, err := ParsePoint(make([]byte, PointSize)); err != nil || p != zero {
		t.Fatalf("33 zero bytes parse to %v, %v", p, err)
	}
	if p, err := ParseUncompressed(make([]byte, UncompressedSize)); err != nil || p != zero {
		t.Fatalf("64 zero bytes parse to %v, %v", p, err)
	}
	g := Generator()
	for name, p := range map[string]Point{"g + (−g)": g.Add(g.Neg()), "g^0": g.Mul(Scalar{}), "−identity": zero.Neg(), "identity^s": zero.Mul(NewScalar(3)), "empty product": Product(nil)} {
		if p != zero {
			t.Errorf("%s is %v, not the zero value", name, p)
		}
	}
}

// ladderEdgeScalars are the scalars around the ladder's recoding: the
// small values (2 is run as n−2, whose last window doubles the
// accumulator), the neighbours of the order, and the kernel's edges.
func ladderEdgeScalars() []Scalar {
	return append(batchMulEdgeScalars()[1:], NewScalar(4), NewScalar(31), NewScalar(32), NewScalar(33), NewScalar(-4))
}

// stdlibAdd is Add's reference: crypto/elliptic on the bare coordinates.
func stdlibAdd(p, q Point) Point {
	switch {
	case p.IsIdentity():
		return q
	case q.IsIdentity():
		return p
	}
	return pointFromBig(curve.Add(p.bigX(), p.bigY(), q.bigX(), q.bigY()))
}

// TestLadderMatchesStdlib holds the untabled Point.Mul to
// crypto/elliptic's ScalarMult over random and exceptional inputs.
func TestLadderMatchesStdlib(t *testing.T) {
	bases := append(testBases("ladder", 8), Generator().Neg(), Base(NewScalar(2)))
	scalars := ladderEdgeScalars()
	for i := 0; i < 32; i++ {
		scalars = append(scalars, MustRandomScalar())
	}
	for _, p := range bases {
		if p.table() != nil {
			t.Fatalf("%v would not take the ladder", p)
		}
		for _, s := range scalars {
			want := stdlibMul(p, s)
			if got := p.ladder(s); !got.Equal(want) {
				t.Fatalf("%v.ladder(%v) = %v, crypto/elliptic has %v", p, s, got, want)
			}
			if got := p.Mul(s); !got.Equal(want) {
				t.Fatalf("%v.Mul(%v) = %v, crypto/elliptic has %v", p, s, got, want)
			}
		}
	}
}

// TestAddMatchesStdlib holds Add to crypto/elliptic's on random pairs
// and on every exceptional one: an identity on either side or both,
// a point and its inverse, a point and itself.
func TestAddMatchesStdlib(t *testing.T) {
	pts := testBases("add", 12)
	for i, p := range pts {
		for _, q := range pts[i+1:] {
			if got, want := p.Add(q), stdlibAdd(p, q); !got.Equal(want) || !q.Add(p).Equal(want) {
				t.Fatalf("%v + %v = %v, crypto/elliptic has %v", p, q, got, want)
			}
		}
		if got, want := p.Add(p), pointFromBig(curve.Double(p.bigX(), p.bigY())); !got.Equal(want) {
			t.Fatalf("%v doubled = %v, crypto/elliptic has %v", p, got, want)
		}
		if got := p.Add(p.Neg()); !got.IsIdentity() {
			t.Fatalf("%v + its inverse = %v", p, got)
		}
		if !p.Add(Point{}).Equal(p) || !(Point{}).Add(p).Equal(p) {
			t.Fatalf("%v + identity moved", p)
		}
	}
	if got := (Point{}).Add(Point{}); !got.IsIdentity() {
		t.Fatalf("identity + identity = %v", got)
	}
}

// TestLadderMatchesECDH checks the ladder's x-coordinate against
// crypto/ecdh, the stdlib's non-deprecated P-256: the shared secret of
// a private scalar and a public point is x of their product.
func TestLadderMatchesECDH(t *testing.T) {
	for i := 0; i < 32; i++ {
		s, p := MustRandomScalar(), Base(MustRandomScalar())
		priv, err := ecdh.P256().NewPrivateKey(s.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		pub, err := ecdh.P256().NewPublicKey(p.AppendUncompressed([]byte{4}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := priv.ECDH(pub)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.ladder(s).Bytes()[1:]; !bytes.Equal(got, want) {
			t.Fatalf("%v^%v has x = %x, crypto/ecdh has %x", p, s, got, want)
		}
	}
}

// FuzzPointMul is the differential fuzz of the ladder and of Add against
// crypto/elliptic: 32 bytes of scalar, the rest names the base (and,
// hashed again, a second point to add).
func FuzzPointMul(f *testing.F) {
	for _, s := range ladderEdgeScalars() {
		f.Add(append(s.Bytes(), 1))
		f.Add(append(s.Bytes(), s.Bytes()...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 33 {
			return
		}
		s := ScalarFromBig(new(big.Int).SetBytes(data[:32]))
		p := Base(HashToScalar("fuzzpointmul", data[32:]))
		if got, want := p.Mul(s), stdlibMul(p, s); !got.Equal(want) {
			t.Fatalf("%v.Mul(%v) = %v, crypto/elliptic has %v", p, s, got, want)
		}
		for _, q := range []Point{Base(s), p, p.Neg(), p.Mul(s)} {
			if got, want := p.Add(q), stdlibAdd(p, q); !got.Equal(want) {
				t.Fatalf("%v + %v = %v, crypto/elliptic has %v", p, q, got, want)
			}
		}
	})
}
