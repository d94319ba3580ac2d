package group

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// stdlibMul is the reference every table test compares against:
// crypto/elliptic's ScalarMult on the bare coordinates, whatever table
// the Point carries.
func stdlibMul(p Point, s Scalar) Point {
	if p.IsIdentity() || s.IsZero() {
		return Point{}
	}
	x, y := curve.ScalarMult(p.x, p.y, s.Bytes())
	return Point{x: x, y: y}
}

// keyEdgeScalars are the 4-bit-walk edges on top of edgeScalars: every
// digit at the signed boundary (nibble 8 stays +8, the largest table
// entry, with no carry), every nibble 15 (each digit recodes to −1 and
// carries into the next, through the top window), and the
// smallest/largest values straddling a row and a group boundary.
func keyEdgeScalars() []Scalar {
	rep := func(b byte) Scalar { return ScalarFromBig(new(big.Int).SetBytes(bytes.Repeat([]byte{b}, 32))) }
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), k) }
	out := append(edgeScalars(),
		rep(0x88), rep(0xFF), rep(0x99), rep(0x77),
		ScalarFromBig(pow(16)), ScalarFromBig(pow(4)), ScalarFromBig(pow(252)),
		ScalarFromBig(new(big.Int).Sub(pow(16), big.NewInt(1))),
		ScalarFromBig(new(big.Int).Sub(Order(), big.NewInt(2))),
	)
	return out
}

// TestPrecomputedMulMatchesStdlib pins the fixed-key walk against
// crypto/elliptic over random keys and scalars and the recoding edges,
// and checks that precomputing changes nothing else about the point.
func TestPrecomputedMulMatchesStdlib(t *testing.T) {
	for k := 0; k < 4; k++ {
		bare := Base(MustRandomScalar())
		p := bare.Precomputed()
		if !p.Equal(bare) || !bytes.Equal(p.Bytes(), bare.Bytes()) {
			t.Fatal("Precomputed changed the element")
		}
		if bare.tab != nil || p.tab == nil || p.Precomputed().tab != p.tab {
			t.Fatal("Precomputed must set the table on the copy only, once")
		}
		var decoded Point
		if err := decoded.UnmarshalBinary(p.Bytes()); err != nil || decoded.tab != nil || !decoded.Equal(p) {
			t.Fatalf("a precomputed point must decode bare and equal (err %v)", err)
		}
		scalars := keyEdgeScalars()
		for i := 0; i < 100; i++ {
			scalars = append(scalars, MustRandomScalar())
		}
		for _, s := range scalars {
			if got, want := p.Mul(s), stdlibMul(bare, s); !got.Equal(want) {
				t.Fatalf("Precomputed().Mul(%x) = %v, want %v", s.Bytes(), got, want)
			}
			if DH(p, s) != DH(bare, s) {
				t.Fatalf("DH over a precomputed key differs for %x", s.Bytes())
			}
		}
	}
	if id := Identity().Precomputed(); !id.IsIdentity() || id.tab != nil || !id.Mul(NewScalar(5)).IsIdentity() {
		t.Fatal("the identity precomputes to itself")
	}
	// The generator keeps its own (wide) table however it is dressed.
	g := Generator().Precomputed()
	s := MustRandomScalar()
	if !g.Mul(s).Equal(Base(s)) || g.tab.entries != nil {
		t.Fatal("a precomputed generator must run on the generator's table")
	}
}

// TestKeyTableExceptionalPaths drives the walker's accumulator-equals-
// entry (doubling) and accumulator-equals-minus-entry (cancel)
// branches on a key table. As with the generator's sweep
// (TestBatchBaseAffineExceptionalPaths) no canonical recoding reaches
// them — every partial sum is smaller in magnitude than the next
// entry's weight — so the digit vector is synthetic: e = 2^256 mod n
// recodes into rows 0..15, and adding row 16's entry 1·2^256·P on top
// makes the last addition P^e + P^e.
func TestKeyTableExceptionalPaths(t *testing.T) {
	p := Base(MustRandomScalar()).Precomputed()
	p.tab.ensure(p)
	e := new(big.Int).Lsh(big.NewInt(1), 256)
	e.Mod(e, order)
	var buf [maxDigits]int16
	digits := append([]int16(nil), p.tab.recode(ScalarFromBig(e), &buf)...)
	if digits[64] != 0 {
		t.Fatal("2^256 mod n should leave row 16 free")
	}
	double := append([]int16(nil), digits...)
	double[64] = 1
	var acc jacPoint
	p.tab.walk(&acc, double)
	twoE := ScalarFromBig(new(big.Int).Lsh(e, 1))
	if got, want := acc.toPoint(), stdlibMul(p, twoE); !got.Equal(want) {
		t.Fatalf("doubling walk = %v, want %v", got, want)
	}
	cancel := make([]int16, len(digits))
	for i, d := range digits {
		cancel[i] = -d
	}
	cancel[64] = 1
	acc.setIdentity()
	p.tab.walk(&acc, cancel)
	if !acc.isIdentity() {
		t.Fatalf("cancelling walk = %v, want identity", acc.toPoint())
	}
}

// TestBatchDHMatchesDH checks the batched helper against separate DH
// calls on bare points: precomputed and bare keys mixed, an identity
// base, a zero scalar, the generator, a run under one scalar followed
// by another scalar, and the empty batch.
func TestBatchDHMatchesDH(t *testing.T) {
	if got := BatchDH(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d secrets", len(got))
	}
	x, y := MustRandomScalar(), MustRandomScalar()
	var bare, pubs []Point
	var privs []Scalar
	add := func(p Point, pre bool, s Scalar) {
		bare = append(bare, p)
		if pre {
			p = p.Precomputed()
		}
		pubs = append(pubs, p)
		privs = append(privs, s)
	}
	add(Base(MustRandomScalar()), true, y)
	for i := 0; i < 6; i++ {
		add(Base(MustRandomScalar()), i != 3, x) // one bare key mid-run
	}
	add(Identity(), true, x)
	add(Base(MustRandomScalar()), true, Scalar{})
	add(Generator(), false, x)
	add(Base(MustRandomScalar()), true, ScalarFromBig(x.big())) // equal value, different Scalar
	add(Base(MustRandomScalar()), true, y)
	got := BatchDH(pubs, privs)
	for i := range bare {
		if want := SharedSecret(stdlibMul(bare[i], privs[i])); got[i] != want {
			t.Fatalf("BatchDH[%d] differs from DH on the bare point", i)
		}
	}
	// All-bare batches take the stdlib path throughout.
	for i, sec := range BatchDH(bare[:3], privs[:3]) {
		if sec != got[i] {
			t.Fatalf("bare BatchDH[%d] differs", i)
		}
	}
}

// TestPrecomputedConcurrentFirstUse has 64 goroutines race to be a
// key's first multiplier (run under -race): one table, equal answers.
func TestPrecomputedConcurrentFirstUse(t *testing.T) {
	p := Base(MustRandomScalar()).Precomputed()
	s := MustRandomScalar()
	want := stdlibMul(p, s)
	tables := make([]*affinePoint, 64)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int, q Point) { // each goroutine holds its own copy
			defer wg.Done()
			if got := q.Mul(s); !got.Equal(want) {
				t.Errorf("goroutine %d: wrong product", i)
			}
			tables[i] = &q.tab.entries[0]
		}(i, p)
	}
	wg.Wait()
	for i, e := range tables {
		if e != tables[0] {
			t.Fatalf("goroutine %d saw a different table", i)
		}
	}
	if n := len(p.tab.entries) * 64; n > 9<<10 {
		t.Fatalf("a key table is %d bytes, over the 9 KB budget", n)
	}
}

// FuzzPrecomputedMul cross-checks the fixed-key walk and BatchDH
// against crypto/elliptic for arbitrary key and scalar material.
func FuzzPrecomputedMul(f *testing.F) {
	for i, s := range keyEdgeScalars() {
		f.Add(NewScalar(int64(i+1)).Bytes(), s.Bytes())
	}
	f.Add(make([]byte, 32), NewScalar(7).Bytes()) // identity key
	f.Fuzz(func(t *testing.T, key, scalar []byte) {
		if len(key) > 32 {
			key = key[:32]
		}
		if len(scalar) > 32 {
			scalar = scalar[:32]
		}
		bare := Base(ScalarFromBig(new(big.Int).SetBytes(key)))
		s := ScalarFromBig(new(big.Int).SetBytes(scalar))
		p := bare.Precomputed()
		want := stdlibMul(bare, s)
		if got := p.Mul(s); !got.Equal(want) {
			t.Fatalf("Precomputed().Mul = %v, want %v", got, want)
		}
		secrets := BatchDH([]Point{p, bare, p}, []Scalar{s, s, s})
		for i, sec := range secrets {
			if sec != SharedSecret(want) {
				t.Fatalf("BatchDH[%d] disagrees with the stdlib", i)
			}
		}
	})
}

// BenchmarkPrecomputedMul is the fixed-key record: stdlib is what a
// bare point pays per exponentiation, walk what a built table pays,
// build the one-off cost the first multiplier adds, and batch7 one key
// of a 7-key BatchDH (an onion at k = 6), hash and shared inversion
// included.
func BenchmarkPrecomputedMul(b *testing.B) {
	bare := Base(MustRandomScalar())
	s, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bare.Mul(s)
		}
	})
	b.Run("walk", func(b *testing.B) {
		p := bare.Precomputed()
		p.Mul(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Mul(s)
		}
	})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := bare.Precomputed()
			p.tab.ensure(p)
		}
	})
	b.Run("batch7", func(b *testing.B) {
		pubs := make([]Point, 7)
		privs := make([]Scalar, 7)
		for i := range pubs {
			pubs[i] = Base(MustRandomScalar()).Precomputed()
			privs[i] = s
		}
		BatchDH(pubs, privs)
		b.ResetTimer()
		for i := 0; i < b.N; i += len(pubs) {
			BatchDH(pubs, privs)
		}
	})
}
