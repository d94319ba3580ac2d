//lint:file-ignore SA1019 crypto/elliptic's deprecated methods are the reference these tests compare against

package group

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// edgeScalars are the fixed-base edge cases every parity test and
// fuzz corpus includes: zero, one, two, order−1 (≡ −1, exercising
// negative digits everywhere), and values straddling window
// boundaries.
func edgeScalars() []Scalar {
	ords := Order()
	return []Scalar{
		{}, // zero
		NewScalar(1),
		NewScalar(2),
		NewScalar(4096), // exactly the largest window digit
		NewScalar(4097), // forces a signed-recoding carry
		ScalarFromBig(new(big.Int).Sub(ords, big.NewInt(1))), // order−1
		ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), 255)),
		ScalarFromBig(new(big.Int).Sub(ords, big.NewInt(4096))),
	}
}

// TestFixedBaseMatchesCurve pins the precomputed fixed-base path
// against crypto/elliptic's ScalarBaseMult over random scalars and
// the edge cases.
func TestFixedBaseMatchesCurve(t *testing.T) {
	check := func(s Scalar) {
		t.Helper()
		got := Base(s)
		if s.IsZero() {
			if !got.IsIdentity() {
				t.Fatalf("Base(0) = %v, want identity", got)
			}
			return
		}
		wx, wy := curve.ScalarBaseMult(s.Bytes())
		if got.IsIdentity() || got.bigX().Cmp(wx) != 0 || got.bigY().Cmp(wy) != 0 {
			t.Fatalf("Base(%v) disagrees with curve.ScalarBaseMult", s)
		}
	}
	for _, s := range edgeScalars() {
		check(s)
	}
	for i := 0; i < 200; i++ {
		s, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		check(s)
	}
}

// TestBatchBaseMatchesBase covers both BatchBase strategies (Jacobian
// accumulation below fbBatchMin, the all-affine window sweep above)
// against single-scalar Base, with zero scalars mid-batch.
func TestBatchBaseMatchesBase(t *testing.T) {
	for _, n := range []int{1, 2, fbBatchMin - 1, fbBatchMin, 64} {
		scalars := make([]Scalar, n)
		for i := range scalars {
			s, err := RandomScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			scalars[i] = s
		}
		if n >= fbBatchMin {
			// Cover the edge cases (including zero) on the affine sweep.
			copy(scalars, edgeScalars())
		}
		if n > 2 {
			scalars[n/2] = Scalar{} // zero mid-batch
		}
		got := BatchBase(scalars)
		if len(got) != n {
			t.Fatalf("n=%d: BatchBase returned %d points", n, len(got))
		}
		for i, s := range scalars {
			if want := Base(s); !got[i].Equal(want) {
				t.Fatalf("n=%d: BatchBase[%d] = %v, want %v", n, i, got[i], want)
			}
		}
	}
}

// TestBatchToAffineMatchesToPoint compares the batched conversion
// against per-point toPoint over points with non-trivial Z, including
// identity points mid-batch.
func TestBatchToAffineMatchesToPoint(t *testing.T) {
	g := Generator().affinePoint
	js := make([]jacPoint, 33)
	for i := range js {
		switch i % 5 {
		case 0: // identity mid-batch
		default:
			js[i].fromAffine(&g, i%2 == 0)
			for k := 0; k < i; k++ {
				js[i].double() // Z ≠ 1
			}
			if i%3 == 0 {
				js[i].addAffine(&g, false)
			}
		}
	}
	got := BatchToAffine(js)
	for i := range js {
		want := js[i].toPoint()
		if !got[i].Equal(want) {
			t.Fatalf("BatchToAffine[%d] = %v, want %v", i, got[i], want)
		}
	}
	if len(BatchToAffine(nil)) != 0 {
		t.Fatal("BatchToAffine(nil) should be empty")
	}
	all := BatchToAffine(make([]jacPoint, 4)) // all identities
	for i, p := range all {
		if !p.IsIdentity() {
			t.Fatalf("all-identity batch: [%d] = %v", i, p)
		}
	}
}

// TestBatchBaseAffineExceptionalPaths drives the tangent (doubling)
// and chord-cancellation (P + (−P)) branches of the affine window
// sweep. Canonical scalar recodings can never reach them — a window
// entry k·2^(13j)·g only collides with a partial sum via wraparound
// mod the group order — so the test builds synthetic digit vectors:
// it finds a high-window entry whose residue e = k·2^260 mod order
// recodes into the low windows, encodes e there, and then adds the
// window-20 entry itself, forcing acc == entry.
func TestBatchBaseAffineExceptionalPaths(t *testing.T) {
	const fbWindows = 21
	if genShape.digits() != fbWindows {
		t.Fatalf("generator shape has %d digits, test assumes %d", genShape.digits(), fbWindows)
	}
	ords := Order()
	shift := new(big.Int).Lsh(big.NewInt(1), 13*20) // window-20 base 2^260
	var kHit int
	var digits []int16
	for k := 1; k <= 100; k++ {
		e := new(big.Int).Mul(big.NewInt(int64(k)), shift)
		e.Mod(e, ords)
		l := scalarLimbs(ScalarFromBig(e))
		d := make([]int16, fbWindows)
		signedDigits(&l, genShape.window, fbWindows, d)
		if d[20] == 0 { // e fits in windows 0..19: window 20 is free
			kHit, digits = k, d
			break
		}
	}
	if digits == nil {
		t.Fatal("no window-20 residue recodes into 20 windows")
	}
	e := new(big.Int).Mul(big.NewInt(int64(kHit)), shift)
	e.Mod(e, ords)

	// Lane 0 (tangent): digits of e plus the window-20 entry k —
	// the accumulator equals the entry, so the sweep must double.
	tangent := append([]int16(nil), digits...)
	tangent[20] = int16(kHit)
	// Lane 1 (cancel): digits of −e plus the same entry — the sum is
	// the identity.
	cancel := make([]int16, fbWindows)
	for i, d := range digits {
		cancel[i] = -d
	}
	cancel[20] = int16(kHit)

	genTable.ensure(genPoint)
	all := append(append([]int16(nil), tangent...), cancel...)
	got := batchBaseAffine(all, 2)

	twoE := new(big.Int).Lsh(e, 1)
	twoE.Mod(twoE, ords)
	if want := Base(ScalarFromBig(twoE)); !got[0].Equal(want) {
		t.Fatalf("tangent lane = %v, want g^2e = %v", got[0], want)
	}
	if !got[1].IsIdentity() {
		t.Fatalf("cancel lane = %v, want identity", got[1])
	}
}

// TestProductMatchesAdd pins the Jacobian-accumulated Product against
// the pairwise Add chain, including identities and cancelling pairs.
func TestProductMatchesAdd(t *testing.T) {
	var pts []Point
	for i := 0; i < 9; i++ {
		s, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, Base(s))
	}
	pts = append(pts, Point{}, pts[0].Neg(), pts[1], Point{})
	want := Point{}
	for _, p := range pts {
		want = want.Add(p)
	}
	if got := Product(pts); !got.Equal(want) {
		t.Fatalf("Product = %v, want %v", got, want)
	}
	if !Product(nil).IsIdentity() {
		t.Fatal("empty Product should be identity")
	}
	if !Product([]Point{pts[0], pts[0].Neg()}).IsIdentity() {
		t.Fatal("cancelling Product should be identity")
	}
}

// TestMulGeneratorFastPath checks the generator special case of Mul
// against the generic path.
func TestMulGeneratorFastPath(t *testing.T) {
	g := Generator()
	for i := 0; i < 20; i++ {
		s, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		wx, wy := curve.ScalarMult(curve.Params().Gx, curve.Params().Gy, s.Bytes())
		got := g.Mul(s)
		if got.bigX().Cmp(wx) != 0 || got.bigY().Cmp(wy) != 0 {
			t.Fatalf("g.Mul(%v) disagrees with curve.ScalarMult", s)
		}
	}
}

// FuzzScalarBaseMult cross-checks Base and both BatchBase strategies
// against crypto/elliptic for arbitrary 32-byte scalar material.
func FuzzScalarBaseMult(f *testing.F) {
	f.Add(make([]byte, 32)) // zero scalar → identity
	one := make([]byte, 32)
	one[31] = 1
	f.Add(one)
	f.Add(Order().Bytes()) // ≡ 0 after reduction
	om1 := new(big.Int).Sub(Order(), big.NewInt(1))
	f.Add(om1.FillBytes(make([]byte, 32))) // order−1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 32 {
			data = data[:32]
		}
		s := ScalarFromBig(new(big.Int).SetBytes(data))
		got := Base(s)
		if s.IsZero() {
			if !got.IsIdentity() {
				t.Fatal("Base of zero scalar is not identity")
			}
		} else {
			wx, wy := curve.ScalarBaseMult(s.Bytes())
			if got.IsIdentity() || got.bigX().Cmp(wx) != 0 || got.bigY().Cmp(wy) != 0 {
				t.Fatal("Base disagrees with curve.ScalarBaseMult")
			}
		}
		// Both batch strategies must agree: n=2 runs Jacobian
		// accumulation, n=fbBatchMin runs the affine sweep.
		small := BatchBase([]Scalar{s, s})
		batch := make([]Scalar, fbBatchMin)
		for i := range batch {
			batch[i] = s
		}
		large := BatchBase(batch)
		if !small[0].Equal(got) || !small[1].Equal(got) || !large[0].Equal(got) || !large[fbBatchMin-1].Equal(got) {
			t.Fatal("BatchBase disagrees with Base")
		}
	})
}

// FuzzBatchToAffine builds Jacobian points (with identities and
// non-trivial Z) from fuzz input and cross-checks the batched
// conversion against per-point toPoint.
func FuzzBatchToAffine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 0, 255})
	om1 := new(big.Int).Sub(Order(), big.NewInt(1))
	f.Add(append([]byte{7}, om1.Bytes()[:4]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		g := Generator().affinePoint
		js := make([]jacPoint, len(data))
		for i, b := range data {
			if b%7 == 0 {
				continue // identity
			}
			js[i].fromAffine(&g, b%2 == 0)
			for k := 0; k < int(b%5); k++ {
				js[i].double()
			}
			if b%3 == 0 {
				js[i].addAffine(&g, false)
			}
		}
		got := BatchToAffine(js)
		for i := range js {
			if want := js[i].toPoint(); !got[i].Equal(want) {
				t.Fatalf("BatchToAffine[%d] disagrees with toPoint", i)
			}
		}
	})
}

// BenchmarkFixedBase is the before/after record for the tentpole:
// stdlib is the crypto/elliptic path Base used to take, precomp the
// table-driven single-scalar path, batch1024 the amortized batch path
// (ns/op is per point: each iteration accounts for one point of a
// 1024-point batch).
func BenchmarkFixedBase(b *testing.B) {
	s, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			curve.ScalarBaseMult(s.Bytes())
		}
	})
	b.Run("precomp", func(b *testing.B) {
		genTable.ensure(genPoint)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Base(s)
		}
	})
	b.Run("batch1024", func(b *testing.B) {
		const n = 1024
		scalars := make([]Scalar, n)
		for i := range scalars {
			scalars[i] = MustRandomScalar()
		}
		genTable.ensure(genPoint)
		b.ResetTimer()
		for i := 0; i < b.N; i += n {
			BatchBase(scalars)
		}
	})
}

// BenchmarkBatchToAffine is the before/after record for batch
// normalization at n=1024: perpoint pays one inversion per point,
// batch one inversion for all (ns/op is per point in both).
func BenchmarkBatchToAffine(b *testing.B) {
	const n = 1024
	g := Generator().affinePoint
	js := make([]jacPoint, n)
	js[0].fromAffine(&g, false)
	js[0].double()
	for i := 1; i < n; i++ {
		js[i] = js[i-1]
		js[i].addAffine(&g, false)
	}
	b.Run("perpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			js[i%n].toPoint()
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i += n {
			BatchToAffine(js)
		}
	})
}
