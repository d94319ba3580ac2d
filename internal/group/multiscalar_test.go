package group

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// naiveProduct is the reference the MSM is tested against.
func naiveProduct(points []Point, scalars []Scalar) Point {
	acc := Point{}
	for i := range points {
		acc = acc.Add(points[i].Mul(scalars[i]))
	}
	return acc
}

func randFe(t *testing.T) (*big.Int, fe) {
	t.Helper()
	v, err := rand.Int(rand.Reader, curve.Params().P)
	if err != nil {
		t.Fatal(err)
	}
	return v, feFromBig(v)
}

func TestFieldOpsMatchBigInt(t *testing.T) {
	p := curve.Params().P
	for i := 0; i < 200; i++ {
		a, fa := randFe(t)
		b, fb := randFe(t)

		var got fe
		feMul(&got, &fa, &fb)
		want := new(big.Int).Mul(a, b)
		want.Mod(want, p)
		if got.toBig().Cmp(want) != 0 {
			t.Fatalf("feMul mismatch: %v * %v", a, b)
		}

		feSqr(&got, &fa)
		want.Mul(a, a).Mod(want, p)
		if got.toBig().Cmp(want) != 0 {
			t.Fatalf("feSqr mismatch: %v", a)
		}

		feAdd(&got, &fa, &fb)
		want.Add(a, b).Mod(want, p)
		if got.toBig().Cmp(want) != 0 {
			t.Fatalf("feAdd mismatch: %v + %v", a, b)
		}

		feSub(&got, &fa, &fb)
		want.Sub(a, b).Mod(want, p)
		if got.toBig().Cmp(want) != 0 {
			t.Fatalf("feSub mismatch: %v - %v", a, b)
		}

		feNeg(&got, &fa)
		want.Neg(a).Mod(want, p)
		if got.toBig().Cmp(want) != 0 {
			t.Fatalf("feNeg mismatch: %v", a)
		}
	}
}

func TestFieldOpsEdgeValues(t *testing.T) {
	p := curve.Params().P
	edges := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
	}
	for _, a := range edges {
		for _, b := range edges {
			fa, fb := feFromBig(a), feFromBig(b)
			var got fe
			feMul(&got, &fa, &fb)
			want := new(big.Int).Mul(a, b)
			want.Mod(want, p)
			if got.toBig().Cmp(want) != 0 {
				t.Fatalf("feMul(%v, %v) mismatch", a, b)
			}
			feSub(&got, &fa, &fb)
			want.Sub(a, b).Mod(want, p)
			if got.toBig().Cmp(want) != 0 {
				t.Fatalf("feSub(%v, %v) mismatch", a, b)
			}
		}
		fa := feFromBig(a)
		var got fe
		feSqr(&got, &fa)
		want := new(big.Int).Mul(a, a)
		want.Mod(want, p)
		if got.toBig().Cmp(want) != 0 {
			t.Fatalf("feSqr(%v) mismatch", a)
		}
	}
}

func TestJacobianMatchesCurve(t *testing.T) {
	for i := 0; i < 50; i++ {
		p1 := Base(MustRandomScalar())
		p2 := Base(MustRandomScalar())

		a1, a2 := p1.affinePoint, p2.affinePoint
		var j1 jacPoint
		j1.fromAffine(&a1, false)

		// Doubling.
		d := j1
		d.double()
		if !d.toPoint().Equal(p1.Add(p1)) {
			t.Fatal("jacobian double mismatch")
		}
		// Mixed addition.
		s := j1
		s.addAffine(&a2, false)
		if !s.toPoint().Equal(p1.Add(p2)) {
			t.Fatal("jacobian mixed add mismatch")
		}
		// Mixed addition of a negation.
		s = j1
		s.addAffine(&a2, true)
		if !s.toPoint().Equal(p1.Add(p2.Neg())) {
			t.Fatal("jacobian mixed add (negated) mismatch")
		}
		// Full addition.
		var j2 jacPoint
		j2.fromAffine(&a2, false)
		f := j1
		f.add(&j2)
		if !f.toPoint().Equal(p1.Add(p2)) {
			t.Fatal("jacobian full add mismatch")
		}
		// Exceptional cases: P + P (add must fall through to
		// doubling) and P + (−P) (must fold to the identity).
		f = j1
		f.add(&j1)
		if !f.toPoint().Equal(p1.Add(p1)) {
			t.Fatal("jacobian add of equal points mismatch")
		}
		f = j1
		f.addAffine(&a1, true)
		if !f.toPoint().IsIdentity() {
			t.Fatal("P + (−P) is not the identity")
		}
	}
}

// TestDigitWindowsExact holds digitWindows to what signedDigits fills.
// Recoded into one digit more than the count, a value of at most
// maxBits bits leaves that digit zero and the counted digits rebuild
// it; the largest such value needs the top counted digit, so no
// smaller count would do. All values up to 13 bits are checked at
// every width 2..13, and the 256-bit edges a scalar reaches (n − 1,
// 2^255, 2^256 mod n) plus 2^256 − 1, the widest four limbs.
func TestDigitWindowsExact(t *testing.T) {
	check := func(v *big.Int, maxBits, w int) (top int16) {
		t.Helper()
		var b [ScalarSize]byte
		l := limbsFromBytes(v.FillBytes(b[:]))
		nd := digitWindows(maxBits, w)
		d := make([]int16, nd+1)
		signedDigits(&l, w, nd+1, d)
		if d[nd] != 0 {
			t.Fatalf("%d bits, w = %d: %v recodes past the %d counted digits", maxBits, w, v, nd)
		}
		sum := new(big.Int)
		for j := nd - 1; j >= 0; j-- {
			sum.Lsh(sum, uint(w)).Add(sum, big.NewInt(int64(d[j])))
		}
		if sum.Cmp(v) != 0 {
			t.Fatalf("%d bits, w = %d: the digits of %v rebuild %v", maxBits, w, v, sum)
		}
		return d[nd-1]
	}
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), k) }
	edges := []*big.Int{
		new(big.Int).Sub(Order(), big.NewInt(1)),
		pow(255),
		new(big.Int).Mod(pow(256), Order()),
		new(big.Int).Sub(pow(256), big.NewInt(1)),
	}
	for w := 2; w <= 13; w++ {
		for maxBits := 1; maxBits <= 13; maxBits++ {
			for v := int64(0); v < 1<<maxBits; v++ {
				if top := check(big.NewInt(v), maxBits, w); v == 1<<maxBits-1 && top == 0 {
					t.Fatalf("%d bits, w = %d: %d digits, one more than %d needs", maxBits, w, digitWindows(maxBits, w), v)
				}
			}
		}
		for i, v := range edges {
			if top := check(v, 256, w); i == len(edges)-1 && top == 0 {
				t.Fatalf("w = %d: 2^256 − 1 leaves the top of %d digits zero", w, digitWindows(256, w))
			}
		}
	}
}

// TestMultiScalarMultMatchesNaive pins the MSM against the naive
// product across its code paths (one point's Mul, Straus, Pippenger)
// and the window-count boundaries.
func TestMultiScalarMultMatchesNaive(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 8, 31, 32, 33, 79, 80, 81, 100, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			points := make([]Point, n)
			scalars := make([]Scalar, n)
			for i := range points {
				points[i] = Base(MustRandomScalar())
				scalars[i] = MustRandomScalar()
			}
			got := MultiScalarMult(points, scalars)
			if want := naiveProduct(points, scalars); !got.Equal(want) {
				t.Fatalf("MSM(%d) != naive product", n)
			}
		})
	}
}

// TestMultiScalarMultDegenerateInputs covers identity points, zero
// scalars, duplicate points, cancelling pairs and extreme scalars —
// the MSM must treat them exactly like the naive product, because
// batch inputs are attacker-controlled.
func TestMultiScalarMultDegenerateInputs(t *testing.T) {
	g := Generator()
	p := Base(MustRandomScalar())
	orderMinus1 := ScalarFromBig(new(big.Int).Sub(Order(), big.NewInt(1)))

	build := func(points []Point, scalars []Scalar) {
		t.Helper()
		got := MultiScalarMult(points, scalars)
		if want := naiveProduct(points, scalars); !got.Equal(want) {
			t.Fatalf("MSM != naive for points=%v scalars=%v", points, scalars)
		}
	}

	// Identity points and zero scalars sprinkled in.
	build(
		[]Point{g, Identity(), p, g},
		[]Scalar{MustRandomScalar(), MustRandomScalar(), NewScalar(0), MustRandomScalar()},
	)
	// All contributions vanish.
	build([]Point{Identity(), p}, []Scalar{MustRandomScalar(), NewScalar(0)})
	// The same point many times (forces repeated bucket hits, the
	// add-equal-points path).
	many := make([]Point, 96)
	sc := make([]Scalar, 96)
	for i := range many {
		many[i] = p
		sc[i] = NewScalar(int64(i%5) + 1)
	}
	build(many, sc)
	// Cancelling pair: x·P + (q−x)·P = identity.
	x := MustRandomScalar()
	negX := ScalarFromBig(new(big.Int).Sub(Order(), x.big()))
	build([]Point{p, p, g, g, g, g}, []Scalar{x, negX, NewScalar(1), NewScalar(2), NewScalar(3), NewScalar(4)})
	// The two-term products a DLEQ verifier runs: the same base twice,
	// a base and its inverse, and a pair that cancels.
	build([]Point{p, p}, []Scalar{x, MustRandomScalar()})
	build([]Point{p, p.Neg()}, []Scalar{x, MustRandomScalar()})
	build([]Point{p, p}, []Scalar{x, negX})
	build([]Point{p, p.Neg()}, []Scalar{x, x})
	// Extreme scalars: 1 and q−1 across both algorithms.
	for _, n := range []int{8, 96} {
		pts := make([]Point, n)
		scs := make([]Scalar, n)
		for i := range pts {
			pts[i] = Base(MustRandomScalar())
			if i%2 == 0 {
				scs[i] = NewScalar(1)
			} else {
				scs[i] = orderMinus1
			}
		}
		build(pts, scs)
	}
}

func TestMultiScalarMultLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MultiScalarMult(make([]Point, 2), make([]Scalar, 3))
}

func BenchmarkMultiScalarMult(b *testing.B) {
	for _, n := range []int{16, 256, 2048, 8192} {
		points := make([]Point, n)
		scalars := make([]Scalar, n)
		for i := range points {
			points[i] = Base(MustRandomScalar())
			scalars[i] = MustRandomScalar()
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MultiScalarMult(points, scalars)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
		})
	}
}

func BenchmarkFeMul(b *testing.B) {
	v, _ := rand.Int(rand.Reader, curve.Params().P)
	x := feFromBig(v)
	var z fe
	for i := 0; i < b.N; i++ {
		feMul(&z, &x, &x)
	}
}

// TestMultiScalarMultLargeKnownDlog validates the larger Pippenger
// window widths, which a naive-product reference would be too slow
// to cover: with points of known discrete log kᵢ, the expected
// product Π (g^kᵢ)^aᵢ is just g^(Σ aᵢ·kᵢ) — one base multiplication.
func TestMultiScalarMultLargeKnownDlog(t *testing.T) {
	sizes := []int{600, 2500}
	if !testing.Short() {
		sizes = append(sizes, 8300)
	}
	for _, n := range sizes {
		points := make([]Point, n)
		scalars := make([]Scalar, n)
		sum := NewScalar(0)
		for i := range points {
			k := MustRandomScalar()
			points[i] = Base(k)
			scalars[i] = MustRandomScalar()
			sum = sum.Add(k.Mul(scalars[i]))
		}
		got := MultiScalarMult(points, scalars)
		if !got.Equal(Base(sum)) {
			t.Fatalf("MSM(%d) != g^(sum of known dlogs)", n)
		}
	}
}
