package group

import (
	"fmt"
	"math/big"
	"testing"
)

// batchMulEdgeScalars are the scalars whose signed odd recoding or
// bucket fold leaves the generic chord path: zero (no digits), even
// values (run as their negation), one and few-bit values (63 equal
// digits, so seven empty buckets), and the neighbours of the group
// order (folds that wrap mod n).
func batchMulEdgeScalars() []Scalar {
	n := Order()
	sub := func(k int64) Scalar { return ScalarFromBig(new(big.Int).Sub(n, big.NewInt(k))) }
	return []Scalar{
		{},
		NewScalar(1), NewScalar(2), NewScalar(3), NewScalar(15), NewScalar(16), NewScalar(17),
		ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), 128)),
		ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), 255)),
		sub(1), sub(2), sub(3), sub(16),
		ScalarFromBig(new(big.Int).Rsh(n, 1)), // (n−1)/2
		// (16⁶⁴−1)/15: every digit is 1, so seven buckets stay empty
		// and the fold adds identities.
		ScalarFromBig(new(big.Int).Div(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)), big.NewInt(15))),
	}
}

// testBases returns n distinct non-identity points derived from tag.
func testBases(tag string, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Base(HashToScalar(tag, []byte{byte(i), byte(i >> 8)}))
	}
	return pts
}

func checkBatchMul(t *testing.T, pts []Point, scalars []Scalar) {
	t.Helper()
	out := BatchMul(pts, scalars...)
	if len(out) != len(scalars) {
		t.Fatalf("BatchMul returned %d rows for %d scalars", len(out), len(scalars))
	}
	for k, s := range scalars {
		if len(out[k]) != len(pts) {
			t.Fatalf("row %d has %d points for %d bases", k, len(out[k]), len(pts))
		}
		for i, p := range pts {
			if want := p.Mul(s); !out[k][i].Equal(want) {
				t.Fatalf("n=%d scalars=%d: out[%d][%d] for %v disagrees with Point.Mul", len(pts), len(scalars), k, i, s)
			}
		}
	}
}

// TestBatchMulMatchesMul pins BatchMul to Point.Mul on both sides of
// the cutover, over every exceptional scalar and with identity and
// duplicate bases in the batch.
func TestBatchMulMatchesMul(t *testing.T) {
	edges := batchMulEdgeScalars()
	random := []Scalar{MustRandomScalar(), MustRandomScalar(), MustRandomScalar()}

	// Sizes: empty, below any cutover, the cutover under three, two and
	// one scalars (n·(4s−3) = batchMulMin: 6, 10 and 50 bases) with its
	// neighbours, and one well past it that is not a round number.
	for _, n := range []int{0, 1, 2, 5, 6, 9, 10, 11, batchMulMin - 1, batchMulMin, batchMulMin + 1, 257} {
		pts := testBases("batchmul/sizes", n)
		for ns := 1; ns <= 3; ns++ {
			checkBatchMul(t, pts, random[:ns])
		}
	}

	// Identity, duplicate and mutually inverse bases interleaved: the
	// lanes are independent, so none may disturb its neighbours. The
	// identities also pull the live count under the two-scalar cutover
	// at 12.
	for _, n := range []int{12, 40} {
		pts := testBases("batchmul/mixed", n)
		pts[0] = Identity()
		pts[5] = pts[4]
		pts[7] = pts[4].Neg()
		pts[9] = Identity()
		pts[n-1] = Identity()
		checkBatchMul(t, pts, random[:2])
		checkBatchMul(t, pts, []Scalar{edges[1], random[0], edges[9]})
	}

	// Every pair of exceptional scalars, plus each beside a random
	// one, through the kernel.
	pts := testBases("batchmul/edges", 13)
	for _, a := range edges {
		checkBatchMul(t, pts, []Scalar{a, random[0]})
		for _, b := range edges {
			checkBatchMul(t, pts, []Scalar{a, b})
		}
	}
	for k := 0; k < 256; k += 7 {
		checkBatchMul(t, pts, []Scalar{ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), uint(k))), random[1]})
	}

	if got := BatchMul(pts); len(got) != 0 {
		t.Fatalf("BatchMul with no scalars returned %d rows", len(got))
	}
}

// TestBatchKernelAdd drives the kernel's addition through each case
// the coefficients select — copy, chord, tangent, cancel, identity
// operand — with both signs, against Point arithmetic.
func TestBatchKernelAdd(t *testing.T) {
	pts := testBases("batchmul/kernel", 5)
	acc := func(c int64) *bmAcc {
		a := &bmAcc{lanes: lanes{make([]fe, len(pts)), make([]fe, len(pts))}, coef: NewScalar(c)}
		for i, p := range pts {
			if q := p.Mul(a.coef); !q.IsIdentity() {
				a.x[i], a.y[i] = q.x, q.y
			}
		}
		return a
	}
	kern := &bmKernel{n: len(pts), den: make([]fe, 0, len(pts)), scratch: make([]fe, len(pts))}
	for _, tc := range []struct {
		dst, src int64
		neg      bool
	}{
		{0, 3, false}, {0, 3, true}, // copy
		{2, 5, false}, {2, 5, true}, // chord
		{3, 3, false}, {3, -3, true}, // tangent
		{3, -3, false}, {3, 3, true}, // cancel
		{4, 0, false}, {0, 0, true}, // identity operand
	} {
		dst, src := acc(tc.dst), acc(tc.src)
		want := tc.dst + tc.src
		if tc.neg {
			want = tc.dst - tc.src
		}
		kern.add(dst, src, tc.neg)
		kern.flush()
		if !dst.coef.Equal(NewScalar(want)) {
			t.Fatalf("%+v: coefficient %v, want %d", tc, dst.coef, want)
		}
		if want == 0 {
			continue
		}
		for i, p := range pts {
			got := affine(dst.x[i], dst.y[i])
			if !got.Equal(p.Mul(NewScalar(want))) {
				t.Fatalf("%+v: lane %d wrong", tc, i)
			}
		}
	}
}

// TestBatchKernelDoubleIdentity checks doubling an identity
// accumulator queues nothing and stays the identity.
func TestBatchKernelDoubleIdentity(t *testing.T) {
	kern := &bmKernel{n: 1}
	var a bmAcc
	kern.double(&a, &a)
	if len(kern.ops) != 0 || !a.coef.IsZero() {
		t.Fatalf("doubling the identity queued %d ops, coefficient %v", len(kern.ops), a.coef)
	}
}

// TestOddDigits checks the recoding the kernel's exactness rests on:
// every digit odd, none beyond ±15, and the digits sum back to the
// scalar.
func TestOddDigits(t *testing.T) {
	scalars := append(batchMulEdgeScalars(), MustRandomScalar(), MustRandomScalar())
	for _, s := range scalars {
		if s.big().Bit(0) == 0 {
			s = s.Neg()
		}
		if s.IsZero() {
			continue
		}
		l := scalarLimbs(s)
		var digits [bmDigits]int8
		oddDigits(&l, &digits)
		sum := new(big.Int)
		for j := bmDigits - 1; j >= 0; j-- {
			d := digits[j]
			if d&1 == 0 || d > 15 || d < -15 {
				t.Fatalf("%v: digit %d is %d", s, j, d)
			}
			sum.Lsh(sum, bmWindow)
			sum.Add(sum, big.NewInt(int64(d)))
		}
		if sum.Cmp(s.big()) != 0 {
			t.Fatalf("%v: digits sum to %v", s, sum)
		}
	}
}

// TestFeBatchInv covers the shared Montgomery trick directly: zeros
// anywhere in the batch stay zero and leave the others exact.
func TestFeBatchInv(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9} {
		for zeroAt := -1; zeroAt < n; zeroAt++ {
			den := make([]fe, n)
			for i := range den {
				den[i] = feFromBig(HashToScalar("febatchinv", []byte{byte(i)}).big())
			}
			if zeroAt >= 0 {
				den[zeroAt] = fe{}
			}
			want := make([]fe, n)
			for i := range den {
				if !den[i].isZero() {
					feInv(&want[i], &den[i])
				}
			}
			feBatchInv(den, make([]fe, n))
			for i := range den {
				if den[i] != want[i] {
					t.Fatalf("n=%d zeroAt=%d: element %d wrong", n, zeroAt, i)
				}
			}
		}
	}
}

// FuzzBatchMul is the differential fuzz of the kernel against
// Point.Mul: the input's first 64 bytes are two scalars, the rest
// pick the bases (a zero byte is the identity, equal bytes are
// duplicate bases). The seeds put every exceptional scalar through
// it.
func FuzzBatchMul(f *testing.F) {
	bases := []byte{1, 2, 3, 0, 3, 250, 251, 252, 9, 8, 7, 6, 5, 4, 11, 12, 13, 14, 15, 16}
	random := HashToScalar("fuzzbatchmul/seed").Bytes()
	for _, s := range batchMulEdgeScalars() {
		f.Add(append(append(s.Bytes(), random...), bases...))
		f.Add(append(append(random, s.Bytes()...), bases...))
		f.Add(append(append(s.Bytes(), s.Bytes()...), bases...))
	}
	f.Add(Order().FillBytes(make([]byte, 64))) // short: no bases at all
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		if len(data) > 64+48 {
			data = data[:64+48]
		}
		scalars := []Scalar{
			ScalarFromBig(new(big.Int).SetBytes(data[:32])),
			ScalarFromBig(new(big.Int).SetBytes(data[32:64])),
		}
		pts := make([]Point, len(data)-64)
		for i, b := range data[64:] {
			if b != 0 {
				pts[i] = Base(HashToScalar("fuzzbatchmul", []byte{b}))
			}
		}
		out := BatchMul(pts, scalars...)
		for k, s := range scalars {
			for i, p := range pts {
				if !out[k][i].Equal(p.Mul(s)) {
					t.Fatalf("out[%d][%d] disagrees with Point.Mul", k, i)
				}
			}
		}
	})
}

// BenchmarkBatchMul reports the per-base cost of raising a batch to
// one and to two shared scalars; BenchmarkPointMul is the per-base,
// per-scalar cost it replaces. x1 is the inner-layer opening's shape
// and x2 a hop's; both run the kernel at these sizes (see batchMulMin).
func BenchmarkBatchMul(b *testing.B) {
	scalars := []Scalar{MustRandomScalar(), MustRandomScalar()}
	for _, n := range []int{128, 512, 2048} {
		pts := testBases("benchbatchmul", n)
		for ns := 1; ns <= 2; ns++ {
			b.Run(fmt.Sprintf("%dx%d", n, ns), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					BatchMul(pts, scalars[:ns]...)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "us/base")
			})
		}
	}
}
