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

// TestBatchMulBucketEdges runs the scalars at every edge of the bucket
// bookkeeping: 16ʲ and its neighbours for every window j. 16ʲ−1
// recodes to one digit 15 under a run of 1s or of −1s, so one bucket
// fills window after window while six never fill and the fold meets
// copies, tangents and cancellations; the even ones run as n−s, whose
// digits wrap around the order.
func TestBatchMulBucketEdges(t *testing.T) {
	pts := testBases("batchmul/edges", batchMulMin/5+1)
	one := big.NewInt(1)
	for j := 0; j < bmDigits; j++ {
		p := new(big.Int).Lsh(one, uint(bmWindow*j))
		checkBatchMul(t, pts, []Scalar{ScalarFromBig(p), ScalarFromBig(new(big.Int).Sub(p, one))})
		checkBatchMul(t, pts, []Scalar{ScalarFromBig(new(big.Int).Add(p, one)), ScalarFromBig(new(big.Int).Sub(Order(), p))})
	}
}

// TestBatchMulCost pins what a kernel run pays beyond field
// multiplications: 261 true inversions and one per non-zero scalar,
// whatever the batch size, and no heap object that is not one of
// feInv's — the coefficients and the step lists never leave the stack
// or the slab, so the count is feInv's 15 per inversion and a constant.
func TestBatchMulCost(t *testing.T) {
	scalars := []Scalar{HashToScalar("cost", []byte{1}), {}, HashToScalar("cost", []byte{2})}
	x, z := Generator().x, fe{}
	perInv := testing.AllocsPerRun(10, func() { feInv(&z, &x) })
	for _, n := range []int{64, 512} {
		pts := testBases("batchmul/cost", n)
		live := make([]int, n)
		for i := range live {
			live[i] = i
		}
		out := [][]Point{make([]Point, n), make([]Point, n), make([]Point, n)}
		for ns, want := range []int{0: 0, 1: 262, 2: 262, 3: 263} {
			if got := batchMulKernel(pts, live, scalars[:ns], out); got != want {
				t.Fatalf("%d bases, %d scalars: %d true inversions, want %d", n, ns, got, want)
			}
		}
		allocs := testing.AllocsPerRun(3, func() { BatchMul(pts, scalars...) })
		// One more per inversion than measured: big.Int's count moves
		// by one with the operand. The kernel before this one, which
		// kept its coefficients in big.Ints, made ≈ 5 per inversion more.
		if most := 263*(perInv+1) + 16; allocs > most {
			t.Fatalf("BatchMul of %d×3 allocates %v objects, feInv %v each: want at most %v", n, allocs, perInv, most)
		}
	}
}

// testAcc returns an accumulator holding c·P for every base, with a
// kernel whose chain has room for ops operations over them.
func testAcc(pts []Point, c int64) *bmAcc {
	a := &bmAcc{x: make([]fe, len(pts)), y: make([]fe, len(pts)), coef: scalarLimbs(NewScalar(c))}
	for i, p := range pts {
		if q := p.Mul(NewScalar(c)); !q.IsIdentity() {
			a.x[i], a.y[i] = q.x, q.y
		}
	}
	return a
}

func checkAcc(t *testing.T, what string, pts []Point, a *bmAcc, want int64) {
	t.Helper()
	if a.coef != scalarLimbs(NewScalar(want)) {
		t.Fatalf("%s: coefficient %x, want %d", what, a.coef, want)
	}
	if want == 0 {
		return
	}
	for i, p := range pts {
		if got := affine(a.x[i], a.y[i]); !got.Equal(p.Mul(NewScalar(want))) {
			t.Fatalf("%s: lane %d is not %d·P", what, i, want)
		}
	}
}

// TestBatchKernelAdd drives addAll through each case the coefficients
// select — copy, chord, tangent, cancel, identity operand — alone and
// all in one step beside a doubling that the additions read, against
// Point arithmetic; and pins what each costs: one inversion for any
// number of chords and the doubling together, one more per tangent,
// none for a copy, a cancel or an identity.
func TestBatchKernelAdd(t *testing.T) {
	pts := testBases("batchmul/kernel", 5)
	cases := []struct {
		dst, src   int64
		inversions int
	}{
		{0, 3, 0}, {0, -3, 0}, // copy
		{2, 5, 1}, {2, -5, 1}, {-7, 3, 1}, // chord
		{3, 3, 1}, {-3, -3, 1}, // tangent
		{3, -3, 0}, {-3, 3, 0}, // cancel
		{4, 0, 0}, {0, 0, 0}, // identity operand
	}
	for _, tc := range cases {
		kern := &bmKernel{buf: make([]fe, len(pts)+1)}
		dst, src := testAcc(pts, tc.dst), testAcc(pts, tc.src)
		kern.addAll([]bmAdd{{dst, src}}, nil)
		checkAcc(t, fmt.Sprintf("%+v", tc), pts, dst, tc.dst+tc.src)
		checkAcc(t, fmt.Sprintf("%+v source", tc), pts, src, tc.src)
		if kern.inversions != tc.inversions {
			t.Fatalf("%+v: %d inversions, want %d", tc, kern.inversions, tc.inversions)
		}
	}

	// One step: every case that adds ±3·P adds the same q or −q, which
	// share their x as the sweep's do, and q doubles under the same
	// inversion.
	kern := &bmKernel{buf: make([]fe, (len(cases)+1)*len(pts)+1)}
	q, qneg := testAcc(pts, 3), testAcc(pts, -3)
	qneg.x = q.x
	var adds []bmAdd
	var dsts []*bmAcc
	for _, tc := range cases {
		src := map[int64]*bmAcc{3: q, -3: qneg}[tc.src]
		if src == nil {
			src = testAcc(pts, tc.src)
		}
		dsts = append(dsts, testAcc(pts, tc.dst))
		adds = append(adds, bmAdd{dsts[len(dsts)-1], src})
	}
	kern.addAll(adds, q)
	for i, tc := range cases {
		checkAcc(t, fmt.Sprintf("one step, %+v", tc), pts, dsts[i], tc.dst+tc.src)
	}
	checkAcc(t, "one step, doubled source", pts, q, 6)
	if kern.inversions != 3 { // the step's, and one per tangent
		t.Fatalf("one step took %d inversions, want 3", kern.inversions)
	}
}

// TestBatchKernelDouble checks doubleAll against Point arithmetic, and
// that doubling an identity accumulator costs nothing and stays the
// identity.
func TestBatchKernelDouble(t *testing.T) {
	pts := testBases("batchmul/kernel", 5)
	kern := &bmKernel{buf: make([]fe, len(pts)+1)}
	for _, c := range []int64{1, -1, 7} {
		a := testAcc(pts, c)
		kern.doubleAll(a)
		checkAcc(t, fmt.Sprintf("2·%d", c), pts, a, 2*c)
	}
	if kern.inversions != 3 {
		t.Fatalf("three doublings took %d inversions", kern.inversions)
	}
	var a bmAcc
	kern.doubleAll(&a)
	if kern.inversions != 3 || a.coef != (bmCoef{}) {
		t.Fatalf("doubling the identity: %d inversions, coefficient %x", kern.inversions, a.coef)
	}
}

// TestBatchCoef holds the kernel's four-limb coefficients against
// Scalar's arithmetic around zero and the order.
func TestBatchCoef(t *testing.T) {
	scalars := append(batchMulEdgeScalars(), MustRandomScalar(), MustRandomScalar())
	for _, a := range scalars {
		if got := bmCoef(scalarLimbs(a)).neg(); got != scalarLimbs(a.Neg()) {
			t.Fatalf("−%v is %x", a, got)
		}
		for _, b := range scalars {
			if got := bmCoef(scalarLimbs(a)).add(scalarLimbs(b)); got != scalarLimbs(a.Add(b)) {
				t.Fatalf("%v + %v is %x", a, b, got)
			}
		}
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
			feBatchInv(den, make([]fe, n+1))
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
// 200 and 400 are what a mix-k6 hop really runs: a 404-message median
// batch mixed over two worker ranges, and opened whole.
func BenchmarkBatchMul(b *testing.B) {
	scalars := []Scalar{MustRandomScalar(), MustRandomScalar()}
	for _, n := range []int{128, 200, 400, 512, 2048} {
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

// BenchmarkFeBatchInv is the Montgomery trick on its own: ns per
// element, the true inversion's share included.
func BenchmarkFeBatchInv(b *testing.B) {
	const n = 512
	src, den, scratch := make([]fe, n), make([]fe, n), make([]fe, n+1)
	for i, p := range testBases("benchfebatchinv", n) {
		src[i] = p.x
	}
	b.Run(fmt.Sprint(n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(den, src)
			feBatchInv(den, scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
	})
}
