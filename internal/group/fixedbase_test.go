//lint:file-ignore SA1019 crypto/elliptic's deprecated methods are the reference these tests compare against

package group

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// edgeScalars are the fixed-base edge cases every parity test and
// fuzz corpus includes: zero, one, two, order−1 (≡ −1, exercising
// negative digits everywhere), and values straddling the generator's
// window boundaries.
func edgeScalars() []Scalar {
	ords := Order()
	half := int64(genShape.half())
	return []Scalar{
		{}, // zero
		NewScalar(1),
		NewScalar(2),
		NewScalar(half),     // exactly the largest window digit
		NewScalar(half + 1), // forces a signed-recoding carry
		ScalarFromBig(new(big.Int).Sub(ords, big.NewInt(1))), // order−1
		ScalarFromBig(new(big.Int).Lsh(big.NewInt(1), 255)),
		ScalarFromBig(new(big.Int).Sub(ords, big.NewInt(half))),
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

// TestBatchBaseMatchesBase covers both BatchBase strategies (the walk
// below fbBatchMin, the tree from there) against single-scalar Base: a
// user's round at ℓ = 4 and ℓ = 8 (24 and 48 scalars), one tree chunk
// and one scalar either side of it, and a probe-sized 1024. Zero and
// edge scalars sit at the first and last lane of every chunk, and a
// zero mid-batch.
func TestBatchBaseMatchesBase(t *testing.T) {
	step := genShape.chunkLanes()
	edges := edgeScalars()
	for _, n := range []int{1, 2, fbBatchMin - 1, fbBatchMin, 24, 48, step - 1, step, step + 1, 1024} {
		scalars := make([]Scalar, n)
		for i := range scalars {
			scalars[i] = MustRandomScalar()
		}
		if n >= fbBatchMin {
			for lo := 0; lo < n; lo += step {
				hi := min(lo+step, n)
				scalars[lo] = Scalar{}
				scalars[hi-1] = edges[(lo/step)%len(edges)]
				copy(scalars[lo+1:max(lo+1, hi-1)], edges[1:])
			}
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

// TestBatchBaseConcurrent: BatchBase and BatchDH share the pooled tree
// buffers (treeSums), so goroutines interleaving calls of both — of
// different sizes, so a recycled buffer is both longer and shorter
// than what its next call needs — must each get Base's and DH's
// answers. Run it under -race -count=10.
func TestBatchBaseConcurrent(t *testing.T) {
	keys := make([]Point, 66)
	for i := range keys {
		keys[i] = Base(MustRandomScalar()).Precomputed()
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				n := []int{fbBatchMin, 24, 200, 48}[(g+round)%4]
				scalars := make([]Scalar, n)
				for i := range scalars {
					scalars[i] = MustRandomScalar()
				}
				got := BatchBase(scalars)
				for _, i := range []int{0, n / 2, n - 1} {
					if !got[i].Equal(Base(scalars[i])) {
						t.Errorf("goroutine %d round %d: BatchBase[%d] of %d differs from Base", g, round, i, n)
					}
				}
				m := []int{7, 66, 28}[(g+round)%3]
				privs := make([]Scalar, m)
				for i := range privs {
					privs[i] = scalars[i%n]
				}
				secrets := BatchDH(keys[:m], privs)
				for _, i := range []int{0, m - 1} {
					if secrets[i] != DH(keys[i], privs[i]) {
						t.Errorf("goroutine %d round %d: BatchDH[%d] of %d differs from DH", g, round, i, m)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGeneratorTableBytes holds the generator's table — built and kept
// by every process — to the size DESIGN.md states: 24 rows of 1024
// entries, 1.5 MiB.
func TestGeneratorTableBytes(t *testing.T) {
	genTable.ensure(genPoint)
	if n := len(genTable.entries) * int(unsafe.Sizeof(affinePoint{})); n > 1_600_000 {
		t.Fatalf("the generator's table is %d bytes, over the 1.6 MB budget", n)
	}
}

// serialTableEntries is the reference table build: every row in order on
// one goroutine, the next row's base doubled out of the last entry, one
// chunk of rows at a time under one inversion — ensure as it was before
// its chunks ran concurrently.
func serialTableEntries(shape tableShape, p Point) []affinePoint {
	rows, half := shape.rows(), shape.half()
	toNext := shape.window*shape.groups - (shape.window - 1)
	chunkRows := max(1, min(rows, normalizeChunk/half))
	entries := make([]affinePoint, rows*half)
	jtab := make([]jacPoint, chunkRows*half)
	var base jacPoint
	base.fromAffine(&p.affinePoint, false)
	for j0 := 0; j0 < rows; j0 += chunkRows {
		j1 := min(j0+chunkRows, rows)
		for j := j0; j < j1; j++ {
			row := jtab[(j-j0)*half : (j-j0+1)*half]
			row[0] = base
			for d := 2; d <= half; d++ {
				if d%2 == 0 {
					row[d-1] = row[d/2-1]
					row[d-1].double()
				} else {
					row[d-1] = row[d-2]
					row[d-1].add(&base)
				}
			}
			base = row[half-1]
			for i := 0; i < toNext; i++ {
				base.double()
			}
		}
		batchNormalize(jtab[:(j1-j0)*half], entries[j0*half:j1*half])
	}
	return entries
}

// TestFixedTableBuildMatchesSerial: the generator's table (six chunks,
// spread over goroutines) and a key's (one chunk, on the caller), built
// by ensure at GOMAXPROCS 1, 2 and 8, equal the serial reference entry
// for entry. Run it under -race.
func TestFixedTableBuildMatchesSerial(t *testing.T) {
	key := Base(MustRandomScalar())
	want := map[tableShape][]affinePoint{
		genShape: serialTableEntries(genShape, genPoint),
		keyShape: serialTableEntries(keyShape, key),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for shape, p := range map[tableShape]Point{genShape: genPoint, keyShape: key} {
			tab := fixedTable{shape: shape}
			tab.ensure(p)
			if len(tab.entries) != len(want[shape]) {
				t.Fatalf("GOMAXPROCS=%d, shape %+v: %d entries, want %d", procs, shape, len(tab.entries), len(want[shape]))
			}
			for i := range tab.entries {
				if tab.entries[i] != want[shape][i] {
					t.Fatalf("GOMAXPROCS=%d, shape %+v: entry %d differs from the serial build", procs, shape, i)
				}
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

// TestBatchBaseTreeFallback drives BatchBase's fallback: a generator
// lane whose run meets a doubling or a cancelling pair is marked bad
// and answered by the walk. No canonical recoding reaches that — an
// entry only collides with a partial sum through the wrap mod n of the
// top row — so the digit vectors are synthetic. e = k·2^(w·top) mod n
// is found that recodes below the top row. The tree's last level adds
// the sum of a lane's first h entries (h the largest power of two
// under its entry count) to the sum of the rest, so the tangent lane
// is e's first h non-zero digits as they are, the rest of e's digits
// negated and k in the top row: both halves are L, the first h digits'
// value, and the lane is 2L. The cancel lane negates the first h as
// well: −L + L. An ordinary scalar's lane beside them must stay clean.
func TestBatchBaseTreeFallback(t *testing.T) {
	top := genShape.rows() - 1
	shift := new(big.Int).Lsh(big.NewInt(1), uint(genShape.window*top))
	var buf [maxDigits]int16
	k := 0
	var digits []int16
	for digits == nil {
		if k++; k > genShape.half() {
			t.Fatalf("no top-row entry k·2^%d wraps to a residue below row %d", genShape.window*top, top)
		}
		e := new(big.Int).Mul(big.NewInt(int64(k)), shift)
		if d := genTable.recode(ScalarFromBig(e), &buf); d[top] == 0 {
			digits = append([]int16(nil), d...)
		}
	}
	var nonZero []int
	for j, d := range digits {
		if d != 0 {
			nonZero = append(nonZero, j)
		}
	}
	h := 1
	for 2*h < len(nonZero)+1 {
		h *= 2
	}
	tangent := append([]int16(nil), digits...)
	cancel := append([]int16(nil), digits...)
	low := new(big.Int)
	for i, j := range nonZero {
		if i < h {
			cancel[j] = -digits[j]
			low.Add(low, new(big.Int).Lsh(big.NewInt(int64(digits[j])), uint(genShape.window*j)))
		} else {
			tangent[j], cancel[j] = -digits[j], -digits[j]
		}
	}
	tangent[top], cancel[top] = int16(k), int16(k)
	twoL := ScalarFromBig(new(big.Int).Lsh(low, 1))

	genTable.ensure(genPoint)
	var acc jacPoint
	genTable.walk(&acc, tangent)
	if !acc.toPoint().Equal(Base(twoL)) {
		t.Fatal("the tangent vector does not sum to 2L")
	}
	acc.setIdentity()
	genTable.walk(&acc, cancel)
	if !acc.isIdentity() {
		t.Fatal("the cancel vector does not sum to the identity")
	}

	ordinary := MustRandomScalar()
	var ts treeSum
	ts.reset(3, genShape.groups, genShape.rows())
	ts.gather(&genTable, tangent)
	ts.gather(&genTable, cancel)
	ts.gather(&genTable, genTable.recode(ordinary, &buf))
	ts.reduce()
	if !ts.runs[0].bad || !ts.runs[1].bad {
		t.Fatal("a doubling and a cancelling pair must mark their runs")
	}
	if r := ts.runs[2]; r.bad || r.n != 1 {
		t.Fatalf("the ordinary lane: bad=%v n=%d, want one clean sum", r.bad, r.n)
	}
	got := make([]Point, 3)
	ts.readBase([]Scalar{twoL, {}, ordinary}, got)
	if !got[0].Equal(Base(twoL)) {
		t.Fatalf("tangent lane = %v, want g^2L = %v", got[0], Base(twoL))
	}
	if !got[1].IsIdentity() {
		t.Fatalf("cancel lane = %v, want identity", got[1])
	}
	if !got[2].Equal(Base(ordinary)) {
		t.Fatalf("ordinary lane = %v, want %v", got[2], Base(ordinary))
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

// FuzzScalarBaseMult cross-checks Base and both BatchBase strategies —
// the walk below fbBatchMin and the tree from there — against
// crypto/elliptic for arbitrary 32-byte scalar material.
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
		// Both batch strategies must agree: n=2 walks each scalar,
		// n=fbBatchMin sums them as one tree.
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

// BenchmarkFixedBase is the generator table's record: stdlib is the
// crypto/elliptic path Base used to take, precomp the table-driven
// single-scalar path, batch1024 the amortized batch path (ns/op is per
// point: each iteration accounts for one point of a 1024-point batch),
// and build a fresh table — what every process pays before its first
// g^s.
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
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := fixedTable{shape: genShape}
			t.ensure(genPoint)
		}
	})
}

// BenchmarkBatchBase is BatchBase at the sizes that call it, in µs a
// call: 3 scalars (one onion: g^y, g^x, g^v) and 24 and 48 (a user's
// round at ℓ = 4 and ℓ = 8, what WrapAHSBatch passes on mix-k6 and
// sim-build).
func BenchmarkBatchBase(b *testing.B) {
	genTable.ensure(genPoint)
	for _, n := range []int{3, 24, 48} {
		scalars := make([]Scalar, n)
		for i := range scalars {
			scalars[i] = MustRandomScalar()
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BatchBase(scalars)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/call")
		})
	}
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
