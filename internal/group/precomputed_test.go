//lint:file-ignore SA1019 crypto/elliptic's deprecated methods are the reference these tests compare against

package group

import (
	"bytes"
	"crypto/rand"
	"fmt"
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
	x, y := curve.ScalarMult(p.bigX(), p.bigY(), s.Bytes())
	return pointFromBig(x, y)
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
// branches on a key table. As with the generator's tree
// (TestBatchBaseTreeFallback) no canonical recoding reaches
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
// calls on bare points, on both sides of treeSumMin and at the sizes of
// whole rounds (56 lanes: the bench's k = 6 round; 924: the paper's
// n = 100, k = 32, fifteen chunks): each call mixes precomputed and bare keys, an
// identity base, a zero scalar, the generator, a run under one scalar
// followed by another scalar, and an equal-valued but distinct Scalar —
// so the tabled lanes are never contiguous and the once-per-run
// recoding is crossed both ways.
func TestBatchDHMatchesDH(t *testing.T) {
	if got := BatchDH(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d secrets", len(got))
	}
	// chunk−2 tabled lanes make chunk+2 exchanges with the four other
	// kinds: a tree chunk, then a two-lane chunk that walks.
	chunk := keyShape.chunkLanes()
	for _, tabled := range []int{0, 1, treeSumMin - 1, treeSumMin, treeSumMin + 1, 56, chunk - 2, 924} {
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
		add(Base(MustRandomScalar()), false, x) // bare
		add(Identity(), true, x)
		add(Base(MustRandomScalar()), true, Scalar{})
		for i := 0; i < tabled; i++ {
			switch {
			case i%7 == 0: // an onion's inner aggregate under y, then its mix keys under x
				add(Base(MustRandomScalar()), true, y)
			case i == 3:
				add(Generator(), false, x)
			case i == 5:
				add(Base(MustRandomScalar()), true, ScalarFromBig(x.big())) // equal value, different Scalar
			default:
				add(Base(MustRandomScalar()), true, x)
			}
			if i == 2 {
				add(Base(MustRandomScalar()), false, x) // one bare key mid-run
			}
			if i%7 == 6 {
				x, y = MustRandomScalar(), keyEdgeScalars()[i%len(keyEdgeScalars())]
			}
		}
		got := BatchDH(pubs, privs)
		for i := range bare {
			if want := SharedSecret(stdlibMul(bare[i], privs[i])); got[i] != want {
				t.Fatalf("%d tabled lanes: BatchDH[%d] differs from DH on the bare point", tabled, i)
			}
		}
		// All-bare batches take the stdlib path throughout.
		for i, sec := range BatchDH(bare[:3], privs[:3]) {
			if sec != got[i] {
				t.Fatalf("bare BatchDH[%d] differs", i)
			}
		}
	}
}

// TestBatchDHConcurrent: BatchDH's tree buffers are pooled across calls
// (treeSums), so calls from several goroutines at once — batches of
// different sizes, so a recycled buffer is both longer and shorter than
// what its next call needs — must each get DH's answers. Run it under
// -race -count=10.
func TestBatchDHConcurrent(t *testing.T) {
	keys := make([]Point, 80)
	for i := range keys {
		keys[i] = Base(MustRandomScalar()).Precomputed()
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				n := []int{7, 80, 28, 66}[(g+round)%4]
				x := MustRandomScalar()
				privs := make([]Scalar, n)
				for i := range privs {
					privs[i] = x
				}
				got := BatchDH(keys[:n], privs)
				for _, i := range []int{0, n / 2, n - 1} {
					if got[i] != DH(keys[i], x) {
						t.Errorf("goroutine %d round %d: BatchDH[%d] of %d differs from DH", g, round, i, n)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTreeSumExceptionalRuns drives the reducer's zero-denominator
// branch and the walk fallback behind it. No digit vector reaches them
// through gather (every pair's right operand outweighs its left), so
// the runs are doctored after gathering: lane 0's first group is made
// to start P, P (a doubling pair) and lane 1's last group Q, −Q (a
// cancelling pair); lane 2 is left alone next to them, and its first
// group is an odd run at every level but the last (17 → 9 → 5 → 3: the
// carried last entry). All three must come out as the stdlib's answer — the
// doctored lanes because finish recomputes them from the scalar.
func TestTreeSumExceptionalRuns(t *testing.T) {
	// Nibble 9 recodes to −7, then −6 with a carry all the way up: no
	// zero digit, and the carry out of the top fills row 16 of group 0.
	all := ScalarFromBig(new(big.Int).SetBytes(bytes.Repeat([]byte{0x99}, 32)))
	keys := []Point{Base(MustRandomScalar()).Precomputed(), Base(MustRandomScalar()).Precomputed(), Base(MustRandomScalar()).Precomputed()}
	var ts treeSum
	ts.reset(3 * keyShape.digits())
	var buf [maxDigits]int16
	for _, k := range keys {
		k.tab.ensure(k)
		ts.gather(k.tab, k.tab.recode(all, &buf))
	}
	if n := ts.runs[8].n; n != 17 {
		t.Fatalf("lane 2's first run holds %d entries, want all 17 rows", n)
	}
	first := ts.runs[0]
	ts.pts[first.start+1] = ts.pts[first.start]
	last := ts.runs[7]
	ts.pts[last.start+1] = ts.pts[last.start]
	feNeg(&ts.pts[last.start+1].y, &ts.pts[last.start+1].y)
	ts.reduce()
	if !ts.runs[0].bad || !ts.runs[7].bad {
		t.Fatal("a doubling and a cancelling pair must mark their runs")
	}
	for ri, r := range ts.runs {
		if ri != 0 && ri != 7 && (r.bad || r.n != 1) {
			t.Fatalf("run %d: bad=%v n=%d, want one clean sum", ri, r.bad, r.n)
		}
	}
	for i, k := range keys {
		var acc jacPoint
		ts.finish(k.tab, all, &acc)
		if got, want := acc.toPoint(), stdlibMul(k, all); !got.Equal(want) {
			t.Fatalf("lane %d = %v, want %v", i, got, want)
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

// FuzzBatchDH cross-checks the tree-summed BatchDH against the stdlib
// for arbitrary key and scalar material: lanes distinct keys (at least
// treeSumMin, so the tree runs) alternate between two scalars, with a
// bare and an identity key among them.
func FuzzBatchDH(f *testing.F) {
	pow := func(k uint) []byte { return new(big.Int).Lsh(big.NewInt(1), k).Bytes() }
	nMinus := func(d int64) []byte { return new(big.Int).Sub(Order(), big.NewInt(d)).Bytes() }
	f.Add([]byte{1}, nMinus(1), nMinus(2), uint8(0))
	f.Add([]byte{2}, pow(16), pow(252), uint8(3))
	f.Add([]byte{3}, pow(255), pow(4), uint8(13))
	f.Add([]byte{4}, bytes.Repeat([]byte{0xFF}, 32), bytes.Repeat([]byte{0x88}, 32), uint8(7))
	f.Add([]byte{5}, bytes.Repeat([]byte{0x11}, 32), []byte{}, uint8(60))
	f.Fuzz(func(t *testing.T, key, s1, s2 []byte, lanes uint8) {
		trim := func(b []byte) *big.Int {
			if len(b) > 32 {
				b = b[:32]
			}
			return new(big.Int).SetBytes(b)
		}
		k0 := trim(key)
		scalars := [2]Scalar{ScalarFromBig(trim(s1)), ScalarFromBig(trim(s2))}
		n := treeSumMin + int(lanes%64)
		bare := make([]Point, n+2)
		pubs := make([]Point, n+2)
		privs := make([]Scalar, n+2)
		for i := 0; i < n; i++ {
			bare[i] = Base(ScalarFromBig(new(big.Int).Add(k0, big.NewInt(int64(i)))))
			pubs[i] = bare[i].Precomputed()
			privs[i] = scalars[i/3%2]
		}
		bare[n], pubs[n], privs[n] = bare[0], bare[0], scalars[0]
		privs[n+1] = scalars[1] // under the identity
		for i, sec := range BatchDH(pubs, privs) {
			if sec != SharedSecret(stdlibMul(bare[i], privs[i])) {
				t.Fatalf("BatchDH[%d] of %d disagrees with the stdlib", i, n)
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

// onionLanes returns n tabled lanes shaped like a round's exchanges:
// distinct precomputed keys, one fresh scalar per run of seven (an
// onion at k = 6), tables built.
func onionLanes(n int) ([]Point, []Scalar) {
	pubs := make([]Point, n)
	privs := make([]Scalar, n)
	for i := range pubs {
		pubs[i] = Base(MustRandomScalar()).Precomputed()
		pubs[i].tab.ensure(pubs[i])
		if i%7 == 0 {
			privs[i] = MustRandomScalar()
		} else {
			privs[i] = privs[i-1]
		}
	}
	return pubs, privs
}

// BenchmarkBatchDH is the record treeSumMin is chosen from: µs per key
// of one BatchDH call over 4 lanes (the cutover), 7 (one onion at
// k = 6), 48 and 56 (a user's whole round on the bench's sim-build and
// mix-k6 workloads) and 924 (the paper's n = 100, k = 32 round: 28
// onions of 33 keys), hash and shared inversions included. N/walk is
// the same work done the way BatchDH does it below the cutover, one
// Jacobian walk per lane.
func BenchmarkBatchDH(b *testing.B) {
	for _, n := range []int{4, 7, 48, 56, 924} {
		pubs, privs := onionLanes(n)
		perKey := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "µs/key")
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batchDHSink = BatchDH(pubs, privs)
			}
			perKey(b)
		})
		b.Run(fmt.Sprintf("%d/walk", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				js := make([]jacPoint, n)
				var buf [maxDigits]int16
				for l, p := range pubs {
					p.tab.walk(&js[l], p.tab.recode(privs[l], &buf))
				}
				for l, pt := range BatchToAffine(js) {
					batchDHSink[l] = SharedSecret(pt)
				}
			}
			perKey(b)
		})
	}
}

var batchDHSink [][32]byte
