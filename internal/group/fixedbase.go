package group

// Precomputed fixed-base scalar multiplication for the generator g.
// Client onion building, per-round key announcement, and NIZK proving
// all compute g^s; routing them through crypto/elliptic's generic
// ScalarBaseMult costs ~15µs per point on commodity hardware. Here the
// generator's multiples are tabulated once and a scalar mult becomes
// one table lookup-and-add per signed 13-bit window — no doublings at
// all, because window j's table already holds multiples of 2^(13j)·g.
//
// Two evaluation strategies share the same tables:
//
//   - Base (single scalar) accumulates the 21 window entries in
//     Jacobian coordinates and pays one field inversion at the end;
//   - BatchBase (many scalars) keeps every accumulator in affine
//     coordinates and batches the per-window division across the whole
//     batch with the Montgomery inversion trick, which brings the
//     amortized cost down to ~5 field mults per window per point.
//
// Everything here is variable-time (digit-dependent table indexing and
// branches). That is a deliberate trade against the constant-time
// stdlib path: the scalars are per-message/per-round ephemerals and
// the deployment model is a server-side mix network, not a shared
// host with a cache-timing adversary. See DESIGN.md for the
// discussion; revert Base to curve.ScalarBaseMult for a hardened
// build.

import "sync"

const (
	// fbWindow is the signed-window width in bits. 13 bits means 21
	// windows over a 256-bit scalar (plus recoding carry) and
	// 2^12 = 4096 table entries per window: 86016 affine points,
	// ~8 MiB, built lazily on first use in ~50ms.
	fbWindow = 13
	// fbHalf is the number of precomputed multiples per window; signed
	// digits halve the table because −d·P is a stored y-negation.
	fbHalf = 1 << (fbWindow - 1)
	// fbWindows must equal digitWindows(256, fbWindow); asserted when
	// the tables are built.
	fbWindows = 21
	// fbBatchMin is the batch size where the affine accumulation with
	// per-window batched inversions overtakes per-point Jacobian
	// accumulation (21 inversions amortize across the batch).
	fbBatchMin = 8
)

var (
	fbOnce  sync.Once
	fbTable []affinePoint // fbWindows windows × fbHalf entries, flat
)

// fbInit builds the generator tables: window j holds k·2^(13j)·g for
// k = 1..4096. Entries are accumulated in Jacobian coordinates and
// normalized with one batched inversion per window.
func fbInit() {
	fbOnce.Do(func() {
		if digitWindows(256, fbWindow) != fbWindows {
			panic("group: fbWindows constant is wrong")
		}
		table := make([]affinePoint, fbWindows*fbHalf)
		base := newAffinePoint(Generator())
		jtab := make([]jacPoint, fbHalf+1)
		scratch := make([]affinePoint, fbHalf+1)
		for j := 0; j < fbWindows; j++ {
			jtab[0].fromAffine(&base, false)
			for k := 1; k < fbHalf; k++ {
				jtab[k] = jtab[k-1]
				jtab[k].addAffine(&base, false)
			}
			// jtab[fbHalf-1] = 2^(fbWindow-1)·B; doubling it gives the
			// next window's base 2^fbWindow·B.
			jtab[fbHalf] = jtab[fbHalf-1]
			jtab[fbHalf].double()
			batchNormalize(jtab, scratch)
			copy(table[j*fbHalf:(j+1)*fbHalf], scratch[:fbHalf])
			base = scratch[fbHalf]
		}
		fbTable = table
	})
}

// fixedBaseMult computes g^s for a non-zero scalar via the tables:
// one mixed addition per non-zero window digit, one final inversion.
func fixedBaseMult(s Scalar) Point {
	fbInit()
	l := scalarLimbs(s)
	var digits [fbWindows]int16
	signedDigits(&l, fbWindow, fbWindows, digits[:])
	var acc jacPoint
	for j, d := range digits {
		if d > 0 {
			acc.addAffine(&fbTable[j*fbHalf+int(d)-1], false)
		} else if d < 0 {
			acc.addAffine(&fbTable[j*fbHalf-int(d)-1], true)
		}
	}
	return acc.toPoint()
}

// BatchBase computes g^scalars[i] for every scalar with one shared
// table walk. Large batches run the window sweep entirely in affine
// coordinates: each window contributes one affine addition per point,
// whose divisions are batched into a single field inversion across
// the batch (Montgomery trick), so no per-point inversion is ever
// paid. Zero scalars yield the identity.
func BatchBase(scalars []Scalar) []Point {
	n := len(scalars)
	if n == 0 {
		return nil
	}
	fbInit()
	if n < fbBatchMin {
		// Jacobian accumulation per point, one shared inversion at
		// the end.
		js := make([]jacPoint, n)
		var digits [fbWindows]int16
		for i, s := range scalars {
			if s.IsZero() {
				continue
			}
			l := scalarLimbs(s)
			signedDigits(&l, fbWindow, fbWindows, digits[:])
			for j, d := range digits {
				if d > 0 {
					js[i].addAffine(&fbTable[j*fbHalf+int(d)-1], false)
				} else if d < 0 {
					js[i].addAffine(&fbTable[j*fbHalf-int(d)-1], true)
				}
			}
		}
		return BatchToAffine(js)
	}
	digits := make([]int16, n*fbWindows)
	for i, s := range scalars {
		if s.IsZero() {
			continue // all-zero digits, the sweep skips the point
		}
		l := scalarLimbs(s)
		signedDigits(&l, fbWindow, fbWindows, digits[i*fbWindows:(i+1)*fbWindows])
	}
	return batchBaseAffine(digits, n)
}

// batchBaseAffine is the all-affine window sweep behind BatchBase.
// Accumulators stay in affine coordinates; each window collects every
// point's pending addition (or doubling, when the table entry equals
// the accumulator), inverts all denominators with one inversion, and
// applies the affine chord/tangent formulas.
func batchBaseAffine(digits []int16, n int) []Point {
	accX := make([]fe, n)
	accY := make([]fe, n)
	has := make([]bool, n)

	idx := make([]int, 0, n) // points with a pending op this window
	den := make([]fe, 0, n)  // chord/tangent denominators
	num := make([]fe, 0, n)  // chord/tangent numerators
	exs := make([]fe, 0, n)  // entry x (equals accX for doublings)
	scratch := make([]fe, n) // for feBatchInv

	for j := 0; j < fbWindows; j++ {
		idx, den, num, exs = idx[:0], den[:0], num[:0], exs[:0]
		win := fbTable[j*fbHalf : (j+1)*fbHalf]
		for i := 0; i < n; i++ {
			d := digits[i*fbWindows+j]
			if d == 0 {
				continue
			}
			var e *affinePoint
			var ey fe
			if d > 0 {
				e = &win[d-1]
				ey = e.y
			} else {
				e = &win[-d-1]
				ey = e.yNeg
			}
			if !has[i] {
				accX[i], accY[i], has[i] = e.x, ey, true
				continue
			}
			if accX[i].equal(&e.x) {
				if accY[i].equal(&ey) {
					// Tangent: λ = 3(x²−1)/(2y). a = −3 folds the
					// numerator to 3(x²−1); y ≠ 0 because the group
					// order is prime (no 2-torsion).
					var dd, nn, t fe
					feDouble(&dd, &accY[i])
					feSqr(&t, &accX[i])
					feSub(&t, &t, &feOne)
					feDouble(&nn, &t)
					feAdd(&nn, &nn, &t)
					idx = append(idx, i)
					den = append(den, dd)
					num = append(num, nn)
					exs = append(exs, accX[i])
				} else {
					has[i] = false // P + (−P): back to the identity
				}
				continue
			}
			// Chord: λ = (y2−y1)/(x2−x1).
			var dd, nn fe
			feSub(&dd, &e.x, &accX[i])
			feSub(&nn, &ey, &accY[i])
			idx = append(idx, i)
			den = append(den, dd)
			num = append(num, nn)
			exs = append(exs, e.x)
		}
		feBatchInv(den, scratch)
		for k, i := range idx {
			var lam, x3, y3, t fe
			feMul(&lam, &num[k], &den[k])
			feSqr(&x3, &lam)
			feSub(&x3, &x3, &accX[i])
			feSub(&x3, &x3, &exs[k])
			feSub(&t, &accX[i], &x3)
			feMul(&y3, &lam, &t)
			feSub(&y3, &y3, &accY[i])
			accX[i], accY[i] = x3, y3
		}
	}

	out := make([]Point, n)
	for i := range out {
		if has[i] {
			out[i] = Point{accX[i].toBig(), accY[i].toBig()}
		}
	}
	return out
}
