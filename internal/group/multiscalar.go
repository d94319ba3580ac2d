package group

// MultiScalarMult computes Π pointsᵢ^scalarsᵢ (multiplicative
// notation) far faster than the naive product of Mul calls. It powers
// batch verification of the submission knowledge proofs: one product
// over all (commitment, key) pairs of a batch replaces two full
// scalar multiplications per proof.
//
// Strategy: scalars are recoded into signed base-2^w digits, then
//
//   - small batches use Straus interleaving (per-point multiple
//     tables, one shared doubling chain), and
//   - large batches use Pippenger buckets (per-window shared buckets,
//     so the per-point cost approaches one addition per window).
//
// Both run on the Jacobian/fe arithmetic of jacobian.go; the naive
// product pays a ladder per term and a field inversion on every
// addition, which is exactly what this avoids. Identity points and
// zero scalars contribute nothing and are filtered out first.

import "math/bits"

// strausCutoff is the batch size where Pippenger's shared buckets
// overtake Straus's per-point tables: level at ≈ 90–96 points, timed on
// the batch verifier's scalars (128-bit weights on half the points),
// with Straus 25–40 % ahead from 32 to 64 — the sizes a failing batch's
// defect is halved through.
const strausCutoff = 80

// MultiScalarMult returns the product of points[i]^scalars[i]. The
// slices must have equal length; an empty product is the identity.
func MultiScalarMult(points []Point, scalars []Scalar) Point {
	if len(points) != len(scalars) {
		panic("group: MultiScalarMult length mismatch")
	}
	kept := make([]int, 0, len(points))
	for i := range points {
		if points[i].IsIdentity() || scalars[i].IsZero() {
			continue
		}
		kept = append(kept, i)
	}
	n := len(kept)
	switch {
	case n == 0:
		return Point{}
	case n == 1:
		return points[kept[0]].Mul(scalars[kept[0]])
	}
	aff := make([]affinePoint, n)
	limbs := make([][4]uint64, n)
	maxBits := 0
	for j, i := range kept {
		aff[j] = points[i].affinePoint
		limbs[j] = scalarLimbs(scalars[i])
		if b := limbsBitLen(&limbs[j]); b > maxBits {
			maxBits = b
		}
	}
	var acc jacPoint
	if n < strausCutoff {
		strausMSM(&acc, aff, limbs, maxBits)
	} else {
		pippengerMSM(&acc, aff, limbs, maxBits)
	}
	return acc.toPoint()
}

// scalarLimbs returns the scalar as four little-endian uint64 limbs.
func scalarLimbs(s Scalar) [4]uint64 {
	var b [ScalarSize]byte
	return limbsFromBytes(s.big().FillBytes(b[:]))
}

func limbsBitLen(l *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if l[i] != 0 {
			return 64*i + bits.Len64(l[i])
		}
	}
	return 0
}

// signedDigits recodes a scalar into nw signed digits of w bits:
// value = Σ dⱼ·2^(w·j) with dⱼ ∈ [−2^(w−1), 2^(w−1)]. Signed digits
// halve the table (Straus) or bucket (Pippenger) count because −d·P
// is a free y-negation.
func signedDigits(l *[4]uint64, w, nw int, out []int16) {
	mask := uint64(1)<<w - 1
	half := int64(1) << (w - 1)
	carry := int64(0)
	for j := 0; j < nw; j++ {
		bit := j * w
		word, off := bit>>6, uint(bit&63)
		var raw uint64
		if word < 4 {
			raw = l[word] >> off
			if off+uint(w) > 64 && word+1 < 4 {
				raw |= l[word+1] << (64 - off)
			}
		}
		d := int64(raw&mask) + carry
		if d > half {
			d -= int64(1) << w
			carry = 1
		} else {
			carry = 0
		}
		out[j] = int16(d)
	}
}

// digitWindows returns exactly how many signed w-bit digits a value of
// maxBits bits recodes to. The ⌈maxBits/w⌉ windows cover its bits; a
// carry out of the top one needs one more digit only when that window
// is full (w divides maxBits): a top window of fewer than w bits holds
// at most 2^(w−1)−1, plus a carry of 1 that is still a digit, not a
// carry. Both cases are ⌊maxBits/w⌋+1 (TestDigitWindowsExact).
func digitWindows(maxBits, w int) int {
	return maxBits/w + 1
}

// strausMSM interleaves per-point windowed tables over one shared
// doubling chain (Straus's trick): nw·w doublings total, one table
// lookup-and-add per point per window. The multiple tables are built
// in Jacobian form and normalized to affine with one batched
// inversion (batchNormalize), so every window lookup is a 7M+4S mixed
// addition instead of a full 11M+5S Jacobian addition, with y negated
// on lookup for the negative digits.
func strausMSM(acc *jacPoint, aff []affinePoint, limbs [][4]uint64, maxBits int) {
	const w = 4
	const tableSize = 1 << (w - 1) // multiples 1..8
	nw := digitWindows(maxBits, w)
	n := len(aff)

	jtab := make([]jacPoint, n*tableSize)
	for i := range aff {
		t := jtab[i*tableSize : (i+1)*tableSize]
		t[0].fromAffine(&aff[i], false)
		for k := 1; k < tableSize; k++ {
			t[k] = t[k-1]
			t[k].addAffine(&aff[i], false)
		}
	}
	// Small multiples of non-identity points in a prime-order group
	// are never the identity, so the fe-domain normalization applies.
	tables := make([]affinePoint, n*tableSize)
	batchNormalize(jtab, tables)
	digits := make([]int16, n*nw)
	for i := range limbs {
		signedDigits(&limbs[i], w, nw, digits[i*nw:(i+1)*nw])
	}

	acc.setIdentity()
	for j := nw - 1; j >= 0; j-- {
		if !acc.isIdentity() {
			for k := 0; k < w; k++ {
				acc.double()
			}
		}
		for i := 0; i < n; i++ {
			d := digits[i*nw+j]
			switch {
			case d > 0:
				acc.addAffine(&tables[i*tableSize+int(d)-1], false)
			case d < 0:
				acc.addAffine(&tables[i*tableSize-int(d)-1], true)
			}
		}
	}
}

// pippengerWindow picks the bucket window width for a batch size: the
// per-window cost is n point additions plus 2^w bucket-aggregation
// additions, so w grows with log n.
func pippengerWindow(n int) int {
	switch {
	case n < 128:
		return 6
	case n < 512:
		return 7
	case n < 2048:
		return 8
	case n < 8192:
		return 9
	default:
		return 10
	}
}

// pippengerMSM is the bucket method: per window, every point lands in
// the bucket of its digit (one mixed addition), and the buckets are
// folded with a running suffix sum so bucket k is implicitly counted
// k times.
func pippengerMSM(acc *jacPoint, aff []affinePoint, limbs [][4]uint64, maxBits int) {
	w := pippengerWindow(len(aff))
	nw := digitWindows(maxBits, w)
	n := len(aff)
	nBuckets := 1 << (w - 1)

	digits := make([]int16, n*nw)
	for i := range limbs {
		signedDigits(&limbs[i], w, nw, digits[i*nw:(i+1)*nw])
	}

	buckets := make([]jacPoint, nBuckets)
	acc.setIdentity()
	for j := nw - 1; j >= 0; j-- {
		if !acc.isIdentity() {
			for k := 0; k < w; k++ {
				acc.double()
			}
		}
		for k := range buckets {
			buckets[k].setIdentity()
		}
		for i := 0; i < n; i++ {
			d := digits[i*nw+j]
			switch {
			case d > 0:
				buckets[d-1].addAffine(&aff[i], false)
			case d < 0:
				buckets[-d-1].addAffine(&aff[i], true)
			}
		}
		// Σ (k+1)·bucket[k] via suffix sums: running accumulates the
		// buckets top-down, sum accumulates running.
		var running, sum jacPoint
		for k := nBuckets - 1; k >= 0; k-- {
			running.add(&buckets[k])
			sum.add(&running)
		}
		acc.add(&sum)
	}
}
