package group

// Fast arithmetic in the P-256 base field GF(p): what the multi-scalar
// multiplication, the batched exponentiations, the fixed-key tables and
// the point decoders of group.go run on, and what a Point's coordinates
// are. An affine addition pays a field inversion, so every chain of
// them runs on Jacobian coordinates (jacobian.go) or shares its
// inversions across a batch (feBatchInv); this file is the
// inversion-free arithmetic under both.
//
// Representation: four little-endian uint64 limbs in the Montgomery
// domain (value·2^256 mod p). P-256's lowest prime limb is 2^64−1, so
// the Montgomery constant −p⁻¹ mod 2^64 is exactly 1 and each
// reduction step needs no multiplication to derive its quotient word.
//
// Everything here is variable-time; DESIGN.md ("The variable-time
// trade, explicitly") says which scalars that is allowed to meet.

import (
	"encoding/binary"
	"math/bits"
)

// fe is a field element in the Montgomery domain, little-endian limbs,
// always fully reduced: equal values have equal limbs.
type fe [4]uint64

// feADX is whether feMul and feSqrN run on the MULX/ADCX/ADOX assembly
// of p256fe_amd64.s: CPUID's answer on amd64 (BMI2 and ADX both), read
// once here, and false on every other GOARCH. Where it is false they
// are feMulGeneric and feSqrNGeneric; the two give bit-identical
// results (FuzzFieldOps), and nothing else selects between them.
var feADX = feHasADX()

// The prime's limbs as constants so the hot paths can fold them into
// immediates: p = 2^256 − 2^224 + 2^192 + 2^96 − 1.
const (
	feP0 uint64 = 0xffffffffffffffff
	feP1 uint64 = 0x00000000ffffffff
	feP2 uint64 = 0x0000000000000000
	feP3 uint64 = 0xffffffff00000001
)

// The Montgomery constants and the curve's parameters, the latter
// written as their standard values (limbs little-endian, so FIPS 186's
// hex reads bottom-up). TestConstantsMatchStdlib holds every one of
// them against crypto/elliptic's.
var (
	feOne = fe{1, 0xffffffff00000000, 0xffffffffffffffff, 0x00000000fffffffe} // 2^256 mod p
	feR2  = fe{3, 0xfffffffbffffffff, 0xfffffffffffffffe, 0x00000004fffffffd} // 2^512 mod p
	// feB is the curve's b.
	feB = fe{0x3bce3c3e27d2604b, 0x651d06b0cc53b0f6, 0xb3ebbd55769886bc, 0x5ac635d8aa3a93e7}.toMont()
	// genPoint is the generator; genTable (fixedbase.go) is its table.
	genPoint = affine(
		fe{0xf4a13945d898c296, 0x77037d812deb33a0, 0xf8bce6e563a440f2, 0x6b17d1f2e12c4247}.toMont(),
		fe{0xcbb6406837bf51f5, 0x2bce33576b315ece, 0x8ee7eb4a7c0f9e16, 0x4fe342e2fe1a7f9b}.toMont())
)

// toMont enters the Montgomery domain from a reduced standard value.
func (x fe) toMont() fe {
	var z fe
	feMul(&z, &x, &feR2)
	return z
}

// fromMont leaves the Montgomery domain: the standard value's limbs.
func (x *fe) fromMont() fe {
	one := fe{1, 0, 0, 0}
	var raw fe
	feMul(&raw, x, &one)
	return raw
}

// limbsFromBytes reads 32 big-endian bytes — a coordinate or a scalar —
// into little-endian limbs, no reduction and no domain conversion.
func limbsFromBytes(b []byte) [4]uint64 {
	return [4]uint64{
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]),
	}
}

// feFromBytes reads 32 big-endian bytes, a coordinate as it crosses the
// wire, into the Montgomery domain. ok is false for a value ≥ p: a
// field element has one encoding.
func feFromBytes(b []byte) (z fe, ok bool) {
	raw := fe(limbsFromBytes(b))
	_, br := bits.Sub64(raw[0], feP0, 0)
	_, br = bits.Sub64(raw[1], feP1, br)
	_, br = bits.Sub64(raw[2], feP2, br)
	_, br = bits.Sub64(raw[3], feP3, br)
	if br == 0 { // no borrow: raw ≥ p
		return fe{}, false
	}
	return raw.toMont(), true
}

// putBytes writes x's standard value into b[:32], big-endian:
// feFromBytes' inverse.
func (x *fe) putBytes(b []byte) {
	raw := x.fromMont()
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint64(b[24-8*i:], raw[i])
	}
}

// isOdd reports the parity of x's standard value, a compressed point's
// sign bit.
func (x *fe) isOdd() bool {
	raw := x.fromMont()
	return raw[0]&1 == 1
}

func (x *fe) isZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// feMulGeneric sets z = x·y·2^−256 mod p (Montgomery product): feMul
// wherever the assembly does not run (see feADX). Fully unrolled CIOS:
// each of the four rounds adds one product row x[i]·y into a 6-limb
// accumulator and immediately folds the low limb away with one
// Montgomery reduction step. With −p⁻¹ ≡ 1 mod 2^64 the
// quotient word of each step is the accumulator's low limb m, and
// because p = 2^256 − 2^224 + 2^192 + 2^96 − 1 the m·p addition needs
// no multiplications at all, only shifts of m:
//
//	(t + m·p)/2^64 = t/2^64 + m·2^32 + m·(2^64−2^32+1)·2^128
//
// (the −m term exactly cancels the low limb t0 = m).
func feMulGeneric(z, x, y *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var t0, t1, t2, t3, t4, t5 uint64

	// Round 0: t = x0·y, then one reduction step.
	h0, l0 := bits.Mul64(x0, y0)
	h1, l1 := bits.Mul64(x0, y1)
	h2, l2 := bits.Mul64(x0, y2)
	h3, l3 := bits.Mul64(x0, y3)
	t0 = l0
	var c uint64
	t1, c = bits.Add64(l1, h0, 0)
	t2, c = bits.Add64(l2, h1, c)
	t3, c = bits.Add64(l3, h2, c)
	t4, _ = bits.Add64(h3, 0, c)

	m := t0
	lo, bb := bits.Sub64(m, m<<32, 0)
	hi := m - m>>32 - bb
	t0, c = bits.Add64(t1, m<<32, 0)
	t1, c = bits.Add64(t2, m>>32, c)
	t2, c = bits.Add64(t3, lo, c)
	t3, c = bits.Add64(t4, hi, c)
	t4 = c

	// Rounds 1..3: t += x[i]·y, then one reduction step each.
	for _, xi := range [3]uint64{x1, x2, x3} {
		h0, l0 = bits.Mul64(xi, y0)
		h1, l1 = bits.Mul64(xi, y1)
		h2, l2 = bits.Mul64(xi, y2)
		h3, l3 = bits.Mul64(xi, y3)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, 0, c)
		t5 = c
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, h2, c)
		t4, c = bits.Add64(t4, h3, c)
		t5 += c

		m = t0
		lo, bb = bits.Sub64(m, m<<32, 0)
		hi = m - m>>32 - bb
		t0, c = bits.Add64(t1, m<<32, 0)
		t1, c = bits.Add64(t2, m>>32, c)
		t2, c = bits.Add64(t3, lo, c)
		t3, c = bits.Add64(t4, hi, c)
		t4 = t5 + c
	}

	// Result in t0..t4 is < 2p; subtract p once if needed.
	r0, b := bits.Sub64(t0, feP0, 0)
	r1, b := bits.Sub64(t1, feP1, b)
	r2, b := bits.Sub64(t2, feP2, b)
	r3, b := bits.Sub64(t3, feP3, b)
	_, b = bits.Sub64(t4, 0, b)
	mask := -b // borrow set: t < p, keep t
	z[0] = t0&mask | r0&^mask
	z[1] = t1&mask | r1&^mask
	z[2] = t2&mask | r2&^mask
	z[3] = t3&mask | r3&^mask
}

// feSqr sets z = x²·2^−256 mod p.
func feSqr(z, x *fe) { feSqrN(z, x, 1) }

// feSqrNGeneric sets z = x^(2^n) in the Montgomery domain, n ≥ 1:
// feSqrN wherever the assembly does not run. n squarings with the
// running value held in locals, which is what an exponentiation chain
// (feSqrt) is made of. For each squaring the six cross products are
// computed once and doubled, then the four shift-only reduction steps
// of feMulGeneric run over the full 512-bit square.
func feSqrNGeneric(z, x *fe, n int) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	for ; n > 0; n-- {
		// Off-diagonal products into t1..t6.
		h01, l01 := bits.Mul64(x0, x1)
		h02, l02 := bits.Mul64(x0, x2)
		h03, l03 := bits.Mul64(x0, x3)
		h12, l12 := bits.Mul64(x1, x2)
		h13, l13 := bits.Mul64(x1, x3)
		h23, l23 := bits.Mul64(x2, x3)

		t1 := l01
		t2, c := bits.Add64(l02, h01, 0)
		t3, c := bits.Add64(l03, h02, c)
		t4, c := bits.Add64(h03, 0, c)
		t5 := c
		t3, c = bits.Add64(t3, l12, 0)
		t4, c = bits.Add64(t4, l13, c)
		t5, _ = bits.Add64(t5, 0, c)
		t4, c = bits.Add64(t4, h12, 0)
		t5, c = bits.Add64(t5, h13, c)
		t6 := c
		t5, c = bits.Add64(t5, l23, 0)
		t6, _ = bits.Add64(t6, h23, c)

		// Double the off-diagonal part and add the diagonal squares.
		t7 := t6 >> 63
		t6 = t6<<1 | t5>>63
		t5 = t5<<1 | t4>>63
		t4 = t4<<1 | t3>>63
		t3 = t3<<1 | t2>>63
		t2 = t2<<1 | t1>>63
		t1 = t1 << 1

		h, t0 := bits.Mul64(x0, x0)
		t1, c = bits.Add64(t1, h, 0)
		h, l := bits.Mul64(x1, x1)
		t2, c = bits.Add64(t2, l, c)
		t3, c = bits.Add64(t3, h, c)
		h, l = bits.Mul64(x2, x2)
		t4, c = bits.Add64(t4, l, c)
		t5, c = bits.Add64(t5, h, c)
		h, l = bits.Mul64(x3, x3)
		t6, c = bits.Add64(t6, l, c)
		t7, _ = bits.Add64(t7, h, c)

		// Four shift-only Montgomery reduction steps over t0..t7; t8
		// catches the final carries (the running value can reach 2p·2^256).
		var t8 uint64

		m := t0
		lo, bb := bits.Sub64(m, m<<32, 0)
		hi := m - m>>32 - bb
		t1, c = bits.Add64(t1, m<<32, 0)
		t2, c = bits.Add64(t2, m>>32, c)
		t3, c = bits.Add64(t3, lo, c)
		t4, c = bits.Add64(t4, hi, c)
		t5, c = bits.Add64(t5, 0, c)
		t6, c = bits.Add64(t6, 0, c)
		t7, c = bits.Add64(t7, 0, c)
		t8 += c

		m = t1
		lo, bb = bits.Sub64(m, m<<32, 0)
		hi = m - m>>32 - bb
		t2, c = bits.Add64(t2, m<<32, 0)
		t3, c = bits.Add64(t3, m>>32, c)
		t4, c = bits.Add64(t4, lo, c)
		t5, c = bits.Add64(t5, hi, c)
		t6, c = bits.Add64(t6, 0, c)
		t7, c = bits.Add64(t7, 0, c)
		t8 += c

		m = t2
		lo, bb = bits.Sub64(m, m<<32, 0)
		hi = m - m>>32 - bb
		t3, c = bits.Add64(t3, m<<32, 0)
		t4, c = bits.Add64(t4, m>>32, c)
		t5, c = bits.Add64(t5, lo, c)
		t6, c = bits.Add64(t6, hi, c)
		t7, c = bits.Add64(t7, 0, c)
		t8 += c

		m = t3
		lo, bb = bits.Sub64(m, m<<32, 0)
		hi = m - m>>32 - bb
		t4, c = bits.Add64(t4, m<<32, 0)
		t5, c = bits.Add64(t5, m>>32, c)
		t6, c = bits.Add64(t6, lo, c)
		t7, c = bits.Add64(t7, hi, c)
		t8 += c

		// Result in t4..t8 is < 2p; subtract p once if needed.
		r0, b := bits.Sub64(t4, feP0, 0)
		r1, b := bits.Sub64(t5, feP1, b)
		r2, b := bits.Sub64(t6, feP2, b)
		r3, b := bits.Sub64(t7, feP3, b)
		_, b = bits.Sub64(t8, 0, b)
		mask := -b
		x0 = t4&mask | r0&^mask
		x1 = t5&mask | r1&^mask
		x2 = t6&mask | r2&^mask
		x3 = t7&mask | r3&^mask
	}
	z[0], z[1], z[2], z[3] = x0, x1, x2, x3
}

// feAdd sets z = x + y mod p, branch-free.
func feAdd(z, x, y *fe) {
	s0, c := bits.Add64(x[0], y[0], 0)
	s1, c := bits.Add64(x[1], y[1], c)
	s2, c := bits.Add64(x[2], y[2], c)
	s3, c := bits.Add64(x[3], y[3], c)
	r0, b := bits.Sub64(s0, feP0, 0)
	r1, b := bits.Sub64(s1, feP1, b)
	r2, b := bits.Sub64(s2, feP2, b)
	r3, b := bits.Sub64(s3, feP3, b)
	_, b = bits.Sub64(c, 0, b)
	mask := -b // borrow set: sum < p, keep the raw sum
	z[0] = s0&mask | r0&^mask
	z[1] = s1&mask | r1&^mask
	z[2] = s2&mask | r2&^mask
	z[3] = s3&mask | r3&^mask
}

// feSub sets z = x − y mod p, branch-free: p is added back under a
// mask only when the raw subtraction borrowed.
func feSub(z, x, y *fe) {
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	mask := -b
	var c uint64
	d0, c = bits.Add64(d0, feP0&mask, 0)
	d1, c = bits.Add64(d1, feP1&mask, c)
	d2, c = bits.Add64(d2, feP2&mask, c)
	d3, _ = bits.Add64(d3, feP3&mask, c)
	z[0], z[1], z[2], z[3] = d0, d1, d2, d3
}

// feDouble sets z = 2x mod p.
func feDouble(z, x *fe) { feAdd(z, x, x) }

// feHalf sets z = x/2 mod p: an odd x has p added first, and the carry
// out of that sum is the halved value's top bit. Halving commutes with
// the Montgomery factor.
func feHalf(z, x *fe) {
	mask := -(x[0] & 1)
	s0, c := bits.Add64(x[0], feP0&mask, 0)
	s1, c := bits.Add64(x[1], feP1&mask, c)
	s2, c := bits.Add64(x[2], feP2&mask, c)
	s3, c := bits.Add64(x[3], feP3&mask, c)
	z[0], z[1], z[2], z[3] = s0>>1|s1<<63, s1>>1|s2<<63, s2>>1|s3<<63, s3>>1|c<<63
}

// feNeg sets z = −x mod p. feSub via zero takes the borrow path for
// any non-zero x and lands on p−x.
func feNeg(z, x *fe) {
	if x.isZero() {
		*z = fe{}
		return
	}
	var zero fe
	feSub(z, &zero, x)
}

// feSqrt sets z = a^((p+1)/4), which is a square root of a if a has
// one (p ≡ 3 mod 4) and of −a if not; the caller squares it to tell.
// (p+1)/4 = 2^254 − 2^222 + 2^190 + 2^94 is reached by the addition
// chain crypto/internal/nistec uses: runs of 2, 4, 8, 16 and 32 ones
// by doubling, then ((x32 << 32 + 1) << 96 + 1) << 94 — 253 squarings
// and 7 multiplications.
func feSqrt(z, a *fe) {
	var t0, t1 fe
	feSqr(&t0, a)
	feMul(&t0, &t0, a) // 2 ones
	feSqrN(&t1, &t0, 2)
	feMul(&t0, &t0, &t1) // 4
	feSqrN(&t1, &t0, 4)
	feMul(&t0, &t0, &t1) // 8
	feSqrN(&t1, &t0, 8)
	feMul(&t0, &t0, &t1) // 16
	feSqrN(&t1, &t0, 16)
	feMul(&t0, &t0, &t1) // 32
	feSqrN(&t0, &t0, 32)
	feMul(&t0, &t0, a)
	feSqrN(&t0, &t0, 96)
	feMul(&t0, &t0, a)
	feSqrN(z, &t0, 94)
}

// feCurveRHS sets z = x³ − 3x + b, the right-hand side of the curve
// equation y² = x³ − 3x + b.
func feCurveRHS(z, x *fe) {
	var x3, t fe
	feSqr(&x3, x)
	feMul(&x3, &x3, x)
	feDouble(&t, x)
	feAdd(&t, &t, x)
	feSub(&x3, &x3, &t)
	feAdd(z, &x3, &feB)
}
