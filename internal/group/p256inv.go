package group

// The field inversion: Bernstein and Yang's divsteps ("Fast
// constant-time gcd computation and modular inversion", TCHES 2019,
// https://eprint.iacr.org/2019/266) in the variable-time form that
// libsecp256k1 ships, 62 divsteps a pass on the low words. It is what
// every batch's one true inversion (feInvChain, fe8InvChain) and every
// lone affine addition run on: ≈ 2 µs, 0.55–0.57 of the time big.Int's
// Lehmer GCD took, with no allocation (EXPERIMENTS.md, "Component
// rows").
//
// Representation: five signed 62-bit limbs, Σ v[i]·2^(62i), every limb
// but the top one in [0, 2^62) once carried. For the input a the
// passes keep d·a ≡ f and e·a ≡ g (mod p), starting from f = p, g = a,
// d = 0, e = 1. Each pass runs 62 divsteps on the low words alone,
// which yields a 2×2 transition scaled by 2^62, and applies it to
// (f, g), whose length shrinks as they do, and to (d, e) mod p. When g
// reaches zero, f is ±1 and ±d is a⁻¹.
//
// Variable-time: the divsteps branch on the operand's bits, and the
// number of passes depends on it. DESIGN.md ("The variable-time trade,
// explicitly") says what that operand is.

import "math/bits"

// s62 is a signed integer in five 62-bit limbs, little-endian.
type s62 [5]int64

const m62 = 1<<62 - 1

// p's limbs in s62. Limb 2 is zero, and p ≡ −1 mod 2^62, so p⁻¹ mod
// 2^62 is −1 and the reduction's quotient needs no multiply.
const (
	invP0 = 0x3fffffffffffffff
	invP1 = 0x3ffffffff
	invP3 = 0x3fffffc000000040
	invP4 = 0xff
)

// feR3 is 2^768 mod p: a Montgomery multiply by it takes the plain
// inverse of x·2^256 to x⁻¹·2^256.
var feR3 = fe{0xfffffffd0000000a, 0xffffffedfffffff7, 0x00000005fffffffc, 0x0000001800000001}

// invTrans is the transition of 62 divsteps, scaled by 2^62: after
// them f·2^62 = u·f₀ + v·g₀ and g·2^62 = q·f₀ + r·g₀.
type invTrans struct{ u, v, q, r int64 }

// i128 is a signed 128-bit accumulator, two's complement.
type i128 struct{ hi, lo uint64 }

// mul128 is the signed product a·b: the unsigned one, with each
// negative factor's wrap taken back out of the high word.
func mul128(a, b int64) i128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	return i128{hi, lo}
}

func (x i128) add(y i128) i128 {
	lo, c := bits.Add64(x.lo, y.lo, 0)
	return i128{x.hi + y.hi + c, lo}
}

// shr62 is x >> 62, arithmetic.
func (x i128) shr62() i128 { return i128{uint64(int64(x.hi) >> 62), x.lo>>62 | x.hi<<2} }

// divsteps62 runs 62 divsteps on the low words f0 (odd) and g0 and
// returns the new eta (−δ of the paper) and their transition. A run of zeros at the bottom
// of g is skipped at once, and each odd step cancels up to six bits of
// g with one multiple of f: up to four where eta stays non-negative,
// where it tends to be small.
func divsteps62(eta int64, f0, g0 uint64) (int64, invTrans) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := uint(62)
	for {
		// The sentinel bit stops the count at the steps that are left.
		// (Shift counts are masked to 63, below which they all are, so
		// that the compiler emits no check for wider ones.)
		zeros := uint(bits.TrailingZeros64(g|1<<(i&63))) & 63
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		// f and g are odd. No more than i bits may be cancelled, nor
		// more than eta+1, after which eta's sign flips again.
		var m, w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			limit := min(uint(eta)+1, i)
			m = (1<<(limit&63) - 1) & 63
			w = f * g * (f*f - 2) & m
		} else {
			limit := min(uint(eta)+1, i)
			m = (1<<(limit&63) - 1) & 15
			w = f + (f+1)&4<<1
			w = -w * g & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, invTrans{int64(u), int64(v), int64(q), int64(r)}
}

// updateDE sets (d, e) = t·(d, e)/2^62 mod p, each kept in (−2p, p): a
// multiple of p that clears the low 62 bits is added before the shift.
func updateDE(d, e *s62, t *invTrans) {
	d0, d1, d2, d3, d4 := d[0], d[1], d[2], d[3], d[4]
	e0, e1, e2, e3, e4 := e[0], e[1], e[2], e[3], e[4]
	u, v, q, r := t.u, t.v, t.q, t.r
	// A negative d or e takes on p once more, which keeps the result
	// above −2p.
	sd, se := d4>>63, e4>>63
	md := u&sd + v&se
	me := q&sd + r&se
	cd := mul128(u, d0).add(mul128(v, e0))
	ce := mul128(q, d0).add(mul128(r, e0))
	// With p⁻¹ ≡ −1 mod 2^62, the multiple that clears 62 bits of
	// cd + p·md is md − cd mod 2^62 less.
	md -= int64((uint64(md) - cd.lo) & m62)
	me -= int64((uint64(me) - ce.lo) & m62)
	cd = cd.add(mul128(invP0, md)).shr62()
	ce = ce.add(mul128(invP0, me)).shr62()

	cd = cd.add(mul128(u, d1)).add(mul128(v, e1)).add(mul128(invP1, md))
	ce = ce.add(mul128(q, d1)).add(mul128(r, e1)).add(mul128(invP1, me))
	d[0], e[0] = int64(cd.lo&m62), int64(ce.lo&m62)
	cd, ce = cd.shr62(), ce.shr62()

	cd = cd.add(mul128(u, d2)).add(mul128(v, e2))
	ce = ce.add(mul128(q, d2)).add(mul128(r, e2))
	d[1], e[1] = int64(cd.lo&m62), int64(ce.lo&m62)
	cd, ce = cd.shr62(), ce.shr62()

	cd = cd.add(mul128(u, d3)).add(mul128(v, e3)).add(mul128(invP3, md))
	ce = ce.add(mul128(q, d3)).add(mul128(r, e3)).add(mul128(invP3, me))
	d[2], e[2] = int64(cd.lo&m62), int64(ce.lo&m62)
	cd, ce = cd.shr62(), ce.shr62()

	cd = cd.add(mul128(u, d4)).add(mul128(v, e4)).add(mul128(invP4, md))
	ce = ce.add(mul128(q, d4)).add(mul128(r, e4)).add(mul128(invP4, me))
	d[3], e[3] = int64(cd.lo&m62), int64(ce.lo&m62)
	cd, ce = cd.shr62(), ce.shr62()
	d[4], e[4] = int64(cd.lo), int64(ce.lo)
}

// updateFG sets (f, g) = t·(f, g)/2^62 on their low n limbs, which
// hold them whole: the division is exact.
func updateFG(n int, f, g *s62, t *invTrans) {
	u, v, q, r := t.u, t.v, t.q, t.r
	cf := mul128(u, f[0]).add(mul128(v, g[0])).shr62()
	cg := mul128(q, f[0]).add(mul128(r, g[0])).shr62()
	for i := 1; i < n; i++ {
		fi, gi := f[i], g[i]
		cf = cf.add(mul128(u, fi)).add(mul128(v, gi))
		cg = cg.add(mul128(q, fi)).add(mul128(r, gi))
		f[i-1], g[i-1] = int64(cf.lo&m62), int64(cg.lo&m62)
		cf, cg = cf.shr62(), cg.shr62()
	}
	f[n-1], g[n-1] = int64(cf.lo), int64(cg.lo)
}

// normalize takes d from (−2p, p) to [0, p), negated first if sign is
// negative, with every limb carried into [0, 2^62).
func (d *s62) normalize(sign int64) {
	r0, r1, r2, r3, r4 := d[0], d[1], d[2], d[3], d[4]
	// Add p if negative, then negate on sign: (−p, p).
	add := r4 >> 63
	r0 += invP0 & add
	r1 += invP1 & add
	r3 += invP3 & add
	r4 += invP4 & add
	neg := sign >> 63
	r0 = (r0 ^ neg) - neg
	r1 = (r1 ^ neg) - neg
	r2 = (r2 ^ neg) - neg
	r3 = (r3 ^ neg) - neg
	r4 = (r4 ^ neg) - neg
	r1 += r0 >> 62
	r0 &= m62
	r2 += r1 >> 62
	r1 &= m62
	r3 += r2 >> 62
	r2 &= m62
	r4 += r3 >> 62
	r3 &= m62
	// Add p once more if still negative: [0, p).
	add = r4 >> 63
	r0 += invP0 & add
	r1 += invP1 & add
	r3 += invP3 & add
	r4 += invP4 & add
	r1 += r0 >> 62
	r0 &= m62
	r2 += r1 >> 62
	r1 &= m62
	r3 += r2 >> 62
	r2 &= m62
	r4 += r3 >> 62
	r3 &= m62
	*d = s62{r0, r1, r2, r3, r4}
}

// feInv sets z to the Montgomery-domain inverse of a non-zero x; z may
// alias x. x's limbs are a = x·2^256 as an integer, and feR3 takes
// a⁻¹ = x⁻¹·2^−256 to x⁻¹·2^256 in one multiply.
func feInv(z, x *fe) {
	if x.isZero() {
		panic("group: inverse of zero field element")
	}
	f := s62{invP0, invP1, 0, invP3, invP4}
	g := s62{
		int64(x[0] & m62),
		int64((x[0]>>62 | x[1]<<2) & m62),
		int64((x[1]>>60 | x[2]<<4) & m62),
		int64((x[2]>>58 | x[3]<<6) & m62),
		int64(x[3] >> 56),
	}
	d, e := s62{}, s62{1}
	eta, n := int64(-1), 5
	for {
		var t invTrans
		eta, t = divsteps62(eta, uint64(f[0]), uint64(g[0]))
		updateDE(&d, &e, &t)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 {
			rest := int64(0)
			for _, gi := range g[1:n] {
				rest |= gi
			}
			if rest == 0 {
				break
			}
		}
		// Drop the top limb while it is only the sign of the one below,
		// in f and g both.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && (fn^fn>>63)|(gn^gn>>63) == 0 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	// g is zero and f is ±gcd = ±1.
	d.normalize(f[n-1])
	a := fe{
		uint64(d[0]) | uint64(d[1])<<62,
		uint64(d[1])>>2 | uint64(d[2])<<60,
		uint64(d[2])>>4 | uint64(d[3])<<58,
		uint64(d[3])>>6 | uint64(d[4])<<56,
	}
	feMul(z, &a, &feR3)
}
