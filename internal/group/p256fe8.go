package group

// Eight field elements at a time, for CPUs with AVX-512 IFMA: the
// kernel of BatchMul (batchmul.go) and the tree sum behind BatchDH and
// BatchBase (fixedbase.go) run the same operation sequence on every
// lane, so eight lanes can run it side by side. The arithmetic is four
// assembly primitives in p256fe8_amd64.s — multiply, multiply by a
// broadcast constant, subtract, negate — and this file is what they
// need around them: the representation, its conversions to and from
// fe, an inversion chain per SIMD slot, and the chord and Jacobian
// formulas on eight lanes.
//
// Representation: five 52-bit limbs, little-endian, in the Montgomery
// domain with R = 2^260 (an fe's value·2^256 times 16), each value
// below 2p rather than fully reduced; limb-major, so that one ZMM
// register holds one limb of all eight lanes. The conversions are
// exact: fe8Get returns the same canonical fe that fe8Put was given
// for the same field element. On the hot paths a whole fe8 enters the
// domain with one fe8MulConst instead: an fe's limbs split into a lane
// as they are (fe8SetRaw) and multiplied by 2^264 (fe8FromRaw) land on
// R = 2^260.

import "math/bits"

// fe8 is eight field elements, fe8[j][l] being limb j of lane l.
type fe8 [5][8]uint64

// feIFMA is whether BatchMul's kernel and the tree sum run on fe8:
// CPUID's and XGETBV's answer on amd64 (AVX-512F and IFMA, with the OS
// saving the ZMM and opmask state), read once here, and false on every
// other GOARCH. Where it is false both run on fe, one lane at a time;
// the two give identical results (TestFieldDispatch), and nothing else
// selects between them.
var feIFMA = feHasIFMA()

const fe8Mask = 1<<52 - 1

var (
	// fe8One is 1 in every lane, the inversion chain's start, the
	// tangent's constant and a dummy denominator.
	fe8One = fe8Broadcast(fe8Limbs(&feOne))
	// fe8ThreeHalves is 3/2, which the tangent's inverse takes on;
	// fe8Three and fe8Half are the Jacobian doubling's constants.
	fe8ThreeHalves = fe8Limbs(func() *fe {
		var t fe
		feDouble(&t, &feOne)
		feAdd(&t, &t, &feOne)
		feHalf(&t, &t)
		return &t
	}())
	fe8Three = fe8Limbs(func() *fe {
		var t fe
		feDouble(&t, &feOne)
		feAdd(&t, &t, &feOne)
		return &t
	}())
	fe8Half = fe8Limbs(func() *fe {
		var t fe
		feHalf(&t, &feOne)
		return &t
	}())
	// fe8FromRaw (2^264) takes lanes holding an fe's limbs as they are,
	// x·2^256, to x·2^260; fe8InvFix (2^268) takes the raw limbs of
	// feBatchInv's answer for a lane joined as it is, t^−1·2^252, to
	// t^−1·2^260.
	fe8FromRaw = fe8Pow2(264)
	fe8InvFix  = fe8Pow2(268)
	// fe8P is p, the other way a lane below 2p can hold zero.
	fe8P = fe8Split(&fe{feP0, feP1, feP2, feP3})
)

// fe8Split splits x's four limbs, as they are, into five 52-bit ones.
func fe8Split(x *fe) [5]uint64 {
	return [5]uint64{
		x[0] & fe8Mask,
		(x[0]>>52 | x[1]<<12) & fe8Mask,
		(x[1]>>40 | x[2]<<24) & fe8Mask,
		(x[2]>>28 | x[3]<<36) & fe8Mask,
		x[3] >> 16,
	}
}

// fe8Pow2 is 2^k mod p as limbs, the integer and not its Montgomery
// form, k ≥ 256: an fe8MulConst by it multiplies a value by 2^(k−260).
func fe8Pow2(k int) [5]uint64 {
	t := feOne // the integer 2^256 mod p
	for range k - 256 {
		feDouble(&t, &t)
	}
	return fe8Split(&t)
}

// fe8Limbs converts a canonical fe into the five limbs of one lane:
// x·2^260 is x's Montgomery form doubled four times.
func fe8Limbs(x *fe) [5]uint64 {
	t := *x
	for range 4 {
		feDouble(&t, &t)
	}
	return fe8Split(&t)
}

func fe8Broadcast(l [5]uint64) fe8 {
	var z fe8
	for j := range z {
		for s := range z[j] {
			z[j][s] = l[j]
		}
	}
	return z
}

// fe8Put sets lane l of z to x.
func fe8Put(z *fe8, l int, x *fe) {
	for j, v := range fe8Limbs(x) {
		z[j][l] = v
	}
}

// fe8SetRaw sets lane l of z to x's limbs as they are: x·2^256 read as
// an fe8 value, for fe8FromRaw to finish. It is fe8Split written
// straight into the lane: copying fe8Split's array in stalls on store
// forwarding, the largest single cost a CPU profile of the tree's load
// showed.
func fe8SetRaw(z *fe8, l int, x *fe) {
	z[0][l] = x[0] & fe8Mask
	z[1][l] = (x[0]>>52 | x[1]<<12) & fe8Mask
	z[2][l] = (x[1]>>40 | x[2]<<24) & fe8Mask
	z[3][l] = (x[2]>>28 | x[3]<<36) & fe8Mask
	z[4][l] = x[3] >> 16
}

// fe8Join returns lane l of x, a value below 2p, as four limbs below
// p: the limbs joined and p subtracted once if the value is not below
// it. The domain does not change.
func fe8Join(x *fe8, l int) fe {
	l0, l1, l2, l3, l4 := x[0][l], x[1][l], x[2][l], x[3][l], x[4][l]
	t0 := l0 | l1<<52
	t1 := l1>>12 | l2<<40
	t2 := l2>>24 | l3<<28
	t3 := l3>>36 | l4<<16
	t4 := l4 >> 48
	r0, b := bits.Sub64(t0, feP0, 0)
	r1, b := bits.Sub64(t1, feP1, b)
	r2, b := bits.Sub64(t2, feP2, b)
	r3, b := bits.Sub64(t3, feP3, b)
	_, b = bits.Sub64(t4, 0, b)
	mask := -b // borrow set: below p, keep t
	return fe{t0&mask | r0&^mask, t1&mask | r1&^mask, t2&mask | r2&^mask, t3&mask | r3&^mask}
}

// fe8Get returns lane l of x as a canonical fe: joined, and halved
// four times.
func fe8Get(x *fe8, l int) fe {
	z := fe8Join(x, l)
	for range 4 {
		feHalf(&z, &z)
	}
	return z
}

// fe8Zero returns the lanes of x, each below 2p, that hold zero: all
// limbs 0, or all p's.
func fe8Zero(x *fe8) (zero uint8) {
	for l := range 8 {
		if x[0][l]|x[1][l]|x[2][l]|x[3][l]|x[4][l] == 0 ||
			x[0][l] == fe8P[0] && x[1][l] == fe8P[1] && x[2][l] == fe8P[2] && x[3][l] == fe8P[3] && x[4][l] == fe8P[4] {
			zero |= 1 << l
		}
	}
	return zero
}

// fe8Chord is feChord on eight lanes; x and t are its scratch, which
// the caller owns so that nothing is zeroed a call.
func fe8Chord(x3, y3, lam, xa, ya, xb, x, t *fe8) {
	fe8Mul(x, lam, lam)
	fe8Sub(x, x, xa)
	fe8Sub(x, x, xb)
	fe8Sub(t, xa, x)
	fe8Mul(t, lam, t)
	fe8Sub(y3, t, ya)
	*x3 = *x
}

// fe8InvChain is feInvChain with a chain per SIMD slot. The slots'
// eight totals share one feInv, so a chain still costs one true
// inversion.
type fe8InvChain struct {
	prefix []fe8
	run    fe8
}

func (c *fe8InvChain) reset(buf []fe8) { c.prefix = append(buf[:0], fe8One) }

func (c *fe8InvChain) push(d *fe8) {
	n := len(c.prefix)
	c.prefix = c.prefix[:n+1]
	fe8Mul(&c.prefix[n], &c.prefix[n-1], d)
}

// invert is the chains' one true inversion. It returns the slots
// whose total is zero — some push had a zero lane there — and then
// inverts nothing: the chain is spent and must be reset. The totals
// cross to fe and back as raw limbs (fe8Join, fe8SetRaw), which leaves
// each inverse off by 2^−8; one fe8MulConst by fe8InvFix puts it back.
// The eight totals share their inversion by the Montgomery trick
// written out on fixed arrays, which stay on the stack where
// feBatchInv's scratch would not.
func (c *fe8InvChain) invert() (zero uint8) {
	n := len(c.prefix) - 1
	var tot, pre [8]fe // the totals, and pre[l] = tot[0]·…·tot[l]
	for l := range 8 {
		tot[l] = fe8Join(&c.prefix[n], l)
		if tot[l].isZero() {
			zero |= 1 << l
		}
	}
	if zero != 0 {
		return zero
	}
	pre[0] = tot[0]
	for l := 1; l < 8; l++ {
		feMul(&pre[l], &pre[l-1], &tot[l])
	}
	var inv, t fe // inv is 1/(tot[0]·…·tot[l]) at lane l
	feInv(&inv, &pre[7])
	for l := 7; l > 0; l-- {
		feMul(&t, &inv, &pre[l-1])
		fe8SetRaw(&c.run, l, &t)
		feMul(&inv, &inv, &tot[l])
	}
	fe8SetRaw(&c.run, 0, &inv)
	fe8MulConst(&c.run, &c.run, &fe8InvFix)
	c.prefix = c.prefix[:n]
	return 0
}

func (c *fe8InvChain) inverse(dinv *fe8) { fe8Mul(dinv, &c.run, &c.prefix[len(c.prefix)-1]) }

func (c *fe8InvChain) drop(d *fe8) {
	fe8Mul(&c.run, &c.run, d)
	c.prefix = c.prefix[:len(c.prefix)-1]
}

// jac8 is eight Jacobian points, one a lane, and the scratch their
// formulas use (a temporary declared in them would be zeroed a call).
// Its two operations are jacPoint's double and addAffine on eight
// lanes, for accumulators that are never the identity.
type jac8 struct {
	x, y, z fe8
	t       [4]fe8
}

// double sets p = 2p, with jacPoint.double's formulas.
func (p *jac8) double() {
	d, a, b, c := &p.t[0], &p.t[1], &p.t[2], &p.t[3]
	fe8Mul(d, &p.z, &p.z) // δ = Z²
	fe8Neg(a, &p.y)
	fe8Sub(a, &p.y, a)    // 2Y
	fe8Mul(&p.z, a, &p.z) // Z3 = 2YZ
	fe8Mul(a, a, a)       // 4Y²
	fe8Mul(b, a, &p.x)    // S
	fe8Mul(a, a, a)
	fe8MulConst(a, a, &fe8Half) // 8Y⁴
	fe8Neg(c, d)
	fe8Sub(c, &p.x, c) // X+δ
	fe8Sub(d, &p.x, d) // X−δ
	fe8Mul(c, c, d)
	fe8MulConst(c, c, &fe8Three) // M
	fe8Mul(&p.x, c, c)
	fe8Sub(&p.x, &p.x, b)
	fe8Sub(&p.x, &p.x, b) // X3 = M² − 2S
	fe8Sub(b, b, &p.x)
	fe8Mul(b, b, c)
	fe8Sub(&p.y, b, a) // Y3 = M(S−X3) − 8Y⁴
}

// addAffine sets p = p + (x, y), with jacPoint.addAffine's formulas,
// and returns the lanes where H is zero: there the two points share x,
// the sum is a doubling or the identity, which the formulas do not
// give, and the lane holds garbage.
func (p *jac8) addAffine(x, y *fe8) (hzero uint8) {
	z2, u, h, r := &p.t[0], &p.t[1], &p.t[2], &p.t[3]
	fe8Mul(z2, &p.z, &p.z)
	fe8Mul(u, x, z2)     // U2 = x·Z²
	fe8Mul(z2, z2, &p.z) // Z³
	fe8Mul(z2, y, z2)    // S2 = y·Z³
	fe8Sub(h, u, &p.x)   // H
	fe8Sub(r, z2, &p.y)  // R
	hzero = fe8Zero(h)
	fe8Mul(&p.z, &p.z, h) // Z3 = Z·H
	fe8Mul(z2, h, h)      // H²
	fe8Mul(h, z2, h)      // H³
	fe8Mul(u, &p.x, z2)   // V = X·H²
	fe8Mul(&p.x, r, r)
	fe8Sub(&p.x, &p.x, h)
	fe8Sub(&p.x, &p.x, u)
	fe8Sub(&p.x, &p.x, u) // X3 = R² − H³ − 2V
	fe8Sub(u, u, &p.x)
	fe8Mul(u, u, r)
	fe8Mul(h, &p.y, h)
	fe8Sub(&p.y, u, h) // Y3 = R(V−X3) − Y·H³
	return hzero
}
