package group

// Eight field elements at a time, for BatchMul's kernel on CPUs with
// AVX-512 IFMA: every lane of a kernel step runs the same operation
// sequence, so eight lanes can run it side by side. The arithmetic is
// four assembly primitives in p256fe8_amd64.s — multiply, multiply by
// a broadcast constant, subtract, negate — and this file is what they
// need around them: the representation, its conversions to and from
// fe, and an inversion chain per SIMD slot.
//
// Representation: five 52-bit limbs, little-endian, in the Montgomery
// domain with R = 2^260 (an fe's value·2^256 times 16), each value
// below 2p rather than fully reduced; limb-major, so that one ZMM
// register holds one limb of all eight lanes. The conversions are
// exact: fe8Get returns the same canonical fe that fe8Put was given
// for the same field element.

import "math/bits"

// fe8 is eight field elements, fe8[j][l] being limb j of lane l.
type fe8 [5][8]uint64

// feIFMA is whether BatchMul's kernel runs on fe8: CPUID's and
// XGETBV's answer on amd64 (AVX-512F and IFMA, with the OS saving the
// ZMM and opmask state), read once here, and false on every other
// GOARCH. Where it is false the kernel runs on fe, one lane at a time;
// the two give identical results (TestFieldDispatch), and nothing else
// selects between them.
var feIFMA = feHasIFMA()

const fe8Mask = 1<<52 - 1

var (
	// fe8One is 1 in every lane, the inversion chain's start and the
	// tangent's constant.
	fe8One = fe8Broadcast(fe8Limbs(&feOne))
	// fe8ThreeHalves is 3/2, which the tangent's inverse takes on.
	fe8ThreeHalves = fe8Limbs(func() *fe {
		var t fe
		feDouble(&t, &feOne)
		feAdd(&t, &t, &feOne)
		feHalf(&t, &t)
		return &t
	}())
)

// fe8Limbs converts a canonical fe into the five limbs of one lane:
// x·2^260 is x's Montgomery form doubled four times.
func fe8Limbs(x *fe) [5]uint64 {
	t := *x
	for range 4 {
		feDouble(&t, &t)
	}
	return [5]uint64{
		t[0] & fe8Mask,
		(t[0]>>52 | t[1]<<12) & fe8Mask,
		(t[1]>>40 | t[2]<<24) & fe8Mask,
		(t[2]>>28 | t[3]<<36) & fe8Mask,
		t[3] >> 16,
	}
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

// fe8Get returns lane l of x as a canonical fe: the limbs joined, p
// subtracted once if the value is not below it, and halved four times.
func fe8Get(x *fe8, l int) fe {
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
	z := fe{t0&mask | r0&^mask, t1&mask | r1&^mask, t2&mask | r2&^mask, t3&mask | r3&^mask}
	for range 4 {
		feHalf(&z, &z)
	}
	return z
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
// eight totals share one feBatchInv, so a chain still costs one true
// inversion; no slot's total may be zero.
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

func (c *fe8InvChain) invert() {
	n := len(c.prefix) - 1
	var tot [17]fe // eight totals, then feBatchInv's scratch
	for l := range 8 {
		tot[l] = fe8Get(&c.prefix[n], l)
	}
	feBatchInv(tot[:8], tot[8:])
	for l := range 8 {
		fe8Put(&c.run, l, &tot[l])
	}
	c.prefix = c.prefix[:n]
}

func (c *fe8InvChain) inverse(dinv *fe8) { fe8Mul(dinv, &c.run, &c.prefix[len(c.prefix)-1]) }

func (c *fe8InvChain) drop(d *fe8) {
	fe8Mul(&c.run, &c.run, d)
	c.prefix = c.prefix[:len(c.prefix)-1]
}
