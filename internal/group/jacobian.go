package group

// Jacobian-coordinate P-256 points over the fe field: what the
// multi-scalar multiplication, the table walks and the ladder
// accumulate in. (X:Y:Z) represents the affine point
// (X/Z², Y/Z³); the identity is any point with Z = 0. Formulas are
// the standard a=−3 ones (the full addition is the EFD's add-2007-bl;
// the doubling and the mixed addition are the textbook forms with the
// fewest field additions) with explicit handling of the exceptional
// cases — MSM inputs are adversarial submissions, so doubling and
// cancelling inputs must fold correctly rather than "never happen".

// affinePoint is affine coordinates in the Montgomery domain, 64 bytes:
// a Point's element and a table entry. A negative signed digit negates
// y on lookup (one feNeg against a mixed addition's eleven
// multiplications) rather than storing −y beside it, which would make
// every table half as large again. (0, 0) stands for the identity in a
// Point; tables and MSM inputs never hold it.
type affinePoint struct {
	x, y fe
}

// feTangentNum sets z = 3(x²−1), the numerator of the tangent's slope
// 3(x²−1)/(2y) at (x, y) with a = −3 folded in. The denominator is
// never zero: the group order is odd, so no point has order two.
func feTangentNum(z, x *fe) {
	var t fe
	feSqr(&t, x)
	feSub(&t, &t, &feOne)
	feDouble(z, &t)
	feAdd(z, z, &t)
}

// feChord sets (x3, y3) to the sum of (xa, ya) and a point at xb, given
// the slope lam of the line through them (a tangent when the two are
// one point): x₃ = λ²−x_a−x_b, y₃ = λ(x_a−x₃)−y_a. The outputs may alias
// the inputs.
func feChord(x3, y3, lam, xa, ya, xb *fe) {
	var x, t fe
	feSqr(&x, lam)
	feSub(&x, &x, xa)
	feSub(&x, &x, xb)
	feSub(&t, xa, &x)
	feMul(&t, lam, &t)
	feSub(y3, &t, ya)
	*x3 = x
}

// jacPoint is a working point in Jacobian coordinates.
type jacPoint struct {
	x, y, z fe
}

func (p *jacPoint) isIdentity() bool { return p.z.isZero() }

func (p *jacPoint) setIdentity() { *p = jacPoint{} }

// fromAffine loads an affinePoint (Z = 1 in the Montgomery domain).
func (p *jacPoint) fromAffine(a *affinePoint, neg bool) {
	p.x = a.x
	p.y = a.y
	if neg {
		feNeg(&p.y, &p.y)
	}
	p.z = feOne
}

// toPoint converts back to an affine Point: the single field inversion
// of a chain, plus four field multiplications.
func (p *jacPoint) toPoint() Point {
	if p.isIdentity() {
		return Point{}
	}
	var zinv fe
	feInv(&zinv, &p.z)
	var out Point
	normalize(&out.affinePoint, p, &zinv)
	return out
}

// double sets p = 2p for a = −3: M = 3(X−Z²)(X+Z²), S = 4XY²,
// X3 = M² − 2S, Y3 = M(S−X3) − 8Y⁴, Z3 = 2YZ, arranged around 2Y the way
// ecp_nistz256 does so that ten field additions serve the four
// multiplications and four squarings (dbl-2001-b spends seventeen on
// its 3M + 5S, and an addition is a quarter of a multiplication here).
func (p *jacPoint) double() {
	if p.isIdentity() {
		return
	}
	var delta, y2, y4, s, m, t fe
	feSqr(&delta, &p.z)
	feDouble(&y2, &p.y)
	feMul(&p.z, &y2, &p.z) // Z3 = 2YZ
	feSqr(&y2, &y2)        // 4Y²
	feMul(&s, &y2, &p.x)   // S
	feSqr(&y4, &y2)
	feHalf(&y4, &y4) // 8Y⁴
	feAdd(&m, &p.x, &delta)
	feSub(&t, &p.x, &delta)
	feMul(&m, &m, &t)
	feDouble(&t, &m)
	feAdd(&m, &m, &t) // M
	feSqr(&p.x, &m)
	feDouble(&t, &s)
	feSub(&p.x, &p.x, &t) // X3
	feSub(&s, &s, &p.x)
	feMul(&s, &s, &m)
	feSub(&p.y, &s, &y4) // Y3
}

// add sets p = p + q for a full Jacobian q (add-2007-bl).
func (p *jacPoint) add(q *jacPoint) {
	if q.isIdentity() {
		return
	}
	if p.isIdentity() {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r, t fe
	feSqr(&z1z1, &p.z)
	feSqr(&z2z2, &q.z)
	feMul(&u1, &p.x, &z2z2)
	feMul(&u2, &q.x, &z1z1)
	feMul(&t, &q.z, &z2z2)
	feMul(&s1, &p.y, &t)
	feMul(&t, &p.z, &z1z1)
	feMul(&s2, &q.y, &t)
	feSub(&h, &u2, &u1)
	feSub(&r, &s2, &s1)

	if h.isZero() {
		if r.isZero() {
			p.double()
			return
		}
		p.setIdentity()
		return
	}

	var i, j, v, x3, y3, z3 fe
	feDouble(&t, &h)
	feSqr(&i, &t)      // I = (2H)²
	feMul(&j, &h, &i)  // J = H·I
	feDouble(&r, &r)   // r = 2(S2−S1)
	feMul(&v, &u1, &i) // V = U1·I

	feSqr(&x3, &r)
	feSub(&x3, &x3, &j)
	feSub(&x3, &x3, &v)
	feSub(&x3, &x3, &v) // X3 = r² − J − 2V

	feSub(&y3, &v, &x3)
	feMul(&y3, &r, &y3)
	feMul(&t, &s1, &j)
	feDouble(&t, &t)
	feSub(&y3, &y3, &t) // Y3 = r(V−X3) − 2·S1·J

	feAdd(&z3, &p.z, &q.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &z2z2)
	feMul(&z3, &z3, &h) // Z3 = ((Z1+Z2)² − Z1Z1 − Z2Z2)·H

	p.x, p.y, p.z = x3, y3, z3
}

// addAffine sets p = p + (a, possibly negated) for an affine input
// (Z2 = 1): H = x₂Z² − X, R = y₂Z³ − Y, Z3 = Z·H, X3 = R² − H³ − 2XH²,
// Y3 = R(XH² − X3) − YH³. This is the hot call of the MSM bucket
// accumulation, the table walks and the ladder: 8M + 3S and seven
// additions against the full add's 11M + 5S (madd-2007-bl trades one of
// the multiplications for a squaring and seven more additions).
func (p *jacPoint) addAffine(a *affinePoint, neg bool) {
	if p.isIdentity() {
		p.fromAffine(a, neg)
		return
	}
	ay := a.y
	if neg {
		feNeg(&ay, &ay)
	}
	var z2, u2, s2, h, r fe
	feSqr(&z2, &p.z)
	feMul(&u2, &a.x, &z2)
	feMul(&s2, &p.z, &z2)
	feMul(&s2, &ay, &s2)
	feSub(&h, &u2, &p.x)
	feSub(&r, &s2, &p.y)

	if h.isZero() {
		if r.isZero() {
			p.double()
			return
		}
		p.setIdentity()
		return
	}

	var h2, h3, v, t fe
	feSqr(&h2, &h)
	feMul(&h3, &h2, &h)
	feMul(&v, &p.x, &h2)
	feMul(&p.z, &p.z, &h) // Z3
	feSqr(&p.x, &r)
	feSub(&p.x, &p.x, &h3)
	feDouble(&t, &v)
	feSub(&p.x, &p.x, &t) // X3
	feSub(&v, &v, &p.x)
	feMul(&v, &v, &r)
	feMul(&t, &p.y, &h3)
	feSub(&p.y, &v, &t) // Y3
}
