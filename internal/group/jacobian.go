package group

// Jacobian-coordinate P-256 points over the fe field, used by the
// multi-scalar multiplication. (X:Y:Z) represents the affine point
// (X/Z², Y/Z³); the identity is any point with Z = 0. Formulas are
// the standard a=−3 ones from the EFD (dbl-2001-b, add-2007-bl,
// madd-2007-bl) with explicit handling of the exceptional cases —
// MSM inputs are adversarial submissions, so doubling and cancelling
// inputs must fold correctly rather than "never happen".

// affinePoint is a table/input entry: affine coordinates in the
// Montgomery domain, 64 bytes. A negative signed digit negates y on
// lookup (one feNeg against a mixed addition's eleven multiplications)
// rather than storing −y beside it, which would make every table half
// as large again. Never the identity (identity inputs are filtered out
// by the MSM before building tables).
type affinePoint struct {
	x, y fe
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

// newAffinePoint converts a non-identity Point into table form.
func newAffinePoint(pt Point) affinePoint {
	return affinePoint{x: feFromBig(pt.x), y: feFromBig(pt.y)}
}

// toPoint converts back to the package's affine big.Int Point. The
// single field inversion per chain lives here; everything around it
// stays in the fe domain, so the conversion costs one inversion plus
// four field mults rather than a chain of big.Int modular ops.
func (p *jacPoint) toPoint() Point {
	if p.isIdentity() {
		return Point{}
	}
	var zinv, zi2, zi3, xf, yf fe
	feInv(&zinv, &p.z)
	feSqr(&zi2, &zinv)
	feMul(&zi3, &zi2, &zinv)
	feMul(&xf, &p.x, &zi2)
	feMul(&yf, &p.y, &zi3)
	return Point{x: xf.toBig(), y: yf.toBig()}
}

// double sets p = 2p (dbl-2001-b, a = −3).
func (p *jacPoint) double() {
	if p.isIdentity() {
		return
	}
	var delta, gamma, beta, alpha, t1, t2 fe
	feSqr(&delta, &p.z)        // delta = Z²
	feSqr(&gamma, &p.y)        // gamma = Y²
	feMul(&beta, &p.x, &gamma) // beta = X·gamma
	feSub(&t1, &p.x, &delta)   // X − delta
	feAdd(&t2, &p.x, &delta)   // X + delta
	feMul(&alpha, &t1, &t2)    // (X−delta)(X+delta)
	feDouble(&t1, &alpha)
	feAdd(&alpha, &t1, &alpha) // alpha = 3(X−delta)(X+delta)

	var x3, y3, z3 fe
	feSqr(&x3, &alpha) // alpha²
	feDouble(&t1, &beta)
	feDouble(&t1, &t1)
	feDouble(&t1, &t1)   // 8beta
	feSub(&x3, &x3, &t1) // X3 = alpha² − 8beta

	feAdd(&z3, &p.y, &p.z)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &gamma)
	feSub(&z3, &z3, &delta) // Z3 = (Y+Z)² − gamma − delta

	feDouble(&t1, &beta)
	feDouble(&t1, &t1)      // 4beta
	feSub(&t1, &t1, &x3)    // 4beta − X3
	feMul(&y3, &alpha, &t1) // alpha(4beta − X3)
	feSqr(&t2, &gamma)      // gamma²
	feDouble(&t2, &t2)
	feDouble(&t2, &t2)
	feDouble(&t2, &t2)   // 8gamma²
	feSub(&y3, &y3, &t2) // Y3 = alpha(4beta−X3) − 8gamma²

	p.x, p.y, p.z = x3, y3, z3
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
// (madd-2007-bl, Z2 = 1). This is the hot call of the MSM bucket
// accumulation: 7M + 4S instead of the full add's 11M + 5S.
func (p *jacPoint) addAffine(a *affinePoint, neg bool) {
	if p.isIdentity() {
		p.fromAffine(a, neg)
		return
	}
	ay := a.y
	if neg {
		feNeg(&ay, &ay)
	}
	var z1z1, u2, s2, h, r, t fe
	feSqr(&z1z1, &p.z)
	feMul(&u2, &a.x, &z1z1)
	feMul(&t, &p.z, &z1z1)
	feMul(&s2, &ay, &t)
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

	var hh, i, j, v, x3, y3, z3 fe
	feSqr(&hh, &h) // HH = H²
	feDouble(&i, &hh)
	feDouble(&i, &i)    // I = 4HH
	feMul(&j, &h, &i)   // J = H·I
	feDouble(&r, &r)    // r = 2(S2−Y1)
	feMul(&v, &p.x, &i) // V = X1·I

	feSqr(&x3, &r)
	feSub(&x3, &x3, &j)
	feSub(&x3, &x3, &v)
	feSub(&x3, &x3, &v) // X3 = r² − J − 2V

	feSub(&y3, &v, &x3)
	feMul(&y3, &r, &y3)
	feMul(&t, &p.y, &j)
	feDouble(&t, &t)
	feSub(&y3, &y3, &t) // Y3 = r(V−X3) − 2·Y1·J

	feAdd(&z3, &p.z, &h)
	feSqr(&z3, &z3)
	feSub(&z3, &z3, &z1z1)
	feSub(&z3, &z3, &hh) // Z3 = (Z1+H)² − Z1Z1 − HH

	p.x, p.y, p.z = x3, y3, z3
}
