package group

// Batch Jacobian→affine conversion via the Montgomery inversion
// trick: instead of one field inversion per point (~2.6µs each), the
// batch pays a single inversion plus three multiplications per point.
// This is the shared seam behind everything that materializes many
// points at once — fixed-base table construction, BatchBase results,
// the Straus MSM's per-point multiple tables, and Product.

// feInv sets z to the Montgomery-domain inverse of a non-zero x. The
// single inversion goes through big.Int's binary extended GCD, which
// beats a Fermat exponentiation chain at this field size.
func feInv(z, x *fe) {
	xb := x.toBig()
	if xb.ModInverse(xb, curve.Params().P) == nil {
		panic("group: inverse of zero field element")
	}
	*z = feFromBig(xb)
}

// feBatchInv replaces every non-zero element of den with its inverse
// using one true inversion (Montgomery trick: prefix products forward
// into scratch, one feInv, suffix unwinding backward — 3 field mults
// per element). Zero elements stay zero and do not disturb the batch,
// which is how callers carry identity points through. It is the one
// copy of the trick: batch normalization, the fixed-base sweep and the
// variable-base kernel of batchmul.go all divide through it. scratch
// must hold len(den) elements and must not alias den.
func feBatchInv(den, scratch []fe) {
	n := len(den)
	if n == 0 {
		return
	}
	run := feOne
	for i := range den {
		if !den[i].isZero() {
			feMul(&run, &run, &den[i])
		}
		scratch[i] = run
	}
	// If every element is zero the running product is still feOne,
	// which feInv handles like any other non-zero element.
	var inv fe
	feInv(&inv, &run)
	for i := n - 1; i > 0; i-- {
		if den[i].isZero() {
			continue
		}
		// den[i] is still needed to step inv down after its slot
		// has been computed, so the inverse lands in a temporary.
		var dinv fe
		feMul(&dinv, &inv, &scratch[i-1])
		feMul(&inv, &inv, &den[i])
		den[i] = dinv
	}
	if !den[0].isZero() {
		den[0] = inv
	}
}

// invertZs returns 1/Z for every point with one shared inversion; an
// identity's zero Z stays zero.
func invertZs(js []jacPoint) []fe {
	n := len(js)
	zinv := make([]fe, 2*n) // inverses, then feBatchInv's scratch
	for i := range js {
		zinv[i] = js[i].z
	}
	feBatchInv(zinv[:n], zinv[n:])
	return zinv[:n]
}

// BatchToAffine converts a slice of Jacobian points to affine Points
// with one shared field inversion. Identity points (Z = 0) pass
// through as identity Points and do not disturb the batch. It is the
// conversion behind BatchBase and Product; the MSM table path uses
// the fe-domain sibling batchNormalize.
func BatchToAffine(js []jacPoint) []Point {
	out := make([]Point, len(js))
	zinv := invertZs(js)
	for i := range js {
		if js[i].z.isZero() {
			continue // identity: out[i] stays the zero Point
		}
		var zi2, zi3, xf, yf fe
		feSqr(&zi2, &zinv[i])
		feMul(&zi3, &zi2, &zinv[i])
		feMul(&xf, &js[i].x, &zi2)
		feMul(&yf, &js[i].y, &zi3)
		out[i] = Point{x: xf.toBig(), y: yf.toBig()}
	}
	return out
}

// batchNormalize is BatchToAffine staying in the fe domain: it fills
// out with affine table entries and never leaves Montgomery form. The
// inputs must not contain the identity — it normalizes small multiples
// k·P of non-identity points in a prime-order group, where k·P = O is
// impossible.
func batchNormalize(js []jacPoint, out []affinePoint) {
	zinv := invertZs(js)
	for i := range js {
		var zi2, zi3 fe
		feSqr(&zi2, &zinv[i])
		feMul(&zi3, &zi2, &zinv[i])
		feMul(&out[i].x, &js[i].x, &zi2)
		feMul(&out[i].y, &js[i].y, &zi3)
	}
}

// jacFromPoint loads a non-identity affine Point into Jacobian form.
func jacFromPoint(p Point) jacPoint {
	return jacPoint{x: feFromBig(p.x), y: feFromBig(p.y), z: feOne}
}
