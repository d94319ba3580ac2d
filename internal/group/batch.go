package group

// Batch Jacobian→affine conversion via the Montgomery inversion
// trick: instead of one field inversion per point (~2.6µs each), the
// batch pays a single inversion plus three multiplications per point.
// This is the shared seam behind everything that materializes many
// points at once — fixed-base table construction, BatchBase results,
// the Straus MSM's per-point multiple tables, and BatchDH's secrets.

import "math/big"

// fePrime is p as feInv wants it.
var fePrime, _ = new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)

// feInv sets z to the Montgomery-domain inverse of a non-zero x. It is
// the one place field arithmetic leaves fe: big.Int's Lehmer GCD inverts
// in ≈ 3.1 µs, allocations and both conversions included, where the
// 255-squaring Fermat chain over feSqrN takes ≈ 5.
func feInv(z, x *fe) {
	var b [32]byte
	x.putBytes(b[:])
	v := new(big.Int).SetBytes(b[:])
	if v.ModInverse(v, fePrime) == nil {
		panic("group: inverse of zero field element")
	}
	*z, _ = feFromBytes(v.FillBytes(b[:]))
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
// conversion behind BatchBase and BatchDH.
func BatchToAffine(js []jacPoint) []Point {
	out := make([]Point, len(js))
	zinv := invertZs(js)
	for i := range js {
		normalize(&out[i].affinePoint, &js[i], &zinv[i])
	}
	return out
}

// batchNormalize is BatchToAffine for table entries, which never hold
// the identity: small multiples k·P of a non-identity point in a
// prime-order group, where k·P = O is impossible.
func batchNormalize(js []jacPoint, out []affinePoint) {
	zinv := invertZs(js)
	for i := range js {
		normalize(&out[i], &js[i], &zinv[i])
	}
}

// normalize sets out = (X/Z², Y/Z³) given zinv = 1/Z; an identity's
// zero zinv lands on (0, 0), the identity again.
func normalize(out *affinePoint, j *jacPoint, zinv *fe) {
	var zi2, zi3 fe
	feSqr(&zi2, zinv)
	feMul(&zi3, &zi2, zinv)
	feMul(&out.x, &j.x, &zi2)
	feMul(&out.y, &j.y, &zi3)
}
