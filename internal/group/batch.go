package group

// Batch Jacobian→affine conversion via the Montgomery inversion
// trick: instead of one field inversion per point (feInv, ≈ 2 µs
// each), the batch pays a single inversion plus three multiplications
// per point. This is the shared seam behind everything that
// materializes many points at once — fixed-base table construction,
// BatchBase's small batches, the Straus MSM's per-point multiple
// tables, and BatchDH's secrets. (A tree sum, treeSum in fixedbase.go, runs the same trick
// per level on feInvChain, or on fe8InvChain eight slots at once.)

// feInvChain is the Montgomery trick — the one copy of it — taken apart
// so that a caller can work in its two passes: push every denominator
// going forward, invert the product once, and coming back take each
// denominator's inverse and drop it, last pushed first: 3 field mults
// per element. feBatchInv is written on it, and with it everything
// that normalizes in bulk; batchmul.go's steps and treeSum's levels
// apply their chords in the backward pass.
type feInvChain struct {
	prefix []fe // prefix[i] is the product ahead of push i
	run    fe   // from invert on, 1/∏ of what is still to drop
}

// reset empties the chain onto buf, which must hold its pushes and one
// element more.
func (c *feInvChain) reset(buf []fe) { c.prefix = append(buf[:0], feOne) }

// push multiplies the non-zero d into the chain.
func (c *feInvChain) push(d *fe) {
	n := len(c.prefix)
	c.prefix = c.prefix[:n+1]
	feMul(&c.prefix[n], &c.prefix[n-1], d)
}

// invert is the chain's one true inversion; a factor multiplied into
// run after it rides on every inverse still to come.
func (c *feInvChain) invert() {
	n := len(c.prefix) - 1
	feInv(&c.run, &c.prefix[n])
	c.prefix = c.prefix[:n]
}

// inverse sets dinv to the inverse of the last push not yet dropped;
// drop steps past that push, d being its value again.
func (c *feInvChain) inverse(dinv *fe) { feMul(dinv, &c.run, &c.prefix[len(c.prefix)-1]) }

func (c *feInvChain) drop(d *fe) {
	feMul(&c.run, &c.run, d)
	c.prefix = c.prefix[:len(c.prefix)-1]
}

// feBatchInv replaces every non-zero element of den with its inverse
// using one true inversion. Zero elements stay zero and do not disturb
// the batch, which is how callers carry identity points through.
// scratch must hold len(den)+1 elements and must not alias den.
func feBatchInv(den, scratch []fe) {
	var c feInvChain
	c.reset(scratch)
	for i := range den {
		if !den[i].isZero() {
			c.push(&den[i])
		}
	}
	c.invert()
	for i := len(den) - 1; i >= 0; i-- {
		if !den[i].isZero() {
			var dinv fe
			c.inverse(&dinv)
			c.drop(&den[i])
			den[i] = dinv
		}
	}
}

// invertZs returns 1/Z for every point with one shared inversion; an
// identity's zero Z stays zero.
func invertZs(js []jacPoint) []fe {
	n := len(js)
	zinv := make([]fe, 2*n+1) // inverses, then feBatchInv's scratch
	for i := range js {
		zinv[i] = js[i].z
	}
	feBatchInv(zinv[:n], zinv[n:])
	return zinv[:n]
}

// BatchToAffine converts a slice of Jacobian points to affine Points
// with one shared field inversion. Identity points (Z = 0) pass
// through as identity Points and do not disturb the batch. It is the
// conversion behind BatchBase's walked batches and BatchDH.
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
