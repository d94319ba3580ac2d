package group

// Batched variable-base exponentiation: many bases, a few scalars
// that are the same for every base. A mix server raises every
// message's Diffie-Hellman key to its mixing secret and to its
// blinding secret (§6.3 steps 1–2); done one ladder at a time that is
// two ≈ 52 µs exponentiations per message per hop, and it is most of a
// round's CPU.
//
// BatchMul runs all of them in lockstep, right to left over signed
// odd 4-bit digits:
//
//   - the chain P, 16·P, 16²·P, … is computed once per base and shared
//     by every scalar — 252 doublings for any number of scalars;
//   - window j of a scalar with digit d adds ±16ʲ·P into the bucket
//     for |d| (eight buckets, |d| ∈ {1,3,…,15}), and the buckets are
//     folded at the end as Σ|d|·bucket with two running sums;
//   - every point stays affine, and because the digit pattern is the
//     same for every base, each doubling or addition is one
//     operation applied to the whole batch, whose divisions share a
//     single field inversion (feBatchInv): 7 field mults per
//     doubling, 6 per addition, against 8 and 11 in Jacobian form.
//
// The exceptional cases of affine arithmetic — adding a point to
// itself, to its inverse, or to the identity — cannot depend on the
// base: every lane of an accumulator holds c·Pᵢ for the same integer
// c, and every non-identity P-256 point has the prime order n, so two
// accumulators collide in one lane exactly when their coefficients
// are congruent mod n, that is, in every lane at once. The kernel
// therefore tracks each accumulator's coefficient as a Scalar and
// picks chord, tangent, copy or cancel once per operation from the
// coefficients alone; no lane ever sees a zero denominator.
//
// Variable-time like the rest of this package's fe arithmetic, and
// unlike it applied to long-term secrets; DESIGN.md ("The
// variable-time trade, explicitly") says what is and is not
// scalar-dependent here.

const (
	// bmWindow is the digit width. Four bits balance the per-scalar
	// work — 64 bucket additions plus a 15-operation fold — against
	// the shared chain; five bits would save 20 additions for 16 more
	// fold operations and 3 more doublings.
	bmWindow = 4
	// bmDigits is the number of signed odd digits of a 256-bit odd
	// scalar.
	bmDigits = 256 / bmWindow
	// bmBuckets is one bucket per odd digit magnitude 1,3,…,15.
	bmBuckets = 1 << (bmWindow - 1)
	// batchMulMin is the cutover to the kernel, in units of ≈ 11 µs
	// saved. The ladder behind Point.Mul walks one chain per base per
	// scalar in ≈ 52 µs; the kernel walks one per base in ≈ 33 µs plus
	// ≈ 8 µs per scalar, and pays ≈ 260 true inversions (≈ 0.55 ms) per
	// run whatever the batch size. With s scalars it therefore saves
	// 4s − 3 units per base against 50 fixed: measured level at 11
	// bases under two scalars and at 50–60 under one (the inner-layer
	// opening, which at a chain's few hundred messages runs ≈ 18 %
	// under the ladder).
	batchMulMin = 50
)

// lanes holds one affine point per base of the batch, in the
// Montgomery domain.
type lanes struct{ x, y []fe }

// bmAcc is one accumulator of the kernel: lane i holds coef·Pᵢ. A
// zero coef means every lane is the identity, whatever x and y hold.
type bmAcc struct {
	lanes
	coef Scalar
}

// bmOp is one pending affine operation over all lanes: dst = a + b,
// with b negated if neg, or dst = 2·a when b is nil. inv is where the
// operation's denominators sit in the kernel's den slice; a copy (a
// is nil: dst = ±b) has none.
type bmOp struct {
	dst, a, b *lanes
	neg       bool
	inv       int
}

// bmKernel queues operations that do not depend on one another and
// runs them with one shared inversion per flush. No queued operation
// may read or write lanes another queued operation writes.
type bmKernel struct {
	n            int
	ops          []bmOp
	den, scratch []fe
}

// add queues dst += src, or dst −= src if neg, choosing the affine
// formula from the coefficients.
func (k *bmKernel) add(dst, src *bmAcc, neg bool) {
	c := src.coef
	if neg {
		c = c.Neg()
	}
	switch {
	case c.IsZero():
		return
	case dst.coef.IsZero():
		k.queue(bmOp{dst: &dst.lanes, b: &src.lanes, neg: neg})
	case dst.coef.Equal(c):
		k.queue(bmOp{dst: &dst.lanes, a: &dst.lanes})
	case dst.coef.Equal(c.Neg()):
		// P + (−P): the lanes are dead, the coefficient says so.
	default:
		k.queue(bmOp{dst: &dst.lanes, a: &dst.lanes, b: &src.lanes, neg: neg})
	}
	dst.coef = dst.coef.Add(c)
}

// double queues dst = 2·src. The tangent's denominator 2y is never
// zero: the group order is odd, so no point has order two.
func (k *bmKernel) double(dst, src *bmAcc) {
	if !src.coef.IsZero() {
		k.queue(bmOp{dst: &dst.lanes, a: &src.lanes})
	}
	dst.coef = src.coef.Add(src.coef)
}

// queue appends op and stages its denominators: x₂−x₁ for a chord,
// 2y for a tangent.
func (k *bmKernel) queue(op bmOp) {
	if op.a != nil {
		op.inv = len(k.den)
		k.den = k.den[:op.inv+k.n]
		den := k.den[op.inv:]
		if op.b == nil {
			for i := range den {
				feDouble(&den[i], &op.a.y[i])
			}
		} else {
			for i := range den {
				feSub(&den[i], &op.b.x[i], &op.a.x[i])
			}
		}
	}
	k.ops = append(k.ops, op)
}

// flush inverts every queued denominator with one inversion and
// applies the queued operations.
func (k *bmKernel) flush() {
	feBatchInv(k.den, k.scratch)
	for _, op := range k.ops {
		dst, a, b := op.dst, op.a, op.b
		inv := k.den[op.inv:]
		switch {
		case a == nil: // copy
			copy(dst.x, b.x)
			copy(dst.y, b.y)
			if op.neg {
				for i := range dst.y {
					feNeg(&dst.y[i], &dst.y[i])
				}
			}
		case b == nil: // tangent: λ = 3(x²−1)/(2y)
			for i := 0; i < k.n; i++ {
				var lam fe
				feTangentNum(&lam, &a.x[i])
				feMul(&lam, &lam, &inv[i])
				feChord(&dst.x[i], &dst.y[i], &lam, &a.x[i], &a.y[i], &a.x[i])
			}
		default: // chord: λ = (y₂−y₁)/(x₂−x₁)
			for i := 0; i < k.n; i++ {
				var lam fe
				if op.neg {
					feAdd(&lam, &b.y[i], &a.y[i])
					feNeg(&lam, &lam)
				} else {
					feSub(&lam, &b.y[i], &a.y[i])
				}
				feMul(&lam, &lam, &inv[i])
				feChord(&dst.x[i], &dst.y[i], &lam, &a.x[i], &a.y[i], &b.x[i])
			}
		}
	}
	k.ops, k.den = k.ops[:0], k.den[:0]
}

// oddDigits recodes an odd scalar into bmDigits signed odd digits,
// value = Σ dⱼ·16ʲ with dⱼ ∈ {±1,±3,…,±15}. No digit is zero, so
// every window of every key performs exactly one bucket addition.
func oddDigits(l *[4]uint64, out *[bmDigits]int8) {
	// With v odd, d = (v mod 32) − 16 is odd and in [−15, 15], and
	// (v − d)/16 is odd again, so the recoding never meets a zero
	// digit. A 256-bit v leaves an odd value below 16 for the last
	// digit.
	v := *l
	for j := 0; j < bmDigits-1; j++ {
		d := int8(v[0]&31) - 16
		out[j] = d
		// v − d is v with its low five bits replaced by 10000.
		v[0] = v[0]&^31 | 16
		v[0] = v[0]>>4 | v[1]<<60
		v[1] = v[1]>>4 | v[2]<<60
		v[2] = v[2]>>4 | v[3]<<60
		v[3] >>= 4
	}
	out[bmDigits-1] = int8(v[0])
}

// oddRecode recodes a non-zero scalar for the kernel and the ladder. An
// even s is run as the odd n−s, which is returned with neg set, and
// its results negated.
func oddRecode(s Scalar, digits *[bmDigits]int8) (odd Scalar, neg bool) {
	l := scalarLimbs(s)
	if l[0]&1 == 0 {
		s, neg = s.Neg(), true
		l = scalarLimbs(s)
	}
	oddDigits(&l, digits)
	return s, neg
}

// ladder returns p^s for a bare point and a non-zero scalar: the
// kernel's recoding run left to right on one Jacobian accumulator, over
// the odd multiples P, 3P, …, 15P made affine with one inversion. No
// digit is zero, so every window is four doublings and one mixed
// addition whatever the scalar — the operation sequence is uniform,
// and only which entry is added, and its sign, follow the scalar
// (DESIGN.md, "The variable-time trade, explicitly").
func (p Point) ladder(s Scalar) Point {
	var digits [bmDigits]int8
	_, neg := oddRecode(s, &digits)
	var multiples [bmBuckets]jacPoint
	multiples[0].fromAffine(&p.affinePoint, false)
	two := multiples[0]
	two.double()
	for i := 1; i < bmBuckets; i++ {
		multiples[i] = multiples[i-1]
		multiples[i].add(&two)
	}
	var tab [bmBuckets]affinePoint
	batchNormalize(multiples[:], tab[:])
	var acc jacPoint
	for j := bmDigits - 1; j >= 0; j-- {
		for t := 0; t < bmWindow; t++ {
			acc.double()
		}
		d := digits[j]
		acc.addAffine(&tab[max(d, -d)>>1], (d < 0) != neg)
	}
	return acc.toPoint()
}

// BatchMul returns out[k][i] = points[i]^scalars[k]: every point
// raised to every scalar, bit-for-bit what Point.Mul returns for each
// pair. Batches that share too few doubling chains to pay for the
// kernel's fixed cost (see batchMulMin) go through Point.Mul itself.
// Identity bases and zero scalars yield the identity.
func BatchMul(points []Point, scalars ...Scalar) [][]Point {
	out := make([][]Point, len(scalars))
	for k := range out {
		out[k] = make([]Point, len(points))
	}
	live := make([]int, 0, len(points)) // non-identity bases
	for i, p := range points {
		if !p.IsIdentity() {
			live = append(live, i)
		}
	}
	n := len(live)
	if n*(4*len(scalars)-3) < batchMulMin {
		for k, s := range scalars {
			for _, i := range live {
				out[k][i] = points[i].Mul(s)
			}
		}
		return out
	}

	// A zero scalar has no digits and its row stays the identity.
	type row struct {
		k       int
		odd     Scalar
		neg     bool
		digits  [bmDigits]int8
		buckets [bmBuckets]bmAcc
	}
	rows := make([]row, 0, len(scalars))
	for k, s := range scalars {
		if s.IsZero() {
			continue
		}
		r := row{k: k}
		r.odd, r.neg = oddRecode(s, &r.digits)
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return out
	}

	// One slab for every lane of the run: the chain and its double
	// buffer, the buckets, and the kernel's denominators and scratch
	// (no flush queues more than two operations per scalar).
	maxOps := 2 * len(rows)
	slab := make([]fe, (4+2*bmBuckets*len(rows)+2*maxOps)*n)
	take := func(m int) []fe {
		s := slab[:m:m]
		slab = slab[m:]
		return s
	}
	kern := &bmKernel{n: n, den: take(maxOps * n)[:0], scratch: take(maxOps * n)}
	q := &bmAcc{lanes: lanes{take(n), take(n)}, coef: NewScalar(1)}
	q2 := &bmAcc{lanes: lanes{take(n), take(n)}}
	for j, i := range live {
		q.x[j], q.y[j] = points[i].x, points[i].y
	}
	for r := range rows {
		for b := range rows[r].buckets {
			rows[r].buckets[b].lanes = lanes{take(n), take(n)}
		}
	}

	// The sweep. Window j's additions and the first of the four
	// doublings to window j+1 both read 16ʲ·P and share an inversion.
	for j := 0; j < bmDigits; j++ {
		for r := range rows {
			d := rows[r].digits[j]
			kern.add(&rows[r].buckets[max(d, -d)>>1], q, d < 0)
		}
		if j == bmDigits-1 {
			kern.flush()
			break
		}
		kern.double(q2, q)
		kern.flush()
		q, q2 = q2, q
		for t := 1; t < bmWindow; t++ {
			kern.double(q, q)
			kern.flush()
		}
	}

	// The fold: Σ_b (2b+1)·B_b = T₀ + 2·Σ_{b≥1} T_b over the suffix
	// sums T_b = Σ_{c≥b} B_c. T_b overwrites bucket b, the sum of the
	// T_b grows in the top bucket, and every scalar takes each step
	// in the same flush.
	const top = bmBuckets - 1
	for b := top - 1; b >= 0; b-- {
		for r := range rows {
			bk := &rows[r].buckets
			kern.add(&bk[b], &bk[b+1], false)
			if b+1 < top {
				kern.add(&bk[top], &bk[b+1], false)
			}
		}
		kern.flush()
	}
	for r := range rows {
		kern.double(&rows[r].buckets[top], &rows[r].buckets[top])
	}
	kern.flush()
	for r := range rows {
		kern.add(&rows[r].buckets[0], &rows[r].buckets[top], false)
	}
	kern.flush()

	for r := range rows {
		res := &rows[r].buckets[0]
		if !res.coef.Equal(rows[r].odd) {
			panic("group: BatchMul coefficient bookkeeping is wrong")
		}
		for j, i := range live {
			y := res.y[j]
			if rows[r].neg {
				feNeg(&y, &y)
			}
			out[rows[r].k][i] = affine(res.x[j], y)
		}
	}
	return out
}
