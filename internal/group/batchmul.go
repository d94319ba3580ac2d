package group

import "math/bits"

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
//     same for every base, each doubling or addition is one step over
//     the whole batch: a pass forward that multiplies every lane's
//     denominator into one chain (feInvChain), the chain's one field
//     inversion, and a pass backward that unwinds each lane's inverse
//     and applies its tangent or chord at once. Per lane a doubling is
//     7 field mults and 5 add/subs (the tangent's 3/2 rides on the
//     inversion), an addition 6 and 7, against 8 and 11 mults in
//     Jacobian form; a call makes 261 inversions and one per scalar.
//
// The exceptional cases of affine arithmetic — adding a point to
// itself, to its inverse, or to the identity — cannot depend on the
// base: every lane of an accumulator holds c·Pᵢ for the same integer
// c, and every non-identity P-256 point has the prime order n, so two
// accumulators collide in one lane exactly when their coefficients
// are congruent mod n, that is, in every lane at once. The kernel
// therefore tracks each accumulator's coefficient mod n (bmCoef) and
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
	// batchMulMin is the cutover to the kernel, in units of ≈ 13 µs
	// saved. Against the ladder behind Point.Mul at ≈ 64 µs per base
	// per scalar, timed in one process, the kernel costs ≈ 0.63 ms a
	// call whatever the batch size (its inversions) plus ≈ 36 µs per
	// base and ≈ 11 µs per base per scalar. With s scalars it saves
	// ≈ 4s − 3 units per base against ≈ 48 fixed: measured level at
	// 9–10 bases under two scalars, 5–6 under three and already 37
	// under one (the inner-layer opening, which at a chain's few
	// hundred messages runs ≈ 25 % under the ladder).
	batchMulMin = 50
)

// bmCoef is an accumulator's coefficient mod n, little-endian limbs;
// bmOrder is n.
type bmCoef [4]uint64

var bmOrder = bmCoef(limbsFromBytes(order.FillBytes(make([]byte, ScalarSize))))

func (a bmCoef) add(b bmCoef) bmCoef {
	var sum, red bmCoef
	var carry, borrow uint64
	for i := range sum {
		sum[i], carry = bits.Add64(a[i], b[i], carry)
		red[i], borrow = bits.Sub64(sum[i], bmOrder[i], borrow)
	}
	if carry == 0 && borrow == 1 {
		return sum // below n as it stands
	}
	return red
}

func (a bmCoef) neg() bmCoef {
	var borrow uint64
	if a != (bmCoef{}) {
		for i := range a {
			a[i], borrow = bits.Sub64(bmOrder[i], a[i], borrow)
		}
	}
	return a
}

// bmAcc is one accumulator of the kernel: lane i holds coef·Pᵢ, affine
// and in the Montgomery domain. A zero coef means every lane is the
// identity, whatever x and y hold.
type bmAcc struct {
	x, y []fe
	coef bmCoef
}

// bmAdd is one addition of a step: dst += src.
type bmAdd struct{ dst, src *bmAcc }

// bmKernel runs the sweep's steps; buf is for their chains' prefix
// products, a lane per operation of a step and one element.
type bmKernel struct {
	buf        []fe
	inversions int
}

// doubleAll sets a = 2·a. The tangent's denominator is never zero: the
// group order is odd, so no point has order two.
func (k *bmKernel) doubleAll(a *bmAcc) { k.addAll(nil, a) }

// addAll is a step: it runs adds, none of which may read or write lanes
// another writes, and then doubles dbl if there is one — which the
// additions may read — all under one inversion. Chord, tangent, copy or
// cancel is chosen per addition from the coefficients; a tangent takes
// a step of its own.
func (k *bmKernel) addAll(adds []bmAdd, dbl *bmAcc) {
	chords := adds[:0] // filtered in place
	for _, a := range adds {
		c, d := a.src.coef, a.dst.coef
		switch {
		case c == bmCoef{}:
		case d == bmCoef{}:
			copy(a.dst.x, a.src.x)
			copy(a.dst.y, a.src.y)
			a.dst.coef = c
		case d == c:
			k.addAll(nil, a.dst)
		case d == c.neg():
			// P + (−P): the lanes are dead, the coefficient says so.
			a.dst.coef = bmCoef{}
		default:
			chords = append(chords, a)
			a.dst.coef = d.add(c)
		}
	}
	if dbl != nil && dbl.coef == (bmCoef{}) {
		dbl = nil
	}
	if len(chords) == 0 && dbl == nil {
		return
	}

	// Forward, every denominator into the chain. The tangent's, y, go in
	// first and so come out last, after every chord has read dbl.
	var c feInvChain
	c.reset(k.buf)
	if dbl != nil {
		for i := range dbl.y {
			c.push(&dbl.y[i])
		}
	}
	for _, a := range chords {
		ax, bx := a.dst.x, a.src.x
		for i := range ax {
			var d fe
			feSub(&d, &bx[i], &ax[i])
			c.push(&d)
		}
	}
	c.invert()
	k.inversions++

	// Backward: one iteration unwinds a lane's inverse and applies it.
	for r := len(chords) - 1; r >= 0; r-- {
		a := chords[r]
		ax, ay, bx, by := a.dst.x, a.dst.y, a.src.x, a.src.y
		for i := len(ax) - 1; i >= 0; i-- {
			var d, lam, dinv fe // λ = (y_b−y_a)/(x_b−x_a)
			feSub(&d, &bx[i], &ax[i])
			feSub(&lam, &by[i], &ay[i])
			c.inverse(&dinv)
			c.drop(&d)
			feMul(&lam, &lam, &dinv)
			feChord(&ax[i], &ay[i], &lam, &ax[i], &ay[i], &bx[i])
		}
	}
	if dbl != nil {
		// λ = 3(x²−1)/(2y): the 3/2 goes onto what is left of the inverse.
		var t fe
		feDouble(&t, &c.run)
		feAdd(&t, &t, &c.run)
		feHalf(&c.run, &t)
		x, y := dbl.x, dbl.y
		for i := len(x) - 1; i >= 0; i-- {
			var lam, dinv fe
			c.inverse(&dinv)
			c.drop(&y[i])
			feSqr(&lam, &x[i])
			feSub(&lam, &lam, &feOne)
			feMul(&lam, &lam, &dinv)
			feChord(&x[i], &y[i], &lam, &x[i], &y[i], &x[i])
		}
		dbl.coef = dbl.coef.add(dbl.coef)
	}
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
	batchMulKernel(points, live, scalars, out)
	return out
}

// batchMulKernel is BatchMul past its cutover, over the non-identity
// bases points[i], i in live; the tests pin the inversions it returns.
func batchMulKernel(points []Point, live []int, scalars []Scalar, out [][]Point) int {
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
		return 0
	}
	n := len(live)

	// One slab for every lane of the run: the chain, the buckets, and
	// the kernel's prefix products (no step holds more than two
	// operations per scalar).
	maxOps := 2 * len(rows)
	slab := make([]fe, (3+2*bmBuckets*len(rows)+maxOps)*n+1)
	take := func(m int) []fe {
		s := slab[:m:m]
		slab = slab[m:]
		return s
	}
	kern := &bmKernel{buf: take(maxOps*n + 1)}
	adds := make([]bmAdd, 0, maxOps)
	q := &bmAcc{x: take(n), y: take(n), coef: bmCoef{1}}
	qneg := &bmAcc{x: q.x, y: take(n)} // −q, for the negative digits
	signed := [2]*bmAcc{q, qneg}       // by a digit's sign bit
	for j, i := range live {
		q.x[j], q.y[j] = points[i].x, points[i].y
	}
	for r := range rows {
		for b := range rows[r].buckets {
			rows[r].buckets[b].x, rows[r].buckets[b].y = take(n), take(n)
		}
	}

	// The sweep. Window j's additions and the first of the four
	// doublings to window j+1 both read ±16ʲ·P and share an inversion.
	for j := 0; j < bmDigits; j++ {
		qneg.coef = q.coef.neg()
		for i := range qneg.y {
			feNeg(&qneg.y[i], &q.y[i])
		}
		adds = adds[:0]
		for r := range rows {
			d := rows[r].digits[j]
			adds = append(adds, bmAdd{&rows[r].buckets[max(d, -d)>>1], signed[uint8(d)>>7]})
		}
		if j == bmDigits-1 {
			kern.addAll(adds, nil)
			break
		}
		kern.addAll(adds, q)
		for t := 1; t < bmWindow; t++ {
			kern.doubleAll(q)
		}
	}

	// The fold: Σ_b (2b+1)·B_b = T₀ + 2·Σ_{b≥1} T_b over the suffix
	// sums T_b = Σ_{c≥b} B_c. T_b overwrites bucket b, the sum of the
	// T_b grows in the top bucket, and every scalar takes each step
	// under the same inversion.
	const top = bmBuckets - 1
	for b := top - 1; b >= 0; b-- {
		adds = adds[:0]
		for r := range rows {
			bk := &rows[r].buckets
			adds = append(adds, bmAdd{dst: &bk[b], src: &bk[b+1]})
			if b+1 < top {
				adds = append(adds, bmAdd{dst: &bk[top], src: &bk[b+1]})
			}
		}
		kern.addAll(adds, nil)
	}
	adds = adds[:0]
	for r := range rows {
		bk := &rows[r].buckets
		kern.doubleAll(&bk[top])
		adds = append(adds, bmAdd{dst: &bk[0], src: &bk[top]})
	}
	kern.addAll(adds, nil)

	for r := range rows {
		res := &rows[r].buckets[0]
		if res.coef != scalarLimbs(rows[r].odd) {
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
	return kern.inversions
}
