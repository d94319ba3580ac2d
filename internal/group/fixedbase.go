package group

// Precomputed fixed-point scalar multiplication: one table mechanism,
// two shapes.
//
// A fixedTable holds small multiples of one point P so that P^s costs a
// table walk instead of a 256-step double-and-add. The scalar is
// recoded into signed w-bit digits s = Σ dᵢ·2^(w·i); digit i = q·j + r
// (row j, group r, q groups) looks up |dᵢ|·2^(w·q·j)·P in row j. The
// rows of one group are summed with mixed additions and no doublings;
// between groups the accumulator is doubled w times (Horner over r), so
// a walk is one addition per non-zero digit and w·(q−1) doublings.
//
//   - The generator (genShape: w = 11, q = 1) is used by every process
//     for its whole life — client onion building, per-round key
//     announcement, NIZK proving all compute g^s — so it gets a wide
//     shape: 24 rows × 1024 entries, 1.5 MiB, built once across cores
//     (≈ 9 ms on two), ≤ 24 additions and no doubling per scalar.
//   - A chain's public keys (keyShape: w = 4, q = 4) are fixed for an
//     epoch (mix keys) or a round (inner aggregates) and raised to a
//     fresh scalar by every user of the chain (§6.2), so they get a
//     shape that is cheap to build and to keep: 17 rows × 8 entries,
//     8.5 KiB, built in under two Point.Muls' time by the first
//     multiplier (ensure); 65 additions and 12 doublings per scalar
//     against the ladder's 252 doublings. Point.Precomputed attaches
//     one.
//
// Many scalars at once — BatchDH over tabled keys, BatchBase over the
// generator — are not walked one by one: all their entries are added
// as one tree of affine additions under five shared inversions a chunk
// (treeSum), whatever the shape.
//
// Everything here is variable-time (digit-dependent table indexing and
// branches, zero digits skipped). That is a deliberate trade: the
// scalars that meet a table are per-message or per-round ephemerals
// (and public NIZK challenges), never a long-term secret — a point only
// takes this path if it is the generator or was explicitly Precomputed,
// and the only points precomputed are mix keys and inner aggregates,
// which users raise to the onion's x and y. The deployment model is a
// server-side mix network, not a shared host with a cache-timing
// adversary. See DESIGN.md for the discussion.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tableShape fixes a table's layout: the signed-digit width and how
// many digit groups share one row. Everything else follows from it.
type tableShape struct {
	window int // digit width w in bits
	groups int // q: row j holds multiples of 2^(w·q·j)·P
}

var (
	genShape = tableShape{window: 11, groups: 1}
	keyShape = tableShape{window: 4, groups: 4}
)

// maxDigits bounds digits() over both shapes (keyShape's 65), so a
// walk's digit buffer lives on the stack.
const maxDigits = 65

// digits is how many signed digits a 256-bit scalar recodes to.
func (s tableShape) digits() int { return digitWindows(256, s.window) }

// rows is the number of table rows: digits spread over the groups.
func (s tableShape) rows() int { return (s.digits() + s.groups - 1) / s.groups }

// half is the number of entries per row; signed digits halve it because
// −d·P is a y-negation on lookup.
func (s tableShape) half() int { return 1 << (s.window - 1) }

// fixedTable is a lazily built table of one point's multiples. The
// point itself is not stored: whoever holds the pointer (the package
// for the generator, every copy of a Precomputed Point for a key) also
// holds the coordinates and passes them to ensure.
type fixedTable struct {
	shape   tableShape
	once    sync.Once
	entries []affinePoint // rows() × half(), flat
}

// genTable is the table of the generator, genPoint (p256fe.go).
var genTable = fixedTable{shape: genShape}

// normalizeChunk bounds how many Jacobian entries a table build holds
// before converting them to affine: a key's whole table (136 entries)
// is one chunk under one inversion, the generator's is six chunks of
// four rows, built on up to GOMAXPROCS goroutines, instead of 24 576
// Jacobian points at once.
const normalizeChunk = 4096

// ensure builds the table of p on first use; concurrent first users
// wait for the one build. The table is built a chunk of rows at a
// time, and each chunk's first base B = 2^(w·q·j₀)·P is doubled out
// serially first. Within a chunk, row j's multiples d·Bⱼ of its base
// Bⱼ = 2^(w·q·j)·P are built in Jacobian form — even ones by doubling
// d/2, odd ones by adding Bⱼ — the next base is the last entry
// 2^(w−1)·Bⱼ doubled the rest of the way, and the chunk is converted
// to affine under one inversion. Chunks are independent, so a table of
// several (the generator's six) spreads them over up to GOMAXPROCS
// goroutines; a table of one (every key's: 276 doublings, 51 additions
// and one inversion, under two Point.Muls) stays on the caller. Affine
// entries are canonical, so the table is the same however it was split.
func (t *fixedTable) ensure(p Point) {
	t.once.Do(func() {
		rows, half := t.shape.rows(), t.shape.half()
		rowBits := t.shape.window * t.shape.groups
		chunkRows := max(1, min(rows, normalizeChunk/half))
		chunks := (rows + chunkRows - 1) / chunkRows
		bases := make([]jacPoint, chunks)
		bases[0].fromAffine(&p.affinePoint, false)
		for c := 1; c < chunks; c++ {
			bases[c] = bases[c-1]
			for i := 0; i < rowBits*chunkRows; i++ {
				bases[c].double()
			}
		}
		entries := make([]affinePoint, rows*half)
		// build fills chunk c's rows on jtab, one chunk's worth of
		// Jacobian scratch a goroutine; work takes chunks until none is
		// left, on the caller and on each helper.
		build := func(c int, jtab []jacPoint) {
			j0, j1 := c*chunkRows, min((c+1)*chunkRows, rows)
			base := bases[c]
			for j := j0; j < j1; j++ {
				row := jtab[(j-j0)*half : (j-j0+1)*half]
				row[0] = base
				for d := 2; d <= half; d++ {
					if d%2 == 0 {
						row[d-1] = row[d/2-1]
						row[d-1].double()
					} else {
						row[d-1] = row[d-2]
						row[d-1].add(&base)
					}
				}
				base = row[half-1]
				for i := 0; i < rowBits-(t.shape.window-1); i++ {
					base.double()
				}
			}
			// Small multiples of a non-identity point in a prime-order
			// group are never the identity, so batchNormalize applies.
			batchNormalize(jtab[:(j1-j0)*half], entries[j0*half:j1*half])
		}
		var next atomic.Int32
		work := func() {
			jtab := make([]jacPoint, chunkRows*half)
			for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
				build(c, jtab)
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < min(chunks, runtime.GOMAXPROCS(0)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		t.entries = entries
	})
}

// recode writes s's signed digits for this table's shape into buf and
// returns the slice holding them.
func (t *fixedTable) recode(s Scalar, buf *[maxDigits]int16) []int16 {
	l := scalarLimbs(s)
	nd := t.shape.digits()
	signedDigits(&l, t.shape.window, nd, buf[:nd])
	return buf[:nd]
}

// walk adds Σ digitsᵢ·2^(w·i)·P to an identity accumulator: the one
// digit-and-accumulate loop behind Base, BatchBase's small batches and
// every Precomputed key. The table must be built.
func (t *fixedTable) walk(acc *jacPoint, digits []int16) {
	w, q, half := t.shape.window, t.shape.groups, t.shape.half()
	for r := q - 1; r >= 0; r-- {
		if r < q-1 {
			for i := 0; i < w; i++ {
				acc.double()
			}
		}
		row := 0
		for i := r; i < len(digits); i += q {
			if d := int(digits[i]); d > 0 {
				acc.addAffine(&t.entries[row+d-1], false)
			} else if d < 0 {
				acc.addAffine(&t.entries[row-d-1], true)
			}
			row += half
		}
	}
}

// mul returns p^s by the table of p.
func (t *fixedTable) mul(p Point, s Scalar) Point {
	t.ensure(p)
	var buf [maxDigits]int16
	var acc jacPoint
	t.walk(&acc, t.recode(s, &buf))
	return acc.toPoint()
}

// table returns the table p's multiplications run on: the generator's
// for g however it was obtained, a Precomputed point's own, or nil for
// a bare point (the ladder). p is not the identity.
func (p Point) table() *fixedTable {
	if p.affinePoint == genPoint.affinePoint {
		return &genTable
	}
	return p.tab
}

// Precomputed returns the same group element carrying a fixed-key
// table, so Mul, DH and BatchDH on it (and on every copy of it) run a
// table walk instead of the ladder's double-and-add — several times
// faster, and variable-time in the scalar. Use it only for public keys
// that are raised to ephemeral scalars: a chain's mix keys and inner
// aggregates. The 8.5 KiB table is built by the first multiplication,
// not here, so holding a precomputed key costs one pointer until it is
// used; it is never encoded, and Equal ignores it. Precomputing a
// point that already has a table, or the identity, returns it as is.
func (p Point) Precomputed() Point {
	if p.IsIdentity() || p.tab != nil {
		return p
	}
	p.tab = &fixedTable{shape: keyShape}
	return p
}

// treeSumMin is the tabled-lane count from which BatchDH sums its table
// entries as one tree instead of walking each lane on a Jacobian
// accumulator: the tree costs five field inversions (feInv, ≈ 2 µs
// each) a call and saves a little on every lane. Timed in one process
// against the walk, 2 001 alternating calls a size, two runs a kernel:
// the eight-lane tree +43 to +64 % at 2 lanes, +1 to +16 % at 3
// (winning 21–41 % of the pairs), −21 % at 4 (96–97 %) and −34 % at 5;
// the scalar tree +8 % at 2, −2 % at 3 (64–66 %), −7 % at 4 (83–85 %)
// and −9 % at 5. 4 is the first count from which the tree wins on both
// kernels.
const treeSumMin = 4

// treeChunk is how many digit slots one tree holds: BatchDH and
// BatchBase resolve their lanes chunkLanes at a time. The buffers take
// ≈ 100 B a slot, and past a few hundred KiB they fall out of cache and
// cost more to allocate and clear than five more inversions do: 4160
// slots (≈ 400 KiB, reused from chunk to chunk) are 64 key lanes —
// level with one pass at 56 lanes, −10 % at 231 and −20 % at 924, the
// paper's n = 100, k = 32 round — or 173 generator lanes.
const treeChunk = 4160

// chunkLanes is how many lanes of this shape one tree holds.
func (s tableShape) chunkLanes() int { return treeChunk / s.digits() }

// BatchDH returns DH(pubs[i], privs[i]) for every i. Precomputed keys
// (and the generator) run on their tables — in chunks sized for key
// lanes, summed as one tree from treeSumMin lanes up, walked one by one
// below — into Jacobian accumulators that share one field inversion,
// and a run of keys under the same Scalar value — an onion's mix keys
// under its x — recodes that scalar once; bare points take Point.Mul's
// ladder one by one, exactly as DH does.
func BatchDH(pubs []Point, privs []Scalar) [][32]byte {
	if len(pubs) != len(privs) {
		panic("group: BatchDH length mismatch")
	}
	out := make([][32]byte, len(pubs))
	ts := treeSums.Get().(*treeSum)
	defer ts.release()
	step := keyShape.chunkLanes()
	for lo := 0; lo < len(pubs); lo += step {
		hi := min(lo+step, len(pubs))
		batchDHChunk(ts, pubs[lo:hi], privs[lo:hi], out[lo:hi])
	}
	return out
}

// treeSums keeps the tree buffers of BatchDH and BatchBase from one call
// to the next: a user's round is one call of each and at most a chunk's
// worth of buffers (≈ 400 KiB), and allocating and clearing those per
// call was most of what a building process allocated. A recycled
// buffer needs no clearing: every entry a call sums it wrote first, and
// what an earlier call left in a slot no run of this one owns only ever
// flows into that slot's own lane.
var treeSums = sync.Pool{New: func() any { return new(treeSum) }}

// release returns ts to treeSums without the tables it gathered from,
// which a pooled buffer must not keep alive.
func (ts *treeSum) release() {
	clear(ts.tabs)
	treeSums.Put(ts)
}

// batchDHChunk is BatchDH for one chunk, its tree (if the chunk has the
// lanes for one) on ts's buffers.
func batchDHChunk(ts *treeSum, pubs []Point, privs []Scalar, out [][32]byte) {
	tabs := make([]*fixedTable, len(pubs)) // nil: not a tabled lane
	lanes, groups, rows := 0, 0, 0         // tabled lanes, and the widest shape's groups and rows
	for i, p := range pubs {
		if !p.IsIdentity() && !privs[i].IsZero() {
			tabs[i] = p.table()
		}
		if tabs[i] == nil {
			out[i] = DH(p, privs[i])
			continue
		}
		lanes++
		groups, rows = max(groups, tabs[i].shape.groups), max(rows, tabs[i].shape.rows())
	}
	if lanes == 0 {
		return
	}
	tree := lanes >= treeSumMin
	if tree {
		ts.reset(lanes, groups, rows)
	}
	js := make([]jacPoint, len(pubs))
	var buf [maxDigits]int16
	var digits []int16 // nil until a key is recoded; then of in ofShape
	var ofShape tableShape
	var of Scalar // Scalars are immutable: same v, same value
	for i, t := range tabs {
		if t == nil {
			continue
		}
		t.ensure(pubs[i])
		if digits == nil || ofShape != t.shape || of.v != privs[i].v {
			digits = t.recode(privs[i], &buf)
			ofShape, of = t.shape, privs[i]
		}
		if tree {
			ts.gather(t, digits)
		} else {
			t.walk(&js[i], digits)
		}
	}
	if tree {
		ts.reduce()
		ts.finish(tabs, privs, js)
	}
	// A tabled lane's accumulator is never the identity (non-zero
	// scalar, non-identity key, prime order), so Z marks those slots.
	for i, pt := range BatchToAffine(js) {
		if !pt.IsIdentity() {
			out[i] = SharedSecret(pt)
		}
	}
}

// treeSum is the batched form of walk. A walk is a sum of known table
// entries, and a sum can be re-associated: every lane's entries are
// gathered per digit group into runs, and all runs of all lanes are
// then reduced level by level, entries 2i and 2i+1 of a run added in
// affine coordinates into entry i, with every chord denominator of a
// level put through one inversion chain. A key's run of 17 halves
// 17→9→5→3→2→1 and the generator's of 24 halves 24→12→6→3→2→1, so a
// whole tree costs five true inversions and ≈ 6 field multiplications
// per addition against addAffine's 11. A generator lane's one run ends
// as its affine sum (readBase); a key lane's w·(q−1) doublings between
// group sums run on a Jacobian accumulator (finish).
//
// Layout. Eight runs share a block group, one SIMD slot each: the q
// runs of gathered lane k sit in slot k%8 of groups (k/8)·q … (k/8)·q+q−1,
// q being the widest shape's, and entry j of a group's eight runs is
// the group's block j. A level pairs blocks 2i·s and (2i+1)·s in place,
// s doubling from level to level, so the live entries of a run stay at
// multiples of s and nothing moves between levels. Where the CPU has
// AVX-512 IFMA (feIFMA) a block is one fe8 each for x and y and a level
// runs eight slots at once (level8); elsewhere it is eight affinePoints
// and a level runs one run at a time. Only that per-level arithmetic,
// the domain crossings and finish's fold have two bodies; the layout,
// the run bookkeeping and the fallbacks are one.
//
// The chord formula divides by x₂−x₁, which is zero exactly when a pair
// doubles or cancels. No canonical recoding reaches that — in every
// pair the right operand's rows outweigh the left's, as in walk (see
// TestKeyTableExceptionalPaths) — but a wrong answer here would be a
// silent one, so a level that meets a zero denominator marks that run
// bad (and only that run) and starts over without it, and finish or
// readBase sends its lane through walk, which folds both cases itself.
// The fallback is the reference, so the answer is exact either way.
type treeSum struct {
	runs []sumRun // slot l of block group g is runs[8g+l]
	// refs[(8g+l)·rows+j] is entry j of that run, as gather found it:
	// 1 + its index in the lane's table, negated for a negative digit.
	refs         []int16
	tabs         []*fixedTable // each gathered lane's
	groups, rows int           // block groups a gathered octet of lanes takes, and blocks a group
	wide         bool          // the blocks are fe8 (feIFMA at reset)
	pts          []affinePoint
	x8, y8       []fe8
	chain        []fe  // a level's prefix products, scalar
	chain8       []fe8 // and eight-lane
}

// sumRun is one digit group's entries, at blocks 0, s, 2s, … of its
// slot at stride s: n shrinks to 1 (the group's sum) as the levels go
// by, 0 is a group with no non-zero digit or a run gone bad.
type sumRun struct {
	n   int
	bad bool // met a doubling or cancelling pair
}

// reset empties ts for lanes gathered lanes whose shapes take at most
// groups groups of rows entries, growing its buffers if they are
// short: a block per entry (64 B a slot, 80 on the eight-lane kernel),
// its ref (2 B) and the longest level's prefix products (≈ 16 B a
// slot). A key lane's 65 digits take ≈ 6 KiB, kept from chunk to chunk
// and, through treeSums, from call to call.
func (ts *treeSum) reset(lanes, groups, rows int) {
	ts.groups, ts.rows, ts.wide = groups, rows, feIFMA
	g := (lanes + 7) / 8 * groups
	blocks, pairs := g*rows, g*(rows/2)
	if cap(ts.runs) < 8*g {
		ts.runs = make([]sumRun, 8*g)
	}
	if cap(ts.refs) < 8*blocks {
		ts.refs = make([]int16, 8*blocks)
	}
	ts.runs, ts.refs = ts.runs[:8*g], ts.refs[:8*blocks]
	clear(ts.runs)
	ts.tabs = ts.tabs[:0]
	if ts.wide {
		if cap(ts.x8) < blocks {
			ts.x8, ts.y8 = make([]fe8, blocks), make([]fe8, blocks)
		}
		if cap(ts.chain8) < pairs+1 {
			ts.chain8 = make([]fe8, pairs+1)
		}
		ts.x8, ts.y8 = ts.x8[:blocks], ts.y8[:blocks]
		return
	}
	if cap(ts.pts) < 8*blocks {
		ts.pts = make([]affinePoint, 8*blocks)
	}
	if cap(ts.chain) < 8*pairs+1 {
		ts.chain = make([]fe, 8*pairs+1)
	}
	ts.pts = ts.pts[:8*blocks]
}

// group is the block group holding gathered lane k's group r, in slot
// k%8: its run is runs[8·group+k%8], its entries blocks group·rows on.
func (ts *treeSum) group(k, r int) int { return k/8*ts.groups + r }

// gather adds the next lane: for each digit group, walk's entries in
// walk's order, as refs.
func (ts *treeSum) gather(t *fixedTable, digits []int16) {
	q, half := t.shape.groups, t.shape.half()
	k := len(ts.tabs)
	ts.tabs = append(ts.tabs, t)
	for r := 0; r < q; r++ {
		slot := 8*ts.group(k, r) + k%8
		refs := ts.refs[slot*ts.rows:]
		n, row := 0, int16(0)
		for i := r; i < len(digits); i += q {
			if d := digits[i]; d > 0 {
				refs[n] = row + d
				n++
			} else if d < 0 {
				refs[n] = -(row - d)
				n++
			}
			row += int16(half)
		}
		ts.runs[slot].n = n
	}
}

// load writes every gathered entry into its block, a block's eight
// slots one after another, y negated for a negative digit. On the
// eight-lane kernel the slots take the entries' limbs as they are,
// and one fe8MulConst a coordinate moves the block to R = 2^260 on its
// way in.
func (ts *treeSum) load() {
	var x, y fe8 // a block, raw
	for g := range len(ts.runs) / 8 {
		runs := ts.runs[8*g : 8*g+8]
		tabs := ts.tabs[g/ts.groups*8:] // the octet's lanes
		refs := ts.refs[8*g*ts.rows:]
		for j := range ts.longest(g) {
			b := g*ts.rows + j
			for l, r := range runs {
				if j >= r.n {
					continue
				}
				ref := refs[l*ts.rows+j]
				e := tabs[l].entries[max(ref, -ref)-1]
				if ref < 0 {
					feNeg(&e.y, &e.y)
				}
				if ts.wide {
					fe8SetRaw(&x, l, &e.x)
					fe8SetRaw(&y, l, &e.y)
				} else {
					ts.pts[8*b+l] = e
				}
			}
			if ts.wide {
				fe8MulConst(&ts.x8[b], &x, &fe8FromRaw)
				fe8MulConst(&ts.y8[b], &y, &fe8FromRaw)
			}
		}
	}
}

// longest is the entry count of group g's longest run.
func (ts *treeSum) longest(g int) int {
	m := 0
	for _, r := range ts.runs[8*g : 8*g+8] {
		m = max(m, r.n)
	}
	return m
}

// reduce halves every run until each holds its group's sum.
func (ts *treeSum) reduce() {
	ts.load()
	for s := 1; ; s *= 2 {
		more := false
		for _, r := range ts.runs {
			more = more || r.n > 1
		}
		if !more {
			return
		}
		for !ts.level(s) {
		}
		for i := range ts.runs {
			ts.runs[i].n = (ts.runs[i].n + 1) / 2
		}
	}
}

// level adds every run's pairs at stride s, or, if it meets a zero
// denominator, marks that run bad and returns false without having
// written an entry, for the caller to run the level again.
func (ts *treeSum) level(s int) bool {
	if ts.wide {
		return ts.level8(s)
	}
	var c feInvChain
	c.reset(ts.chain)
	for g := range len(ts.runs) / 8 {
		for l := range 8 {
			r := &ts.runs[8*g+l]
			run := ts.pts[8*g*ts.rows+l:] // entry j at run[8j]
			for i := 0; 2*i+1 < r.n; i++ {
				var d fe
				feSub(&d, &run[8*(2*i+1)*s].x, &run[8*2*i*s].x)
				if d.isZero() {
					r.n, r.bad = 0, true
					return false
				}
				c.push(&d)
			}
		}
	}
	c.invert()
	for g := len(ts.runs)/8 - 1; g >= 0; g-- {
		for l := 7; l >= 0; l-- {
			run := ts.pts[8*g*ts.rows+l:]
			for i := ts.runs[8*g+l].n/2 - 1; i >= 0; i-- {
				// Chord through a = entry 2i, b = entry 2i+1:
				// λ = (y_b−y_a)/(x_b−x_a), x₃ = λ²−x_a−x_b,
				// y₃ = λ(x_a−x₃)−y_a, into a.
				a, b := &run[8*2*i*s], &run[8*(2*i+1)*s]
				var d, lam, dinv fe
				feSub(&d, &b.x, &a.x)
				feSub(&lam, &b.y, &a.y)
				c.inverse(&dinv)
				c.drop(&d)
				feMul(&lam, &lam, &dinv)
				feChord(&a.x, &a.y, &lam, &a.x, &a.y, &b.x)
			}
		}
	}
	return true
}

// pairLanes is which slots of group g have a pair at index i (real)
// and which have entry 2i as their last (tail).
func (ts *treeSum) pairLanes(g, i int) (real, tail uint8) {
	for l, r := range ts.runs[8*g : 8*g+8] {
		switch {
		case 2*i+1 < r.n:
			real |= 1 << l
		case 2*i+1 == r.n:
			tail |= 1 << l
		}
	}
	return real, tail
}

// level8 is level on the eight-lane kernel: a block pair's eight
// slots under one chord, their denominators in one fe8InvChain. A slot
// without a pair at that index gets 1 for a denominator, and a run's
// last entry, which the chord would overwrite, is kept aside and put
// back.
func (ts *treeSum) level8(s int) bool {
	// Declared once: a temporary in the loops would be zeroed a block.
	var c fe8InvChain
	var d, lam, dinv, t, u, tx, ty fe8
	dummy := func(real uint8) {
		for l := range 8 {
			if real&(1<<l) == 0 {
				for j := range d {
					d[j][l] = fe8One[j][l]
				}
			}
		}
	}
	groups := len(ts.runs) / 8
	c.reset(ts.chain8)
	for g := range groups {
		for i := 0; 2*i+1 < ts.longest(g); i++ {
			a, b := g*ts.rows+2*i*s, g*ts.rows+(2*i+1)*s
			real, _ := ts.pairLanes(g, i)
			fe8Sub(&d, &ts.x8[b], &ts.x8[a])
			dummy(real)
			c.push(&d)
		}
	}
	if zero := c.invert(); zero != 0 {
		ts.markZero(s, zero)
		return false
	}
	for g := groups - 1; g >= 0; g-- {
		for i := ts.longest(g)/2 - 1; i >= 0; i-- {
			a, b := g*ts.rows+2*i*s, g*ts.rows+(2*i+1)*s
			real, tail := ts.pairLanes(g, i)
			fe8Sub(&d, &ts.x8[b], &ts.x8[a])
			dummy(real)
			fe8Sub(&lam, &ts.y8[b], &ts.y8[a])
			c.inverse(&dinv)
			c.drop(&d)
			fe8Mul(&lam, &lam, &dinv)
			if tail != 0 {
				tx, ty = ts.x8[a], ts.y8[a]
			}
			fe8Chord(&ts.x8[a], &ts.y8[a], &lam, &ts.x8[a], &ts.y8[a], &ts.x8[b], &t, &u)
			for l := range 8 {
				if tail&(1<<l) != 0 {
					for j := range tx {
						ts.x8[a][j][l], ts.y8[a][j][l] = tx[j][l], ty[j][l]
					}
				}
			}
		}
	}
	return true
}

// markZero marks bad every run in the slots zero whose pair at stride
// s has a zero denominator: a zero chain total has a zero factor.
func (ts *treeSum) markZero(s int, zero uint8) {
	found := false
	for g := range len(ts.runs) / 8 {
		for i := 0; 2*i+1 < ts.longest(g); i++ {
			real, _ := ts.pairLanes(g, i)
			if real&zero == 0 {
				continue
			}
			var d fe8
			fe8Sub(&d, &ts.x8[g*ts.rows+(2*i+1)*s], &ts.x8[g*ts.rows+2*i*s])
			for l := range 8 {
				if real&zero&fe8Zero(&d)&(1<<l) != 0 {
					ts.runs[8*g+l] = sumRun{bad: true}
					found = true
				}
			}
		}
	}
	if !found {
		panic("group: a zero chain total without a zero denominator")
	}
}

// sum reads entry 0 of group g's run in slot l, canonical: the run's
// sum once reduce is done.
func (ts *treeSum) sum(g, l int) affinePoint {
	b := g * ts.rows
	if !ts.wide {
		return ts.pts[8*b+l]
	}
	return affinePoint{fe8Get(&ts.x8[b], l), fe8Get(&ts.y8[b], l)}
}

// finish resolves the gathered lanes — tabs' non-nil entries in order,
// the scalars privs — into their identity accumulators in js: each
// lane's group sums folded the way walk orders them, highest group
// first and w doublings between groups, or, if one of its runs went
// bad, the walk itself. On the eight-lane kernel the lanes of an octet
// that share a shape and whose every group has a sum fold together
// (fold8); the rest, and every lane on the scalar kernel, one by one.
func (ts *treeSum) finish(tabs []*fixedTable, privs []Scalar, js []jacPoint) {
	var octet [8]int // an octet's lanes, by their index in tabs
	k := 0
	for i, t := range tabs {
		if t == nil {
			continue
		}
		octet[k%8] = i
		if k++; k%8 == 0 || k == len(ts.tabs) {
			ts.finishOctet((k-1)/8, octet[:(k-1)%8+1], tabs, privs, js)
		}
	}
}

// finishOctet is finish for gathered octet o, whose lane in slot l is
// tabs[octet[l]].
func (ts *treeSum) finishOctet(o int, octet []int, tabs []*fixedTable, privs []Scalar, js []jacPoint) {
	var vec uint8 // the lanes fold8 takes
	var shape tableShape
	for l, i := range octet {
		t := tabs[i]
		if !ts.wide || t.shape.groups < 2 || vec != 0 && t.shape != shape {
			continue
		}
		clean := true
		for r := range t.shape.groups {
			clean = clean && ts.runs[8*ts.group(8*o, r)+l].n == 1
		}
		if clean {
			shape, vec = t.shape, vec|1<<l
		}
	}
	if vec != 0 {
		vec = ts.fold8(o, shape, vec, octet, js)
	}
	for l, i := range octet {
		if vec&(1<<l) != 0 {
			continue
		}
		t, acc := tabs[i], &js[i]
		for r := t.shape.groups - 1; r >= 0; r-- {
			g := ts.group(8*o, r)
			run := ts.runs[8*g+l]
			if run.bad {
				var buf [maxDigits]int16
				acc.setIdentity()
				t.walk(acc, t.recode(privs[i], &buf))
				break
			}
			if r < t.shape.groups-1 {
				for range t.shape.window {
					acc.double()
				}
			}
			if run.n == 1 {
				sum := ts.sum(g, l)
				acc.addAffine(&sum, false)
			}
		}
	}
}

// fold8 is finish's fold for the lanes of octet o in vec, all of one
// shape and with a sum in every group, on eight lanes at once. It
// returns the lanes it resolved: a lane whose accumulator meets a
// group sum at the same x is left to the one-lane fold, which handles
// doublings and cancels.
func (ts *treeSum) fold8(o int, shape tableShape, vec uint8, octet []int, js []jacPoint) uint8 {
	w, q := shape.window, shape.groups
	block := func(r int) int { return ts.group(8*o, r) * ts.rows }
	var p jac8
	p.x, p.y, p.z = ts.x8[block(q-1)], ts.y8[block(q-1)], fe8One
	for r := q - 2; r >= 0; r-- {
		for range w {
			p.double()
		}
		vec &^= p.addAffine(&ts.x8[block(r)], &ts.y8[block(r)])
	}
	for l, i := range octet {
		if vec&(1<<l) != 0 {
			js[i] = jacPoint{fe8Get(&p.x, l), fe8Get(&p.y, l), fe8Get(&p.z, l)}
		}
	}
	return vec
}

// fbBatchMin is the batch size from which BatchBase sums its lanes as
// one tree instead of walking each on a Jacobian accumulator. The walk
// pays one shared inversion at the end, the tree five, and the tree
// saves a little on every lane. Both timed in one process on a 2-vCPU
// AVX-512 IFMA Xeon, 2 001 alternating calls a size on fresh scalars,
// two runs a kernel (medians, tree against walk). The eight-lane tree
// runs in octets of lanes, so a ninth lane costs a whole second block
// group: −4 to +11 % at 5, −15 % at 6 (winning 95–96 % of the pairs),
// −14 to −24 % at 7, −30 % at 8 and −16 % at 9. The scalar tree: −5 to
// +2 % at 5, +3 % at 6 (39–54 %), −13 % at 7 (85–88 %), −4 to −11 % at
// 8 and −6 to −14 % at 9. 7 is the first size from which the tree wins
// more than half of the pairs in every run on both kernels.
const fbBatchMin = 7

// BatchBase returns g^scalars[i] for every scalar; zero scalars yield
// the identity. From fbBatchMin scalars up every scalar's generator
// entries are gathered into one tree (treeSum), chunkLanes at a time,
// and each lane's sum is read out already affine; smaller batches walk
// each scalar and share one inversion at the end.
func BatchBase(scalars []Scalar) []Point {
	n := len(scalars)
	if n == 0 {
		return nil
	}
	genTable.ensure(genPoint)
	var buf [maxDigits]int16
	if n < fbBatchMin {
		js := make([]jacPoint, n)
		for i, s := range scalars {
			genTable.walk(&js[i], genTable.recode(s, &buf))
		}
		return BatchToAffine(js)
	}
	out := make([]Point, n)
	ts := treeSums.Get().(*treeSum)
	defer ts.release()
	step := genShape.chunkLanes()
	for lo := 0; lo < n; lo += step {
		chunk := scalars[lo:min(lo+step, n)]
		ts.reset(len(chunk), genShape.groups, genShape.rows())
		for _, s := range chunk {
			ts.gather(&genTable, genTable.recode(s, &buf))
		}
		ts.reduce()
		ts.readBase(chunk, out[lo:])
	}
	return out
}

// readBase writes the reduced generator lanes gathered from scalars
// into out. A lane is one run, runs[k] for lane k, and the run's one
// entry is its sum, already affine; an empty run is a zero scalar's
// identity, and a run that went bad is the walk's to answer, as in
// finish.
func (ts *treeSum) readBase(scalars []Scalar, out []Point) {
	for k, r := range ts.runs[:len(scalars)] {
		switch {
		case r.bad:
			out[k] = genTable.mul(genPoint, scalars[k])
		case r.n == 1:
			out[k].affinePoint = ts.sum(k/8, k%8)
		}
	}
}
