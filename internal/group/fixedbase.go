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
// accumulator: the tree saves ≈ 4 µs a lane and costs five field
// inversions (≈ 13 µs) a time, so it breaks even between two and four
// lanes (BenchmarkBatchDH: level at 4, −12 % at 7, −20 % from 28 up).
const treeSumMin = 4

// treeChunk is how many digit slots one tree holds: BatchDH and
// BatchBase resolve their lanes chunkLanes at a time. The buffers take
// 96 B a slot, and past a few hundred KiB they fall out of cache and
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
	defer treeSums.Put(ts)
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
// call was most of what a building process allocated. Every byte a call
// reads it wrote first (gather and reduce append; feBatchInv fills its
// scratch), so a recycled buffer needs no clearing.
var treeSums = sync.Pool{New: func() any { return new(treeSum) }}

// batchDHChunk is BatchDH for one chunk, its tree (if the chunk has the
// lanes for one) on ts's buffers.
func batchDHChunk(ts *treeSum, pubs []Point, privs []Scalar, out [][32]byte) {
	tabs := make([]*fixedTable, len(pubs)) // nil: not a tabled lane
	lanes, slots := 0, 0                   // tabled lanes, and the digits they recode to
	for i, p := range pubs {
		if !p.IsIdentity() && !privs[i].IsZero() {
			tabs[i] = p.table()
		}
		if tabs[i] == nil {
			out[i] = DH(p, privs[i])
			continue
		}
		lanes++
		slots += tabs[i].shape.digits()
	}
	if lanes == 0 {
		return
	}
	tree := lanes >= treeSumMin
	if tree {
		ts.reset(slots)
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
		for i, t := range tabs {
			if t != nil {
				ts.finish(t, privs[i], &js[i])
			}
		}
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
// gathered per digit group into contiguous runs, and all runs of all
// lanes are then reduced level by level, adjacent pairs added in affine
// coordinates with every chord denominator of a level put through one
// feBatchInv. A key's run of 17 halves 17→9→5→3→2→1 and the
// generator's of 24 halves 24→12→6→3→2→1, so a whole tree costs five
// true inversions and ≈ 6 field multiplications per addition against
// addAffine's 11. A generator lane's one run ends as its affine sum
// (readBase); a key lane's w·(q−1) doublings between group sums stay on
// a Jacobian accumulator (finish).
//
// The chord formula divides by x₂−x₁, which is zero exactly when a pair
// doubles or cancels. No canonical recoding reaches that — in every
// pair the right operand's rows outweigh the left's, as in walk (see
// TestKeyTableExceptionalPaths) — but a wrong answer here would be a
// silent one, so each denominator is checked: a run that meets a zero
// is dropped at that level, and finish or readBase sends its lane
// through walk, which folds both cases itself. The fallback is the
// reference, so the answer is exact either way.
type treeSum struct {
	pts          []affinePoint // every run's entries, packed
	runs         []sumRun      // groups() per lane, in gather order
	next         int           // finish's cursor into runs
	den, scratch []fe          // one level's denominators; feBatchInv's scratch
}

// sumRun is one digit group's entries, pts[start:start+n]: n shrinks to
// 1 (the group's sum) as the levels go by, 0 is a group with no
// non-zero digit.
type sumRun struct {
	start, n int
	bad      bool // met a doubling or cancelling pair
}

// reset empties ts for lanes recoding to slots digits in all, growing
// its buffers if they are short: 64 B of pts per digit and 32 B of
// denominator and scratch, ≈ 6 KiB for a key-shaped lane's 65 digits,
// kept from chunk to chunk and, through treeSums, from call to call.
func (ts *treeSum) reset(slots int) {
	if cap(ts.pts) < slots {
		ts.pts = make([]affinePoint, 0, slots)
		ts.den = make([]fe, 0, slots/2)
		ts.scratch = make([]fe, slots/2+1)
	}
	ts.pts, ts.runs, ts.next = ts.pts[:0], ts.runs[:0], 0
}

// gather appends one lane: for each digit group, walk's entries in
// walk's order, y negated for a negative digit.
func (ts *treeSum) gather(t *fixedTable, digits []int16) {
	q, half := t.shape.groups, t.shape.half()
	for r := 0; r < q; r++ {
		start, row := len(ts.pts), 0
		for i := r; i < len(digits); i += q {
			if d := int(digits[i]); d > 0 {
				ts.pts = append(ts.pts, t.entries[row+d-1])
			} else if d < 0 {
				e := t.entries[row-d-1]
				feNeg(&e.y, &e.y)
				ts.pts = append(ts.pts, e)
			}
			row += half
		}
		ts.runs = append(ts.runs, sumRun{start: start, n: len(ts.pts) - start})
	}
}

// reduce halves every run until each holds its group's sum.
func (ts *treeSum) reduce() {
	for {
		ts.den = ts.den[:0]
		for ri := range ts.runs {
			r := &ts.runs[ri]
			base := len(ts.den)
			for i := 0; i+1 < r.n; i += 2 {
				var d fe
				feSub(&d, &ts.pts[r.start+i+1].x, &ts.pts[r.start+i].x)
				if d.isZero() {
					ts.den = ts.den[:base]
					r.n, r.bad = 0, true
					break
				}
				ts.den = append(ts.den, d)
			}
		}
		if len(ts.den) == 0 {
			return
		}
		feBatchInv(ts.den, ts.scratch)
		k := 0
		for ri := range ts.runs {
			r := &ts.runs[ri]
			if r.n < 2 {
				continue
			}
			run := ts.pts[r.start : r.start+r.n]
			for i := 0; i+1 < r.n; i += 2 {
				// Chord through a = run[i], b = run[i+1]:
				// λ = (y_b−y_a)/(x_b−x_a), x₃ = λ²−x_a−x_b,
				// y₃ = λ(x_a−x₃)−y_a. Slot i/2 is behind both reads.
				a, b, sum := &run[i], &run[i+1], &run[i/2]
				var lam fe
				feSub(&lam, &b.y, &a.y)
				feMul(&lam, &lam, &ts.den[k])
				feChord(&sum.x, &sum.y, &lam, &a.x, &a.y, &b.x)
				k++
			}
			if r.n%2 == 1 {
				run[r.n/2] = run[r.n-1]
			}
			r.n = (r.n + 1) / 2
		}
	}
}

// finish resolves the next gathered lane, t's under s, into the
// identity accumulator acc: its group sums folded the way walk orders
// them — highest group first, w doublings between groups — or, if one
// of its runs went bad, the walk itself.
func (ts *treeSum) finish(t *fixedTable, s Scalar, acc *jacPoint) {
	w, q := t.shape.window, t.shape.groups
	runs := ts.runs[ts.next : ts.next+q]
	ts.next += q
	for r := q - 1; r >= 0; r-- {
		if runs[r].bad {
			var buf [maxDigits]int16
			acc.setIdentity()
			t.walk(acc, t.recode(s, &buf))
			return
		}
		if r < q-1 {
			for i := 0; i < w; i++ {
				acc.double()
			}
		}
		if runs[r].n == 1 {
			acc.addAffine(&ts.pts[runs[r].start], false)
		}
	}
}

// fbBatchMin is the batch size from which BatchBase sums its lanes as
// one tree instead of walking each on a Jacobian accumulator. The walk
// pays one shared inversion at the end, the tree five, and the tree
// saves ≈ 1.5–3 µs a lane: timed in one process, alternating, on fresh
// scalars, the two are level at 4–5 scalars and the tree is −7 % at 6,
// −12 % at 8 and −25 to −38 % at 24.
const fbBatchMin = 6

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
	defer treeSums.Put(ts)
	step := genShape.chunkLanes()
	for lo := 0; lo < n; lo += step {
		chunk := scalars[lo:min(lo+step, n)]
		ts.reset(len(chunk) * genShape.digits())
		for _, s := range chunk {
			ts.gather(&genTable, genTable.recode(s, &buf))
		}
		ts.reduce()
		ts.readBase(chunk, out[lo:])
	}
	return out
}

// readBase writes the reduced generator lanes gathered from scalars
// into out. A lane is one run, and the run's one entry is its sum,
// already affine; an empty run is a zero scalar's identity, and a run
// that went bad is the walk's to answer, as in finish.
func (ts *treeSum) readBase(scalars []Scalar, out []Point) {
	for i, r := range ts.runs {
		switch {
		case r.bad:
			out[i] = genTable.mul(genPoint, scalars[i])
		case r.n == 1:
			out[i].affinePoint = ts.pts[r.start]
		}
	}
}
