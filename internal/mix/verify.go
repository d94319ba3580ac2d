package mix

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/group"
	"repro/internal/onion"
)

// Submission proof checking (§6.2). The serial seed verified one
// Schnorr proof at a time; this is the round's single biggest
// public-key cost, so it is batched and fanned over a worker pool: a
// chunk is prepared once (nizk.DlogBatch) and its defect computed with
// one multi-scalar multiplication — the identity iff every proof in it
// verifies, which is all the all-honest path pays. A failing chunk is
// not a boolean but a point: defects of adjacent ranges multiply, so
// one half-sized multiplication per failing range gives both halves'
// defects, and the walk descends only into halves whose defect is not
// the identity, down to ranges of bisectFloor where the per-proof loop
// names the culprits — exactly the indices that loop alone would.
//
// What a prover can force: an isolated bad proof costs less than one
// more pass over its chunk at the batch price and bisectFloor single
// checks; a bad proof in every leaf costs half a pass per level, then
// the single checks a sweep would have run anyway (DESIGN.md, "Blame
// attribution under batching"; TestDefectWalkCost pins both counts).

const (
	// submissionChunkMax caps one batch's multi-scalar
	// multiplication; beyond this the bucket width stops growing and
	// chunks only add walk depth.
	submissionChunkMax = 4096
	// submissionChunkMin is the smallest batch worth the MSM setup
	// when splitting work across workers.
	submissionChunkMin = 64
	// bisectFloor is the range size below which per-proof
	// verification beats further halving.
	bisectFloor = 8
)

// VerifySubmissionProofs checks all submission knowledge proofs and
// returns the indices whose proofs are invalid, in ascending order.
// Chunks of the batch are verified concurrently by a bounded worker
// pool, each chunk with one multi-scalar multiplication; a failing
// chunk's defect is halved so the returned indices match a serial
// onion.VerifySubmission sweep exactly.
func VerifySubmissionProofs(subs []onion.Submission, round uint64, chain int) []int {
	n := len(subs)
	if n == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	chunk := submissionChunk(n, workers)
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}

	// Workers claim chunks from an atomic cursor: at most `workers`
	// MSMs (and their digit/bucket scratch) live at once no matter
	// how many chunks a huge round splits into.
	var mu sync.Mutex
	var bad []int
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= nChunks {
					return
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > n {
					hi = n
				}
				if found := badProofsIn(subs, lo, hi, round, chain); len(found) > 0 {
					mu.Lock()
					bad = append(bad, found...)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	sort.Ints(bad)
	return bad
}

// submissionChunk is the batch size n proofs are cut into for workers
// workers: an even split, within the two bounds.
func submissionChunk(n, workers int) int {
	return min(max((n+workers-1)/workers, submissionChunkMin), submissionChunkMax)
}

// badProofsIn verifies subs[lo:hi]: one defect for the whole range,
// halved to the culprits if it is not the identity.
func badProofsIn(subs []onion.Submission, lo, hi int, round uint64, chain int) []int {
	sweep := func(l, h int) []int { return sweepProofs(subs, lo+l, lo+h, round, chain) }
	n := hi - lo
	if n <= bisectFloor {
		return sweep(0, n)
	}
	b, err := onion.PrepareSubmissionBatch(subs[lo:hi], round, chain)
	if err != nil {
		// No weights to batch with; the ground truth needs none.
		return sweep(0, n)
	}
	return halveDefect(b.Defect, sweep, 0, n, b.Defect(0, n))
}

// halveDefect returns what sweep finds in the leaves of [lo, hi) that
// hold a bad proof, given the range's defect d: the left half's defect
// is computed and the right half's follows from the two. defect and
// sweep are a DlogBatch's and sweepProofs, or the test's that counts.
func halveDefect(defect func(lo, hi int) group.Point, sweep func(lo, hi int) []int, lo, hi int, d group.Point) []int {
	if d.IsIdentity() {
		return nil
	}
	if hi-lo <= bisectFloor {
		return sweep(lo, hi)
	}
	mid := lo + (hi-lo)/2
	left := defect(lo, mid)
	return append(halveDefect(defect, sweep, lo, mid, left),
		halveDefect(defect, sweep, mid, hi, d.Add(left.Neg()))...)
}

// sweepProofs is the per-proof reference loop, the ground truth the
// batch path must agree with.
func sweepProofs(subs []onion.Submission, lo, hi int, round uint64, chain int) []int {
	var bad []int
	for i := lo; i < hi; i++ {
		if onion.VerifySubmission(subs[i], round, chain) != nil {
			bad = append(bad, i)
		}
	}
	return bad
}
