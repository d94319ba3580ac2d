package mix

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/onion"
)

// TestMixBatchMatchesReference pins the batched hop to the
// per-message reference path it replaced. On a batch large enough to
// run the group.BatchMul kernel and to split into several worker
// ranges: a dirty batch (identity key, garbled ciphertext) fails at
// exactly the indices a PeelAHS sweep rejects, and on the clean batch
// (which keeps a duplicated envelope) every output is the blinded key
// and peeled ciphertext of the input the permutation says it is.
// Then the same for the end-of-chain inner open against OpenInner.
func TestMixBatchMatchesReference(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := testChain(t, 2)
	nonce := aead.RoundNonce(1, 0)
	subs, _ := submitMany(t, c, 2*minRange+5)
	clean := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		clean[i] = sub.Envelope.Clone()
	}
	clean[9] = clean[8].Clone() // duplicate key and ciphertext
	s := c.server(0)

	dirty := make([]onion.Envelope, len(clean))
	for i, env := range clean {
		dirty[i] = env.Clone()
	}
	dirty[3].DHKey = group.Identity()
	garble(dirty[minRange+1].Ct)
	dirty[len(dirty)-1].DHKey = dirty[0].DHKey // a key that is not this ciphertext's
	var wantFailed []int
	for j, env := range dirty {
		if _, err := onion.PeelAHS(scheme, s.msk, nonce, env); err != nil {
			wantFailed = append(wantFailed, j)
		}
	}
	if len(wantFailed) != 3 {
		t.Fatalf("reference sweep failed %v, want three indices", wantFailed)
	}
	mr, err := s.Mix(1, nonce, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(mr.Failed, wantFailed) || mr.Out != nil {
		t.Fatalf("Mix failed %v with %d outputs, reference %v", mr.Failed, len(mr.Out), wantFailed)
	}

	mr, err = s.Mix(1, nonce, clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Failed) != 0 || len(mr.Out) != len(clean) || len(s.lastPerm) != len(clean) {
		t.Fatalf("clean batch: failed %v, %d outputs", mr.Failed, len(mr.Out))
	}
	for p, j := range s.lastPerm {
		pt, err := onion.PeelAHS(scheme, s.msk, nonce, clean[j])
		if err != nil {
			t.Fatal(err)
		}
		if !mr.Out[p].DHKey.Equal(clean[j].DHKey.Mul(s.bsk)) || !bytes.Equal(mr.Out[p].Ct, pt) {
			t.Fatalf("output %d is not the blinded, peeled input %d", p, j)
		}
	}
	if err := VerifyMix(1, c.ID, 0, 0, c.keys[0].BpkPrev, c.keys[0].Bpk, clean, mr.Out, mr.Proof); err != nil {
		t.Fatal(err)
	}

	// Inner open: run the clean batch through the second hop to reach
	// the inner envelopes, then damage three of them.
	mr, err = c.server(1).Mix(1, nonce, mr.Out)
	if err != nil || len(mr.Failed) != 0 {
		t.Fatalf("second hop: %v, failed %v", err, mr.Failed)
	}
	inner := mr.Out
	innerSum := group.NewScalar(0)
	for i := 0; i < c.Len(); i++ {
		isk, err := c.server(i).RevealInnerKey(1)
		if err != nil {
			t.Fatal(err)
		}
		innerSum = innerSum.Add(isk)
	}
	inner[2].Ct[0] = 0x07                       // not a point encoding: g^y does not parse
	inner[minRange].Ct = inner[minRange].Ct[1:] // wrong length
	garble(inner[len(inner)-2].Ct)              // fails authentication
	got := openInnerBatch(scheme, innerSum, nonce, inner)
	dropped := 0
	for j, env := range inner {
		want, err := onion.OpenInner(scheme, innerSum, nonce, env.Ct)
		if (err != nil) != (got[j] == nil) || !bytes.Equal(got[j], want) {
			t.Fatalf("inner envelope %d: batch %x, OpenInner %x (%v)", j, got[j], want, err)
		}
		if got[j] == nil {
			dropped++
		}
	}
	if dropped != 3 {
		t.Fatalf("dropped %d inner envelopes, want 3", dropped)
	}
}

// TestParallelRangesMinimum checks no worker range falls below
// minRange however many CPUs there are, and that the ranges tile
// [0, n).
func TestParallelRangesMinimum(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{0, 1, minRange, 2*minRange - 1, 2 * minRange, 5*minRange + 7, 100 * minRange} {
		covered := make([]int32, n)
		ranges := make(chan int, 8) // one send per worker range, at most GOMAXPROCS
		parallelRanges(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				covered[j]++
			}
			ranges <- hi - lo
		})
		close(ranges)
		count := 0
		for size := range ranges {
			count++
			if size < minRange && size != n {
				t.Fatalf("n=%d: range of %d below minRange", n, size)
			}
		}
		if n >= 2*minRange && count < 2 {
			t.Fatalf("n=%d ran in %d range(s)", n, count)
		}
		for j, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, j, c)
			}
		}
	}
}

// TestRandomPermutationUniform checks the shuffle's distribution: over
// 24 000 permutations of four elements each of the 24 appears about
// 1 000 times, and a count past 1 000 ± 6σ (σ = √(24 000·(1/24)·(23/24))
// ≈ 31, so ± 186) fails — about a one-in-10⁷ chance for a uniform
// shuffle. A single bounded draw, randInt, is checked for modulo bias
// at n = 3·2⁶¹, where taking a uniform 63-bit x mod n would put 62.5 %
// of the draws below n/2; a uniform draw puts 50 % there, and 30 000
// draws must land within 6σ (≈ 1.7 points) of it.
func TestRandomPermutationUniform(t *testing.T) {
	const draws, perms = 24000, 24
	counts := map[[4]int]int{}
	for range draws {
		var key [4]int
		copy(key[:], randomPermutation(4))
		counts[key]++
	}
	if len(counts) != perms {
		t.Fatalf("%d distinct permutations of 4, want %d", len(counts), perms)
	}
	const want, bound = draws / perms, 186
	for p, c := range counts {
		if c < want-bound || c > want+bound {
			t.Fatalf("permutation %v drawn %d times, want %d ± %d", p, c, want, bound)
		}
	}

	const n, m = 3 << 61, 30000
	below := 0
	for range m {
		if randInt(n) < n/2 {
			below++
		}
	}
	if share := float64(below) / m; share < 0.5-0.017 || share > 0.5+0.017 {
		t.Fatalf("%.4f of draws below n/2 at n = 3·2⁶¹, want 0.5 ± 0.017", share)
	}
}
