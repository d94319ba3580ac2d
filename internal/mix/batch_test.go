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
	s := c.Servers[0]

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
	if len(mr.Failed) != 0 || len(mr.Out) != len(clean) || !isPermutation(mr.Out2In, len(clean)) {
		t.Fatalf("clean batch: failed %v, %d outputs", mr.Failed, len(mr.Out))
	}
	for p, j := range mr.Out2In {
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
	mr, err = c.Servers[1].Mix(1, nonce, mr.Out)
	if err != nil || len(mr.Failed) != 0 {
		t.Fatalf("second hop: %v, failed %v", err, mr.Failed)
	}
	inner := mr.Out
	innerSum := group.NewScalar(0)
	for _, srv := range c.Servers {
		isk, err := srv.RevealInnerKey(1)
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
