package mix

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// memoless returns a server with s's long-term keys and nothing
// else: no lastIn, no lastPows. Its Mix is the reference every Mix of
// s must agree with, whatever s was handed before.
func memoless(s *Server) *Server {
	return &Server{Chain: s.Chain, Index: s.Index, scheme: s.scheme,
		bsk: s.bsk, msk: s.msk, bpk: s.bpk, mpk: s.mpk, bpkPrev: s.bpkPrev}
}

// checkMixAgrees requires got, s's answer for batch in, to be what a
// memo-less server answers for it: the same Failed list, or — undone
// by each side's own kept permutation — the same blinded key and
// peeled ciphertext for every input, under a certificate VerifyMix
// accepts. It then requires s to hold in's keys as lastIn, a
// permutation only if the call succeeded, and powers only if it
// failed.
func checkMixAgrees(t *testing.T, s *Server, round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope, got *MixResult) {
	t.Helper()
	ref := memoless(s)
	want, err := ref.Mix(round, nonce, in)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got.Failed, want.Failed) {
		t.Fatalf("failed %v, reference %v", got.Failed, want.Failed)
	}
	if len(got.Failed) > 0 {
		if got.Out != nil || s.lastPerm != nil {
			t.Fatalf("a failed Mix returned %d outputs and kept a permutation of %d", len(got.Out), len(s.lastPerm))
		}
		if len(s.lastPows[0]) != len(in) || len(s.lastPows[1]) != len(in) {
			t.Fatalf("failed Mix of %d kept %d and %d powers", len(in), len(s.lastPows[0]), len(s.lastPows[1]))
		}
	} else {
		if len(got.Out) != len(in) || len(s.lastPerm) != len(in) || len(ref.lastPerm) != len(in) {
			t.Fatalf("%d inputs, %d outputs, permutation of %d", len(in), len(got.Out), len(s.lastPerm))
		}
		byInput := make([]onion.Envelope, len(in))
		for p, j := range ref.lastPerm {
			byInput[j] = want.Out[p]
		}
		for p, j := range s.lastPerm {
			if !got.Out[p].DHKey.Equal(byInput[j].DHKey) || !bytes.Equal(got.Out[p].Ct, byInput[j].Ct) {
				t.Fatalf("output %d is not the reference's output for input %d", p, j)
			}
		}
		if err := VerifyMix(round, s.Chain, s.Index, 0, s.bpkPrev, s.bpk, in, got.Out, got.Proof); err != nil {
			t.Fatal(err)
		}
		// (d) nothing per message outlives a successful Mix but lastIn.
		if s.lastPows[0] != nil || s.lastPows[1] != nil {
			t.Fatalf("successful Mix kept %d powers", len(s.lastPows[0]))
		}
	}
	if len(s.lastIn) != len(in) || s.lastRound != round {
		t.Fatalf("lastIn holds %d keys of round %d, mixed %d in round %d", len(s.lastIn), s.lastRound, len(in), round)
	}
	for j, e := range in {
		if !s.lastIn[j].Equal(e.DHKey) {
			t.Fatalf("lastIn[%d] is not input %d's key", j, j)
		}
	}
}

// TestRemixRecallsFailedMix pins the reuse across a blame retry. A
// batch wide enough to split into worker ranges fails in two of
// them; the server must then hold that call's powers, find every
// survivor among them, and answer the re-mix of the reduced set
// exactly as a server that never saw the failing call does — after
// which it holds no powers and recalls nothing.
func TestRemixRecallsFailedMix(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := testChain(t, 2)
	s := c.server(0)
	nonce := aead.RoundNonce(1, 0)
	subs, _ := submitMany(t, c, 2*minRange+5)
	dirty := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		dirty[i] = sub.Envelope.Clone()
	}
	garble(dirty[3].Ct)
	garble(dirty[minRange+1].Ct)
	dirty[len(dirty)-1].DHKey = dirty[0].DHKey // a key that is not this ciphertext's

	mr, err := s.Mix(1, nonce, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, minRange + 1, len(dirty) - 1}; !equalInts(mr.Failed, want) {
		t.Fatalf("failed %v, want %v", mr.Failed, want)
	}
	checkMixAgrees(t, s, 1, nonce, dirty, mr)
	for j, x := range s.lastIn {
		if !s.lastPows[0][j].Equal(x.Mul(s.msk)) || !s.lastPows[1][j].Equal(x.Mul(s.bsk)) {
			t.Fatalf("kept powers of input %d are not X^msk, X^bsk", j)
		}
	}

	survivors := without(dirty, mr.Failed)
	n := len(survivors)
	exchanged, blinded := make([]group.Point, n), make([]group.Point, n)
	if hit, miss := s.recall(dhKeys(survivors), exchanged, blinded); len(hit) != n || len(miss) != 0 {
		t.Fatalf("the survivors' re-mix would raise %d of %d keys again: %v", len(miss), n, miss)
	}
	for j, e := range survivors {
		if !exchanged[j].Equal(e.DHKey.Mul(s.msk)) || !blinded[j].Equal(e.DHKey.Mul(s.bsk)) {
			t.Fatalf("recalled powers of survivor %d are not its own", j)
		}
	}
	mr, err = s.Mix(1, nonce, survivors)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Failed) != 0 {
		t.Fatalf("re-mix of the survivors failed at %v", mr.Failed)
	}
	checkMixAgrees(t, s, 1, nonce, survivors, mr)

	// With nothing kept, every input is a miss.
	if hit, miss := s.recall(dhKeys(survivors), exchanged, blinded); len(hit) != 0 || len(miss) != n {
		t.Fatalf("after a successful Mix %d of %d keys still hit", len(hit), n)
	}
}

// TestRemixHostileRetry hands the server, after a failing Mix, every
// retry a confused or hostile orchestrator might: none may get an
// answer that differs from the memo-less reference in anything, the
// Failed list included. What is recalled depends on the point alone,
// so equal keys cannot be told apart and unequal ones are never
// matched.
func TestRemixHostileRetry(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	c := testChain(t, 2)
	s := c.server(0)
	nonce := aead.RoundNonce(1, 0)
	subs, _ := submitMany(t, c, 4*minRange+20)
	fresh := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		fresh[i] = sub.Envelope
	}
	// The failing batch is the first half; the second half's keys the
	// server has never seen.
	half := 2*minRange + 5
	dirty, unseen := append([]onion.Envelope(nil), fresh[:half]...), fresh[half:]
	failed := []int{3, minRange + 1}
	for _, j := range failed {
		dirty[j] = dirty[j].Clone()
		garble(dirty[j].Ct)
	}
	survivors := func() []onion.Envelope { return without(dirty, failed) }

	cases := []struct {
		name  string
		round uint64
		nonce [aead.NonceSize]byte
		batch func() []onion.Envelope
		fails int // -1: every input
	}{
		{"survivors", 1, nonce, survivors, 0},
		{"the failing batch again", 1, nonce, func() []onion.Envelope { return dirty }, 2},
		{"reordered", 1, nonce, func() []onion.Envelope {
			b := survivors()
			for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
				b[i], b[j] = b[j], b[i]
			}
			return b
		}, 0},
		{"rotated by one", 1, nonce, func() []onion.Envelope {
			b := survivors()
			return append(b[1:], b[0])
		}, 0},
		{"duplicated envelope", 1, nonce, func() []onion.Envelope {
			b := survivors()
			b[5] = b[4]
			return b
		}, 0},
		{"duplicated key under another ciphertext", 1, nonce, func() []onion.Envelope {
			b := survivors()
			b[5].DHKey = b[4].DHKey
			return b
		}, 1},
		{"unseen key in the middle", 1, nonce, func() []onion.Envelope {
			b := survivors()
			return append(append(b[:40:40], unseen[0]), b[40:]...)
		}, 0},
		{"three unseen keys at the end", 1, nonce, func() []onion.Envelope {
			return append(survivors(), unseen[:3]...) // misses below group.BatchMul's kernel
		}, 0},
		{"swapped ciphertexts under unchanged keys", 1, nonce, func() []onion.Envelope {
			b := survivors()
			b[7].Ct, b[8].Ct = b[8].Ct, b[7].Ct
			return b
		}, 2},
		{"removed key put back", 1, nonce, func() []onion.Envelope {
			b := survivors()
			return append(b, dirty[3])
		}, 1},
		{"another lane's nonce", 1, aead.RoundNonce(1, 1), survivors, -1},
		{"another round", 2, aead.RoundNonce(2, 0), survivors, -1},
		{"unrelated batch", 1, nonce, func() []onion.Envelope { return unseen }, 0}, // misses split into ranges
		{"survivors after an unrelated prefix", 1, nonce, func() []onion.Envelope {
			return append(unseen[:minRange:minRange], survivors()...)
		}, 0},
		{"one message", 1, nonce, func() []onion.Envelope { return survivors()[9:10] }, 0},
	}
	if len(unseen) < 2*minRange {
		t.Fatalf("unrelated batch of %d does not split", len(unseen))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mr, err := s.Mix(1, nonce, dirty)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(mr.Failed, failed) {
				t.Fatalf("priming Mix failed %v, want %v", mr.Failed, failed)
			}
			batch := tc.batch()
			mr, err = s.Mix(tc.round, tc.nonce, batch)
			if err != nil {
				t.Fatal(err)
			}
			wantFails := tc.fails
			if wantFails < 0 {
				wantFails = len(batch)
			}
			if len(mr.Failed) != wantFails {
				t.Fatalf("%d inputs failed, want %d", len(mr.Failed), wantFails)
			}
			checkMixAgrees(t, s, tc.round, tc.nonce, batch, mr)
		})
	}
}

// TestBlameRequestsNameTheMixedRound: reveals and re-certification
// are answered over the batch mixed last, so a request naming any
// other round gets an error, not material bound to one round's
// context over another round's keys.
func TestBlameRequestsNameTheMixedRound(t *testing.T) {
	c := testChain(t, 2)
	s := c.server(0)
	h := LocalHop(s)
	subs, _ := submitMany(t, c, 4)
	in := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		in[i] = sub.Envelope
	}
	keep := []bool{true, false, true, true}

	if _, err := h.BlameReveal(0, 0, 0); err == nil {
		t.Fatal("a server that never mixed revealed")
	}
	if _, err := h.Mix(1, aead.RoundNonce(1, 0), in); err != nil {
		t.Fatal(err)
	}
	for _, round := range []uint64{0, 2} {
		if _, err := h.BlameReveal(round, 0, 1); err == nil {
			t.Fatalf("reveal for round %d answered over round 1's batch", round)
		}
		if _, err := h.ReProveSubset(round, 1, keep); err == nil {
			t.Fatalf("re-certification for round %d answered over round 1's batch", round)
		}
	}
	rev, err := h.BlameReveal(1, 0, 1)
	if err != nil || !rev.Xin.Equal(in[s.lastPerm[1]].DHKey) {
		t.Fatalf("reveal for the mixed round: %v", err)
	}
	if _, err := h.ReProveSubset(1, 1, keep); err != nil {
		t.Fatal(err)
	}
}

// TestRevealEndsTheBatch: a server holds its last input keys and
// permutation for blame reveals and re-certification, which nothing
// can ask for once the round's inner key is out — so the reveal drops
// them (and a failed Mix's powers), and requests after it get the
// wrong-round error.
// BeginRound leaves a batch until it is two rounds behind the newest
// announcement (the prune for chains that halt and never reveal).
func TestRevealEndsTheBatch(t *testing.T) {
	c := testChain(t, 2)
	s := c.server(0)
	h := LocalHop(s)
	subs, _ := submitMany(t, c, 4)
	in := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		in[i] = sub.Envelope
	}
	keep := []bool{true, false, true, true}
	held := func(round uint64) bool {
		t.Helper()
		_, errReveal := h.BlameReveal(round, 0, 1)
		_, errProve := h.ReProveSubset(round, 1, keep)
		// A failed Mix's batch has no output, so nothing to reveal.
		if (errReveal == nil) != (errProve == nil && s.lastPerm != nil) {
			t.Fatalf("round %d: reveal %v, re-certification %v", round, errReveal, errProve)
		}
		return errProve == nil
	}
	mix := func(round uint64, in []onion.Envelope) {
		t.Helper()
		if _, _, err := h.BeginRound(round); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Mix(round, aead.RoundNonce(round, 0), in); err != nil {
			t.Fatal(err)
		}
	}

	// A failed Mix leaves keys and powers; the reveal drops both.
	dirty := append([]onion.Envelope(nil), in...)
	dirty[2] = dirty[2].Clone()
	garble(dirty[2].Ct)
	mix(1, dirty)
	if !held(1) || s.lastPows[0] == nil {
		t.Fatal("a failed Mix's batch is not held")
	}
	if _, err := h.RevealInnerKey(1); err != nil {
		t.Fatal(err)
	}
	if held(1) || s.lastIn != nil || s.lastPerm != nil || s.lastPows[0] != nil || s.lastPows[1] != nil {
		t.Fatalf("the reveal left %d keys and %d powers", len(s.lastIn), len(s.lastPows[0]))
	}

	// The chain halts: no reveal for round 2. The next round's
	// announcement leaves the batch, the one after it — the trailing
	// announce of the round that halted — prunes it.
	mix(2, in)
	if _, _, err := h.BeginRound(3); err != nil {
		t.Fatal(err)
	}
	if !held(2) {
		t.Fatal("announcing round 3 pruned round 2's batch")
	}
	if _, _, err := h.BeginRound(4); err != nil {
		t.Fatal(err)
	}
	if held(2) || s.lastIn != nil || s.lastPerm != nil {
		t.Fatal("a batch two rounds behind the newest announcement is still held")
	}
	// The next Mix starts from nothing and holds its own batch.
	mix(4, in)
	if !held(4) {
		t.Fatal("Mix after a prune holds nothing")
	}
}

// BenchmarkBlameReveal times one layer of one blame walk: a position's
// BlameRevealAt for one of its outputs and the two VerifyDleq that
// check it, at a position past the first (bare bases on both sides of
// every proof).
func BenchmarkBlameReveal(b *testing.B) {
	c := testChain(b, 2)
	subs, _ := submitMany(b, c, 8)
	in := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		in[i] = sub.Envelope
	}
	nonce := aead.RoundNonce(1, 0)
	first, err := c.server(0).Mix(1, nonce, in)
	if err != nil || len(first.Failed) != 0 {
		b.Fatalf("first position: %v", err)
	}
	s := c.server(1)
	mr, err := s.Mix(1, nonce, first.Out)
	if err != nil || len(mr.Failed) != 0 {
		b.Fatalf("second position: %v", err)
	}
	k := s.Keys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := i % len(in)
		rev, err := s.BlameRevealAt(1, 0, pos)
		if err != nil {
			b.Fatal(err)
		}
		xout := mr.Out[pos].DHKey
		if err := nizk.VerifyDleq(blameContext(1, s.Chain, s.Index, 0, "blind"), rev.Xin, xout, k.BpkPrev, k.Bpk, rev.BlindProof); err != nil {
			b.Fatal(err)
		}
		if err := nizk.VerifyDleq(blameContext(1, s.Chain, s.Index, 0, "key"), rev.Xin, rev.K, k.BpkPrev, k.Mpk, rev.KeyProof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemix times one hop's Mix of 512 messages with nothing to
// recall (fresh) and as the retry after a Mix of the same batch plus
// two failing ciphertexts (afterBlame; the failing call is outside the
// timer).
func BenchmarkRemix(b *testing.B) {
	const n = 512
	c := testChain(b, 2)
	s := c.server(0)
	nonce := aead.RoundNonce(1, 0)
	subs, _ := submitMany(b, c, n+2)
	dirty := make([]onion.Envelope, len(subs))
	for i, sub := range subs {
		dirty[i] = sub.Envelope
	}
	garble(dirty[n/3].Ct)
	garble(dirty[n].Ct)
	clean := without(dirty, []int{n / 3, n})

	for _, mode := range []string{"fresh", "afterBlame"} {
		b.Run(fmt.Sprintf("%s/n=%d", mode, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if mode == "afterBlame" {
					b.StopTimer()
					if mr, err := s.Mix(1, nonce, dirty); err != nil || len(mr.Failed) != 2 {
						b.Fatalf("failing Mix: %v, %v", err, mr)
					}
					b.StartTimer()
				}
				mr, err := s.Mix(1, nonce, clean)
				if err != nil || len(mr.Out) != n {
					b.Fatalf("Mix: %v", err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "µs/msg")
		})
	}
}
