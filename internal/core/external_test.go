package core

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/mix"
	"repro/internal/store"
)

// TestSubmitExternalRejectsCollectedRound pins the submission-window
// contract: once a round's external traffic has been folded into
// batches (the mix/deliver phase of RunRound), a submission for that
// still-open round must be rejected loudly, not accepted and then
// silently never mixed.
func TestSubmitExternalRejectsCollectedRound(t *testing.T) {
	n := testNetwork(t, 6, 2)
	u := client.NewUser(nil, n.Plan())
	out, err := u.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}

	// Before collection the submission is accepted.
	if err := n.SubmitExternal(string(u.Mailbox()), out); err != nil {
		t.Fatalf("pre-collection submission rejected: %v", err)
	}

	// Simulate the mid-round window: the round is still open (the
	// counter advances only after mixing and delivery) but external
	// traffic has been collected.
	fe := n.Shards()[0].(*Frontend)
	fe.mu.Lock()
	fe.collected = fe.round
	fe.mu.Unlock()

	u2 := client.NewUser(nil, n.Plan())
	out2, err := u2.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	err = n.SubmitExternal(string(u2.Mailbox()), out2)
	if err == nil {
		t.Fatal("submission accepted after its round's traffic was collected")
	}
	if !strings.Contains(err.Error(), "closed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestConvictedExternalUserIsBanned is the regression test for the
// external-user removal hole: markRemoved is a no-op for
// transport-layer users, so without the transport ban a convicted
// remote user could resubmit every round in violation of §6.4.
func TestConvictedExternalUserIsBanned(t *testing.T) {
	n := testNetwork(t, 6, 2)
	u := client.NewUser(nil, n.Plan())
	mailbox := string(u.Mailbox())

	// A submission whose knowledge proof is broken: the chain convicts
	// the sender at proof-check time.
	params, err := n.ChainParams(0, n.Round())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mix.InvalidProofSubmission(aead.ChaCha20Poly1305(), params, n.Round(), client.LaneCurrent)
	if err != nil {
		t.Fatal(err)
	}
	out := &client.RoundOutput{
		Round:   n.Round(),
		Current: []client.ChainMessage{{Chain: 0, Sub: bad}},
	}
	if err := n.SubmitExternal(mailbox, out); err != nil {
		t.Fatalf("initial submission rejected: %v", err)
	}

	rep := runRound(t, n)
	convicted := false
	for _, who := range rep.BlamedUsers {
		if who == mailbox {
			convicted = true
		}
	}
	if !convicted {
		t.Fatalf("external user not convicted; blamed = %v", rep.BlamedUsers)
	}

	// Her next submission — perfectly well-formed this time — must be
	// refused.
	out2, err := u.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	err = n.SubmitExternal(mailbox, out2)
	if err == nil {
		t.Fatal("convicted external user's submission accepted")
	}
	if !strings.Contains(err.Error(), "removed") {
		t.Fatalf("unexpected error: %v", err)
	}

	// The ban holds on later rounds too, and her banked covers must
	// not run in her place.
	rep2 := runRound(t, n)
	if rep2.OfflineCovered != 0 {
		t.Fatalf("a banned user's covers ran: %+v", rep2)
	}
	if err := n.SubmitExternal(mailbox, out2); err == nil {
		t.Fatal("ban lapsed after a round")
	}
}

// TestExternalSubmitWhilePipelined pins what a depth-2 coordinator does
// to an external user today: round 1's window is open before the first
// RunRound, and from then on every round is collected the moment it is
// begun — while its predecessor mixes — so she is refused whether she
// builds for the round the gateway announces or tries to get ahead of
// it, and the refusal names the pipeline, not a round that "is open".
// Depth > 1 is for gateway-hosted users; the PR that moves the window
// rule into a pipeline type (ROADMAP item 8) flips the second half of
// this test.
func TestExternalSubmitWhilePipelined(t *testing.T) {
	n := depthNetwork(t, 6, 2, 2, false)
	u := client.NewUser(nil, n.Plan())
	mailbox := string(u.Mailbox())
	out, err := u.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitExternal(mailbox, out); err != nil {
		t.Fatalf("round 1 has a window at any depth: %v", err)
	}
	if rep := runRound(t, n); rep.Round != 1 || rep.Delivered == 0 {
		t.Fatalf("round 1 did not carry her messages: %+v", rep)
	}

	// The round the gateway announces, and — what she cannot even build,
	// its cover keys being unannounced, but could try — the one after.
	out, err = u.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	ahead := *out
	ahead.Round++
	for _, out := range []*client.RoundOutput{out, &ahead} {
		err := n.SubmitExternal(mailbox, out)
		if err == nil {
			t.Fatalf("round %d accepted an external submission under -pipeline 2: the window rule has changed, update this test and the -pipeline help", out.Round)
		}
		if msg := err.Error(); !strings.Contains(msg, "-pipeline 2") || !strings.Contains(msg, "gateway-hosted") || strings.Contains(msg, "is open") {
			t.Fatalf("round %d refused without naming the pipeline: %v", out.Round, err)
		}
	}

	// A serial coordinator's refusals are unchanged.
	serial := depthNetwork(t, 6, 2, 1, false)
	if err := serial.SubmitExternal(mailbox, &ahead); err == nil || !strings.Contains(err.Error(), "round 1 is open") {
		t.Fatalf("serial early submission: %v", err)
	}
}

// syncFails is a store whose Sync fails while fail is set.
type syncFails struct {
	store.Mem
	fail bool
}

func (s *syncFails) Sync() error {
	if s.fail {
		return errors.New("sync: device gone")
	}
	return nil
}

// TestSubmitRefusedAtPersistLeavesNoTrace: a submission the shard
// cannot log is refused, and a refused first submission leaves no
// record behind (one used to stay, empty, until the next collection).
// A refused submission from a user with banked covers keeps them.
func TestSubmitRefusedAtPersistLeavesNoTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := &syncFails{fail: true}
	fe, err := NewFrontend(FrontendConfig{NumChains: 3, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	stranger, banked := string(testMailbox(0)), string(testMailbox(1))
	if err := fe.SubmitExternal(stranger, testOutput(rng, 1, 3)); err == nil || !strings.Contains(err.Error(), "persisting") {
		t.Fatalf("submission with a failing sync: err = %v", err)
	}
	if len(fe.externals) != 0 {
		t.Fatalf("a refused first submission left %d records", len(fe.externals))
	}
	st.fail = false
	if err := fe.SubmitExternal(banked, testOutput(rng, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.BeginRound(&BeginRound{Round: 1, NumChains: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.FinishRound(&FinishRound{Round: 1}); err != nil {
		t.Fatal(err)
	}
	st.fail = true
	if err := fe.SubmitExternal(banked, testOutput(rng, 2, 3)); err == nil {
		t.Fatal("round 2's submission was accepted with a failing sync")
	}
	if len(fe.externals) != 1 {
		t.Fatalf("%d records after the refusal, want the banked user's", len(fe.externals))
	}
	build, err := fe.BeginRound(&BeginRound{Round: 2, NumChains: 3})
	if err != nil || build.Covered != 1 {
		t.Fatalf("round 2 covered %d users (err %v), want the banked one", build.Covered, err)
	}
}

// TestExternalUserBytes pins what the gateway adds to hold a remote
// user's banked submission, apart from the submission itself (every
// user here submits one shared output, built before the measurement)
// and the caller's key: the map slot, the record and its one entry.
// While a record was a map per lane it cost ≈ 725 B.
func TestExternalUserBytes(t *testing.T) {
	const n = 10_000
	rng := rand.New(rand.NewSource(4))
	out := testOutput(rng, 1, 3)
	who := make([]string, n)
	for i, id := range randomMailboxes(4, n) {
		who[i] = string(id)
	}
	fe, err := NewFrontend(FrontendConfig{NumChains: 3})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, mb := range who {
		if err := fe.SubmitExternal(mb, out); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(who)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B per banked external user", per)
	if len(fe.externals) != n || per > 256 {
		t.Fatalf("%d banked users cost %.1f B each, want ≤ 256", len(fe.externals), per)
	}
}
