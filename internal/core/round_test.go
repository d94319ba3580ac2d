package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/mix"
	"repro/internal/onion"
)

// conversationScript sets up nPairs conversing pairs on a Frontend and
// queues every round's bodies up front, one per user per round, so the
// body each round must deliver is known in advance.
func conversationScript(t *testing.T, fe *Frontend, nPairs, rounds int) []*client.User {
	t.Helper()
	users := make([]*client.User, 2*nPairs)
	for i := range users {
		users[i] = fe.NewUser()
	}
	for i := 0; i < len(users); i += 2 {
		a, b := users[i], users[i+1]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= rounds; r++ {
			if err := a.QueueMessage([]byte(fmt.Sprintf("round %d pair %d a->b", r, i/2))); err != nil {
				t.Fatal(err)
			}
			if err := b.QueueMessage([]byte(fmt.Sprintf("round %d pair %d b->a", r, i/2))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return users
}

// conversationBodies fetches and decrypts one user's mailbox for a
// round and returns the conversation bodies received.
func conversationBodies(t *testing.T, fe *Frontend, u *client.User, round uint64) [][]byte {
	t.Helper()
	msgs := fe.Fetch(u, round)
	received, undecryptable := u.OpenMailbox(round, msgs)
	if undecryptable != 0 {
		t.Fatalf("round %d: %d undecryptable messages", round, undecryptable)
	}
	var bodies [][]byte
	for _, r := range received {
		if r.FromPartner && r.Kind == onion.KindConversation && len(r.Body) > 0 {
			bodies = append(bodies, r.Body)
		}
	}
	return bodies
}

// TestHaltReformDeliversOnSchedule corrupts a mix server on a network
// with recovery on. The corrupted chain halts in round 2 and its
// tampering server is blamed; round 3 evicts it, re-forms the chains
// into epoch 1 and rebuilds against them, and the round-3 and round-4
// scripts are delivered on schedule.
func TestHaltReformDeliversOnSchedule(t *testing.T) {
	const rounds = 4
	fe := fullFrontend(t, FrontendConfig{MailboxServers: 2})
	n, err := NewNetwork(Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("test-beacon"),
		Shards:              []GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	users := conversationScript(t, fe, 1, rounds)
	a := users[0]

	// Corrupt a chain away from the pair's meeting chain so the
	// conversation itself is never stranded; pad the population so
	// every chain's batch is large enough to tamper with.
	meeting, err := a.MeetingChain()
	if err != nil {
		t.Fatal(err)
	}
	victim := (meeting + 1) % n.NumChains()
	for i := 0; i < 8; i++ {
		fe.NewUser()
	}

	rep1 := runRound(t, n)
	if rep1.Delivered == 0 || len(rep1.HaltedChains) != 0 {
		t.Fatalf("round 1 not clean: %+v", rep1)
	}
	if err := n.CorruptServer(victim, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}

	rep2 := runRound(t, n)
	if len(rep2.HaltedChains) != 1 || rep2.HaltedChains[0] != victim {
		t.Fatalf("round 2: want chain %d halted, got %v", victim, rep2.HaltedChains)
	}
	if len(rep2.BlamedServers) == 0 {
		t.Fatalf("round 2: tampering server not blamed: %+v", rep2)
	}

	// The pair may have been re-assigned to new chains by the reform,
	// but with a single conversation there is no clash.
	for r := uint64(3); r <= rounds; r++ {
		rep := runRound(t, n)
		if reform := r == 3; rep.Reformed != reform || rep.Epoch != 1 || len(rep.HaltedChains) != 0 {
			t.Fatalf("round %d: want epoch 1, re-formed %v, nothing halted; got %+v", r, reform, rep)
		}
		for i, u := range users {
			bodies := conversationBodies(t, fe, u, rep.Round)
			if want := fmt.Sprintf("round %d pair 0", r); len(bodies) != 1 || !bytes.HasPrefix(bodies[0], []byte(want)) {
				t.Fatalf("round %d user %d: want the round-%d body, got %q", r, i, r, bodies)
			}
		}
	}
}

// TestCommittedRoundReleasesSubmissions checks what a gateway keeps of
// a user's built round once that round has committed: the covers, which
// the next round may need, and not the ℓ submissions, which nothing
// resubmits.
func TestCommittedRoundReleasesSubmissions(t *testing.T) {
	const users = 12
	n, fe := testNetwork(t, 6, 3)
	for i := 0; i < users; i++ {
		fe.NewUser()
	}
	for round := 1; round <= 3; round++ {
		rep := runRound(t, n)
		held, listed := 0, 0
		for i := range fe.reg.shards {
			sh := &fe.reg.shards[i]
			listed += len(sh.built)
			for _, ru := range sh.users {
				if ru.built == nil || len(ru.built.Cover) == 0 || &ru.built.Cover[0] != &ru.cover[0] {
					t.Fatalf("round %d: a user's built round lost its covers", round)
				}
				if committed := ru.builtRound <= rep.Round; committed != (ru.built.Current == nil) {
					t.Fatalf("after round %d, submissions for round %d held: %v", rep.Round, ru.builtRound, !committed)
				}
				if ru.built.Current != nil {
					held++
				}
			}
		}
		if held != 0 || listed != 0 {
			t.Fatalf("round %d: %d users hold submissions, %d listed, want 0", round, held, listed)
		}
	}
}

// lateSubmitShard lands a remote user's submission on its Frontend
// right after the coordinator's re-formation broadcast, before the
// round that broadcast precedes begins.
type lateSubmitShard struct {
	*Frontend
	afterRebalance func()
}

func (s *lateSubmitShard) Rebalance(epoch uint64, numChains int) error {
	err := s.Frontend.Rebalance(epoch, numChains)
	if f := s.afterRebalance; f != nil {
		s.afterRebalance = nil
		f()
	}
	return err
}

// TestStaleEpochSubmissionRefused: a registered remote user builds the
// upcoming round from her gateway's parameters, and the round then
// re-forms the chains. Her submission arrives after the shard adopted
// the new epoch. It was built on the old chains' keys, so mixing it
// would fail its inner decryption and blame would convict her: the
// shard refuses it, stops serving the old epoch's parameters, and she
// is neither blamed nor banned.
func TestStaleEpochSubmissionRefused(t *testing.T) {
	fe := fullFrontend(t, FrontendConfig{})
	shard := &lateSubmitShard{Frontend: fe}
	n, err := NewNetwork(Config{
		NumServers:          8,
		NumChains:           3,
		ChainLengthOverride: 3,
		Seed:                []byte("stale-epoch"),
		Shards:              []GatewayShard{shard},
	})
	if err != nil {
		t.Fatal(err)
	}
	// An online in-process user rides the accused chain, so the
	// accusation has a message to name.
	victim := fe.NewUser().Chains()[0]
	u := client.NewUser(nil, n.Plan())
	if err := fe.Register(u.Mailbox()); err != nil {
		t.Fatal(err)
	}
	runRound(t, n)
	if err := n.CorruptServer(victim, 1, &mix.Corruption{FalselyAccuse: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if rep := runRound(t, n); len(rep.HaltedChains) != 1 || len(rep.BlamedServers) == 0 {
		t.Fatalf("the false accusation did not halt chain %d: %+v", victim, rep)
	}

	rho := n.Round()
	out, err := u.BuildRound(rho, fe)
	if err != nil {
		t.Fatal(err)
	}
	var submitErr error
	var staleParams error
	shard.afterRebalance = func() {
		submitErr = fe.SubmitExternal(string(u.Mailbox()), out)
		_, staleParams = fe.ChainParams(0, rho)
	}
	rep := runRound(t, n)
	if !rep.Reformed {
		t.Fatalf("round %d did not re-form: %+v", rho, rep)
	}
	if submitErr == nil {
		t.Error("a submission built on the old epoch's keys was accepted after the re-formation")
	}
	if staleParams == nil {
		t.Error("the shard served the old epoch's parameters after adopting the new epoch")
	}
	for _, who := range rep.BlamedUsers {
		if who == string(u.Mailbox()) {
			t.Fatalf("round %d convicted the honest user (%d convictions)", rho, len(rep.BlamedUsers))
		}
	}
	if err := fe.Register(u.Mailbox()); err != nil {
		t.Fatalf("the honest user was banned: %v", err)
	}
}
