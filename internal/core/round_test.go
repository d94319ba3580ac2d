package core

import (
	"bytes"
	"fmt"
	"slices"
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

// haltedMeetingChain is the scenario of a halt on a conversation's
// own chain: 8 servers in chains of 3, nPairs conversing pairs with
// rounds bodies each queued up front (conversationScript), and the
// first pair's meeting chain set to halt in the next round by a
// tampering second position. Mailboxes are random, so the scenario is
// drawn again until some pair meets on another chain. Padding users
// make every chain's batch large enough to tamper with.
func haltedMeetingChain(t *testing.T, nPairs, rounds int) (*Network, *Frontend, []*client.User, int) {
	t.Helper()
	for range 20 {
		n, fe := testNetwork(t, 8, 3)
		users := conversationScript(t, fe, nPairs, rounds)
		meeting := make([]int, len(users))
		for i, u := range users {
			var err error
			if meeting[i], err = u.MeetingChain(); err != nil {
				t.Fatal(err)
			}
		}
		victim := meeting[0]
		if !slices.ContainsFunc(meeting, func(c int) bool { return c != victim }) {
			continue
		}
		for range 8 {
			fe.NewUser()
		}
		if err := n.CorruptServer(victim, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
			t.Fatal(err)
		}
		return n, fe, users, victim
	}
	t.Fatal("20 draws put every pair on one meeting chain")
	return nil, nil, nil, 0
}

// TestHaltedChainDeliversNothing pins the premise the restore rule
// rests on. In the round a chain halts, every user receives ℓ messages
// minus her slots on that chain, and no body batched on it reaches any
// mailbox.
func TestHaltedChainDeliversNothing(t *testing.T) {
	n, fe, users, victim := haltedMeetingChain(t, 4, 1)
	l := n.Plan().L
	rep := runRound(t, n)
	if !slices.Equal(rep.HaltedChains, []int{victim}) {
		t.Fatalf("want chain %d halted, got %v", victim, rep.HaltedChains)
	}
	onVictim := 0
	for i, u := range users {
		slots := 0
		for _, c := range u.Chains() {
			if c == victim {
				slots++
			}
		}
		onVictim += slots
		if got := len(fe.Fetch(u, rep.Round)); got != l-slots {
			t.Fatalf("user %d holds %d slots on the halted chain and received %d messages, want %d", i, slots, got, l-slots)
		}
		meeting, err := u.MeetingChain()
		if err != nil {
			t.Fatal(err)
		}
		if bodies := conversationBodies(t, fe, u, rep.Round); (meeting == victim) != (len(bodies) == 0) {
			t.Fatalf("user %d meets on chain %d and received %q with chain %d halted", i, meeting, bodies, victim)
		}
	}
	if onVictim == 0 {
		t.Fatal("no conversing user rode the halted chain")
	}
}

// TestHaltedBodyDeliveredOnce: a pair's meeting chain halts in round
// 1, and round 2 evicts the tampering server and re-forms the chains.
// The round's outcome tells each client of a pair meeting there that
// her round-1 body rode a chain that failed, so she sends it again:
// such a pair receives every scripted body exactly once, in send
// order, each a round late from round 2 on. Every other pair, whose
// bodies all delivered, receives each body exactly once in its own
// round.
func TestHaltedBodyDeliveredOnce(t *testing.T) {
	const pairs, rounds = 4, 6
	n, fe, users, victim := haltedMeetingChain(t, pairs, rounds)
	late := make([]bool, len(users))
	for i, u := range users {
		meeting, err := u.MeetingChain()
		if err != nil {
			t.Fatal(err)
		}
		late[i] = meeting == victim
	}
	for r := 1; r <= rounds+2; r++ {
		rep := runRound(t, n)
		var halted []int
		if r == 1 {
			halted = []int{victim}
		}
		if !slices.Equal(rep.HaltedChains, halted) || rep.Reformed != (r == 2) {
			t.Fatalf("round %d: halted %v, re-formed %v", r, rep.HaltedChains, rep.Reformed)
		}
		for i, u := range users {
			// The scripted round whose body this round delivers, or 0.
			want := r
			if late[i] {
				want = r - 1
			}
			if want > rounds {
				want = 0
			}
			bodies := conversationBodies(t, fe, u, rep.Round)
			if prefix := fmt.Sprintf("round %d pair %d", want, i/2); want == 0 && len(bodies) != 0 ||
				want > 0 && (len(bodies) != 1 || !bytes.HasPrefix(bodies[0], []byte(prefix))) {
				t.Fatalf("round %d: user %d (late %v) received %q, want the round-%d body", r, i, late[i], bodies, want)
			}
		}
	}
}

// TestCommittedRoundReleasesSubmissions checks what a gateway's bank
// keeps of a user's round once that round has committed: the covers,
// which the next round may need, and not the ℓ submissions, which
// nothing resubmits. In-process users and a remote user alike.
func TestCommittedRoundReleasesSubmissions(t *testing.T) {
	const users = 12
	n, fe := testNetwork(t, 6, 3)
	for i := 0; i < users; i++ {
		fe.NewUser()
	}
	remote := client.NewUser(nil, n.Plan())
	for round := 1; round <= 3; round++ {
		out, err := remote.BuildRound(n.Round(), n)
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.SubmitExternal(string(remote.Mailbox()), out); err != nil {
			t.Fatal(err)
		}
		rep := runRound(t, n)
		if len(fe.bank) != users+1 {
			t.Fatalf("round %d: %d users banked, want %d", round, len(fe.bank), users+1)
		}
		for who, eu := range fe.bank {
			if len(eu.subs) != 1 || eu.subs[0].round != rep.Round || eu.subs[0].current != nil || len(eu.cover(rep.Round+1)) == 0 {
				t.Fatalf("after round %d, %x banks %+v, want only the covers for round %d", rep.Round, who[:4], eu.subs, rep.Round+1)
			}
		}
	}
}

// twiceBegun begins every round twice on its Frontend, as a shard does
// whose first begin reply was lost and re-asked: the build the
// coordinator mixes is the second one.
type twiceBegun struct{ *Frontend }

func (s twiceBegun) BeginRound(br *BeginRound) (*ShardBuild, error) {
	if _, err := s.Frontend.BeginRound(br); err != nil {
		return nil, err
	}
	return s.Frontend.BeginRound(br)
}

// TestReBeginKeepsBankedTraffic: a round begun twice collects the same
// traffic both times. An in-process user is not rebuilt (her outbox
// drained at the first build), a remote user's accepted submission
// is not dropped at the first collection, and both deliver their body
// exactly once, with nobody stranded.
func TestReBeginKeepsBankedTraffic(t *testing.T) {
	fe := fullFrontend(t, FrontendConfig{MailboxServers: 2})
	n, err := NewNetwork(Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("test-beacon"),
		Shards:              []GatewayShard{twiceBegun{fe}},
	})
	if err != nil {
		t.Fatal(err)
	}
	local := conversationScript(t, fe, 1, 2)
	carol, erin := client.NewUser(nil, n.Plan()), client.NewUser(nil, n.Plan())
	if err := carol.StartConversation(erin.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := erin.StartConversation(carol.PublicKey()); err != nil {
		t.Fatal(err)
	}
	for round := uint64(1); round <= 2; round++ {
		if err := carol.QueueMessage([]byte(fmt.Sprintf("round %d carol", round))); err != nil {
			t.Fatal(err)
		}
		for _, u := range []*client.User{carol, erin} {
			out, err := u.BuildRound(round, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := fe.SubmitExternal(string(u.Mailbox()), out); err != nil {
				t.Fatal(err)
			}
		}
		rep := runRound(t, n)
		if len(rep.Stranded) != 0 || len(rep.HaltedChains) != 0 {
			t.Fatalf("round %d: stranded %d, halted %v", round, len(rep.Stranded), rep.HaltedChains)
		}
		bodies := conversationBodies(t, fe, local[1], round)
		if want := fmt.Sprintf("round %d pair 0 a->b", round); len(bodies) != 1 || string(bodies[0]) != want {
			t.Fatalf("round %d: the in-process user received %q, want %q once", round, bodies, want)
		}
		recv, bad := erin.OpenMailbox(round, fe.FetchMailbox(round, erin.Mailbox()))
		var remote []string
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation {
				remote = append(remote, string(r.Body))
			}
		}
		if want := fmt.Sprintf("round %d carol", round); bad != 0 || len(remote) != 1 || remote[0] != want {
			t.Fatalf("round %d: the remote user received %q (%d undecryptable), want %q once", round, remote, bad, want)
		}
	}
}

// TestDeadChainHoldsInProcessUsers: an in-process user one of whose
// chains is dead cannot build the round and spends no banked cover. An
// online one is skipped, to be stranded; an offline one's covers do
// not run; neither has traffic in the round's batches.
func TestDeadChainHoldsInProcessUsers(t *testing.T) {
	n, fe := testNetwork(t, 6, 2)
	on, off := fe.NewUser(), fe.NewUser()
	runRound(t, n) // both bank covers for round 2
	fe.SetOnline(off, false)
	p := n.Params()
	for c := range p.NumChains() {
		p.Dead = append(p.Dead, c)
	}
	build, err := fe.BeginRound(&BeginRound{Round: p.Round, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(build.Skipped) != 1 || build.Skipped[0] != string(on.Mailbox()) || build.Covered != 0 {
		t.Fatalf("skipped %d users, covered %d; want the online one skipped and no cover spent", len(build.Skipped), build.Covered)
	}
	for c, b := range build.Batches {
		if len(b.Subs) != 0 {
			t.Fatalf("chain %d carries %d submissions", c, len(b.Subs))
		}
	}
}

// TestDeadChainHoldsRemoteUsers: the dead-chain rule holds for remote
// users as it does for in-process ones. A remote user who went silent
// after round 1 spends no banked cover when every chain is dead in
// round 2; one with messages for the round and a dead chain among her ℓ
// is skipped, to be stranded, and none of her messages is batched.
func TestDeadChainHoldsRemoteUsers(t *testing.T) {
	// begin registers a remote user, banks her round-1 submission, runs
	// the rounds before the one to test and begins that one with the
	// chains dead picks from her row.
	begin := func(t *testing.T, rounds int, dead func(u *client.User, numChains int) []int) (*client.User, *ShardBuild) {
		t.Helper()
		n, fe := testNetwork(t, 6, 2)
		u := client.NewUser(nil, n.Plan())
		if err := fe.Register(u.Mailbox()); err != nil {
			t.Fatal(err)
		}
		out, err := u.BuildRound(n.Round(), n)
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.SubmitExternal(string(u.Mailbox()), out); err != nil {
			t.Fatal(err)
		}
		for range rounds {
			runRound(t, n)
		}
		p := n.Params()
		p.Dead = dead(u, p.NumChains())
		build, err := fe.BeginRound(&BeginRound{Round: p.Round, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		for c, b := range build.Batches {
			if slices.Contains(b.Submitters, string(u.Mailbox())) {
				t.Fatalf("chains %v dead: chain %d carries the held user", p.Dead, c)
			}
		}
		return u, build
	}
	t.Run("silent", func(t *testing.T) {
		_, build := begin(t, 1, func(_ *client.User, numChains int) []int {
			var all []int
			for c := range numChains {
				all = append(all, c)
			}
			return all
		})
		if build.Covered != 0 {
			t.Fatalf("every chain dead: covered %d, want no cover spent", build.Covered)
		}
	})
	t.Run("current", func(t *testing.T) {
		u, build := begin(t, 0, func(u *client.User, _ int) []int { return []int{u.Chains()[0]} })
		if len(build.Skipped) != 1 || build.Skipped[0] != string(u.Mailbox()) {
			t.Fatalf("skipped %d users, want the user with a dead chain", len(build.Skipped))
		}
	})
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
