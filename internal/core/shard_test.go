package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/mix"
)

// twoShardConfig returns a config whose front end is split across two
// in-process gateway shards at the midpoint of the registry space.
func twoShardConfig(t testing.TB, servers, k int) (Config, *Frontend, *Frontend) {
	t.Helper()
	feA, err := NewFrontend(FrontendConfig{Range: ShardRange{Lo: 0, Hi: 32}, MailboxServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	feB, err := NewFrontend(FrontendConfig{Range: ShardRange{Lo: 32, Hi: 64}, MailboxServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		NumServers:          servers,
		ChainLengthOverride: k,
		Seed:                []byte("test-beacon"),
		Shards:              []GatewayShard{feA, feB},
	}, feA, feB
}

// sortedMailbox canonicalises one round's mailbox contents: delivery
// order varies with worker scheduling and shard merge order, the set
// of messages must not.
func sortedMailbox(msgs [][]byte) [][]byte {
	out := make([][]byte, len(msgs))
	copy(out, msgs)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// TestShardedRoundParity runs the same user population through a
// single-shard network (one full-range Frontend) and a two-shard
// network, round for round, and requires byte-identical mailbox
// contents. Mailbox seals are
// deterministic (static conversation keys, round-derived nonces), so
// any divergence means the sharded round protocol dropped, duplicated
// or rerouted traffic relative to the single shard.
func TestShardedRoundParity(t *testing.T) {
	mono, monoFE := testNetwork(t, 6, 3)
	shardedCfg, feA, feB := twoShardConfig(t, 6, 3)
	sharded, err := NewNetwork(shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if mono.NumChains() != sharded.NumChains() {
		t.Fatalf("chain counts differ: %d vs %d", mono.NumChains(), sharded.NumChains())
	}

	// The same user objects are registered with both networks; each
	// network holds its own registry entry (covers, online state), the
	// client-side keys are shared. A user's sharded Frontend is the one
	// whose range owns her mailbox.
	owner := func(u *client.User) *Frontend {
		if feA.Range().Owns(u.Mailbox()) {
			return feA
		}
		return feB
	}
	users := make([]*client.User, 8)
	for i := range users {
		u := monoFE.NewUser()
		users[i] = u
		if err := owner(u).AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	// Three conversing pairs, two idle users.
	for i := 0; i+1 < 6; i += 2 {
		a, b := users[i], users[i+1]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}

	for round := 1; round <= 3; round++ {
		queue := func() {
			for i := 0; i < 6; i++ {
				if err := users[i].QueueMessage([]byte(fmt.Sprintf("round %d from %d", round, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Each network's build drains the outbox, so the same bodies
		// are queued before each run.
		queue()
		repMono := runRound(t, mono)
		queue()
		repSharded := runRound(t, sharded)

		if repMono.Round != repSharded.Round {
			t.Fatalf("round %d: numbers diverged: %d vs %d", round, repMono.Round, repSharded.Round)
		}
		if repMono.Delivered != repSharded.Delivered {
			t.Fatalf("round %d: delivered %d (monolith) vs %d (sharded)", round, repMono.Delivered, repSharded.Delivered)
		}
		if len(repSharded.DeadShards) != 0 {
			t.Fatalf("round %d: healthy shards reported dead: %v", round, repSharded.DeadShards)
		}
		for i, u := range users {
			m := sortedMailbox(monoFE.Fetch(u, repMono.Round))
			s := sortedMailbox(owner(u).Fetch(u, repSharded.Round))
			if len(m) != len(s) {
				t.Fatalf("round %d user %d: %d messages (monolith) vs %d (sharded)", round, i, len(m), len(s))
			}
			for j := range m {
				if !bytes.Equal(m[j], s[j]) {
					t.Fatalf("round %d user %d: mailbox message %d differs", round, i, j)
				}
			}
		}
	}
}

// flakyShard wraps an in-process Frontend with switchable failures at
// the two coordinator→shard protocol crossings, standing in for a
// gateway shard process that died mid-round.
type flakyShard struct {
	*Frontend
	failBegin  bool
	failFinish bool
}

func (s *flakyShard) BeginRound(br *BeginRound) (*ShardBuild, error) {
	if s.failBegin {
		return nil, errors.New("injected: shard down at begin")
	}
	return s.Frontend.BeginRound(br)
}

func (s *flakyShard) FinishRound(fr *FinishRound) (FinishStats, error) {
	if s.failFinish {
		return FinishStats{}, errors.New("injected: shard down at finish")
	}
	return s.Frontend.FinishRound(fr)
}

// TestInjectedSubmissionSurvivesFailedBegin: a round whose every
// gateway shard fails its begin errors, and the submission injected
// before it is still queued: the round run again convicts it.
func TestInjectedSubmissionSurvivesFailedBegin(t *testing.T) {
	cfg, feA, feB := twoShardConfig(t, 6, 3)
	a, b := &flakyShard{Frontend: feA, failBegin: true}, &flakyShard{Frontend: feB, failBegin: true}
	cfg.Shards = []GatewayShard{a, b}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feA.NewUser()
	feB.NewUser()
	const c = 1
	params, err := n.ChainParams(c, n.Round())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, n.Round(), client.LaneCurrent, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.InjectSubmission(c, bad)
	if rep, err := n.RunRound(); err == nil {
		t.Fatalf("round %d ran with every shard down at begin", rep.Round)
	}
	a.failBegin, b.failBegin = false, false
	rep := runRound(t, n)
	if want := fmt.Sprintf("injected:%d", c); !slices.Contains(rep.BlamedUsers, want) {
		t.Fatalf("round %d blamed %v, want %q", rep.Round, rep.BlamedUsers, want)
	}
}

// TestDeadGatewayShardStrandsOnlyItsUsers kills one of two gateway
// shards — first at the round's begin crossing, then at the finish
// crossing — and requires the round to complete for the other shard's
// users while only the dead shard's users miss it.
func TestDeadGatewayShardStrandsOnlyItsUsers(t *testing.T) {
	cfg, feA, feB := twoShardConfig(t, 6, 3)
	flaky := &flakyShard{Frontend: feA}
	cfg.Shards = []GatewayShard{flaky, feB}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One conversing pair per shard, so every round has an expected
	// delivery on each side and no cross-shard dependence.
	newPair := func(fe *Frontend) (*client.User, *client.User) {
		a, b := fe.NewUser(), fe.NewUser()
		if a == nil || b == nil {
			t.Fatal("frontend refused users")
		}
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a1, a2 := newPair(feA)
	b1, b2 := newPair(feB)
	queueAll := func(round int) {
		for _, u := range []*client.User{a1, a2, b1, b2} {
			if err := u.QueueMessage([]byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	receives := func(fe *Frontend, u *client.User, round uint64, body string) bool {
		recv, bad := u.OpenMailbox(round, fe.Fetch(u, round))
		if bad != 0 {
			t.Fatalf("%d undecryptable messages", bad)
		}
		for _, r := range recv {
			if r.FromPartner && string(r.Body) == body {
				return true
			}
		}
		return false
	}

	// Round 1: healthy baseline.
	queueAll(1)
	rep := runRound(t, n)
	if len(rep.DeadShards) != 0 {
		t.Fatalf("healthy round reported dead shards %v", rep.DeadShards)
	}
	if !receives(feA, a2, rep.Round, "r1") || !receives(feB, b2, rep.Round, "r1") {
		t.Fatal("healthy round did not deliver on both shards")
	}

	// Round 2: shard A dead at begin. Its users contribute nothing and
	// receive nothing; shard B's round must complete untouched.
	flaky.failBegin = true
	queueAll(2)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 1 || rep.DeadShards[0] != 0 {
		t.Fatalf("dead shards = %v, want [0]", rep.DeadShards)
	}
	if got := feA.Fetch(a2, rep.Round); len(got) != 0 {
		t.Fatalf("dead shard's user received %d messages", len(got))
	}
	if !receives(feB, b2, rep.Round, "r2") {
		t.Fatal("surviving shard's user missed her message")
	}
	if rep.LostDeliveries != 0 {
		t.Fatalf("no traffic was routed to the dead shard, yet %d deliveries lost", rep.LostDeliveries)
	}

	// Round 3: shard A back. The frontend missed round 2 entirely and
	// must resynchronise from the begin broadcast alone. "r2" sat in
	// the client outbox while the shard was down, so it — not "r3" —
	// is what this round delivers: a begin-dead shard defers its
	// users' traffic, it does not lose it.
	flaky.failBegin = false
	queueAll(3)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 0 {
		t.Fatalf("healed round reported dead shards %v", rep.DeadShards)
	}
	if !receives(feA, a2, rep.Round, "r2") || !receives(feB, b2, rep.Round, "r3") {
		t.Fatal("healed round did not deliver on both shards")
	}

	// Round 4: shard A dies at the finish crossing instead — after its
	// users' traffic ("r3", next in the outbox queue) entered the mix.
	// Their deliveries are lost with the shard (mailbox storage is not
	// replicated) and counted.
	flaky.failFinish = true
	queueAll(4)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 1 || rep.DeadShards[0] != 0 {
		t.Fatalf("dead shards = %v, want [0]", rep.DeadShards)
	}
	if rep.LostDeliveries == 0 {
		t.Fatal("shard died holding undelivered mailbox messages, none counted lost")
	}
	if got := feA.Fetch(a2, rep.Round); len(got) != 0 {
		t.Fatalf("dead shard's user received %d messages", len(got))
	}
	if !receives(feB, b2, rep.Round, "r4") {
		t.Fatal("surviving shard's user missed her message")
	}

	// Round 5: recovery from a missed finish. "r3" went down with the
	// shard's round-4 delivery, so the queue resumes at "r4".
	flaky.failFinish = false
	queueAll(5)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 0 {
		t.Fatalf("healed round reported dead shards %v", rep.DeadShards)
	}
	if !receives(feA, a2, rep.Round, "r4") || !receives(feB, b2, rep.Round, "r5") {
		t.Fatal("healed round did not deliver on both shards")
	}
}
