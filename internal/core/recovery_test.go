package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/store"
)

// Crash-recovery tests: a gateway shard process SIGKILLed at the
// protocol's interesting points — after a submission was acknowledged,
// after a round delivered, after an ack — and restarted over the same
// data directory must come back with exactly the state the durability
// contract promises: acked submissions still feed their round,
// unacked mail is redelivered verbatim (no loss, no duplication),
// acked mail stays gone, and the registry survives. Torn-write replay
// at arbitrary byte offsets is pinned separately in internal/store.

// swapShard is the network's view of a gateway shard whose backing
// process can be killed and restarted: the test replaces the live
// Frontend behind it, exactly as a restarted xrd-server process
// re-serves the same shard range from its recovered data directory.
type swapShard struct {
	mu sync.Mutex
	fe *Frontend
}

func (s *swapShard) cur() *Frontend {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fe
}

func (s *swapShard) swap(fe *Frontend) {
	s.mu.Lock()
	s.fe = fe
	s.mu.Unlock()
}

func (s *swapShard) Range() ShardRange                              { return s.cur().Range() }
func (s *swapShard) BeginRound(br *BeginRound) (*ShardBuild, error) { return s.cur().BeginRound(br) }
func (s *swapShard) FinishRound(fr *FinishRound) (FinishStats, error) {
	return s.cur().FinishRound(fr)
}
func (s *swapShard) AbortRound(round uint64) { s.cur().AbortRound(round) }
func (s *swapShard) Rebalance(epoch uint64, numChains int) error {
	return s.cur().Rebalance(epoch, numChains)
}

// openDurable builds a frontend over the data directory, recovering
// whatever a previous incarnation persisted. SnapshotEvery 2 makes
// the test cross snapshot boundaries, so recovery exercises the
// snapshot+WAL-tail composition, not just raw replay.
func openDurable(t *testing.T, dir string) (*Frontend, *store.Durable) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(FrontendConfig{
		Range:          FullRange(),
		MailboxServers: 2,
		Store:          st,
		Recovered:      rec,
		SnapshotEvery:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fe, st
}

func TestCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	fe, st := openDurable(t, dir)
	shard := &swapShard{fe: fe}
	n, err := NewNetwork(Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("crash-beacon"),
		MailboxServers:      2,
		Shards:              []GatewayShard{shard},
	})
	if err != nil {
		t.Fatal(err)
	}

	// crash SIGKILLs the shard process (close without sync; writes
	// that were acknowledged are on disk, nothing else is promised)
	// and restarts it over the same directory.
	crash := func() {
		t.Helper()
		st.Crash()
		fe2, st2 := openDurable(t, dir)
		shard.swap(fe2)
		fe, st = fe2, st2
	}

	// Two external (transport-layer) users in conversation: externals
	// take the durable intake path, so their traffic is what a crash
	// must not lose.
	alice := client.NewUser(nil, n.Plan())
	bob := client.NewUser(nil, n.Plan())
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	submit := func(u *client.User, body string) *client.RoundOutput {
		t.Helper()
		if body != "" {
			if err := u.QueueMessage([]byte(body)); err != nil {
				t.Fatal(err)
			}
		}
		out, err := u.BuildRound(n.Round(), n)
		if err != nil {
			t.Fatal(err)
		}
		if err := shard.cur().SubmitExternal(string(u.Mailbox()), out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	countBody := func(u *client.User, round uint64, body string) int {
		t.Helper()
		recv, bad := u.OpenMailbox(round, shard.cur().FetchMailbox(round, u.Mailbox()))
		if bad != 0 {
			t.Fatalf("%d undecryptable messages in round %d", bad, round)
		}
		got := 0
		for _, r := range recv {
			if r.FromPartner && string(r.Body) == body {
				got++
			}
		}
		return got
	}

	// Registry state to carry across every crash below.
	for _, mb := range []string{"transport-user-1:0123456789abcdef", "transport-user-2:0123456789abcdef"} {
		if err := shard.cur().Register([]byte(mb)); err != nil {
			t.Fatal(err)
		}
	}

	// Round 1, healthy: delivered mail lands in bob's mailbox.
	submit(alice, "r1")
	submit(bob, "r1")
	rep1 := runRound(t, n)
	if got := countBody(bob, rep1.Round, "r1"); got != 1 {
		t.Fatalf("healthy round delivered %d copies", got)
	}
	preCrash := sortedMailbox(shard.cur().FetchMailbox(rep1.Round, bob.Mailbox()))

	// Crash after a delivered round: unacked mail must be redelivered
	// byte-identical — no loss, no duplication — and the registry must
	// still hold both transport users.
	crash()
	postCrash := sortedMailbox(shard.cur().FetchMailbox(rep1.Round, bob.Mailbox()))
	if len(postCrash) != len(preCrash) {
		t.Fatalf("recovered mailbox holds %d messages, had %d before the crash", len(postCrash), len(preCrash))
	}
	for i := range preCrash {
		if !bytes.Equal(preCrash[i], postCrash[i]) {
			t.Fatalf("recovered mailbox message %d differs from the original", i)
		}
	}
	if got := shard.cur().NumUsers(); got != 2 {
		t.Fatalf("registry recovered %d users, want 2", got)
	}

	// Ack, then crash again: acked mail must stay gone (the ack record
	// replays even though acks are not individually synced — a process
	// kill loses only unwritten state, not unsynced writes).
	if pruned := shard.cur().AckMailbox(rep1.Round, bob.Mailbox()); pruned == 0 {
		t.Fatal("ack pruned nothing")
	}
	crash()
	if left := shard.cur().FetchMailbox(rep1.Round, bob.Mailbox()); len(left) != 0 {
		t.Fatalf("acked mail resurrected by recovery: %d messages", len(left))
	}

	// Round 2: crash between the submission ack and the round — the
	// SubmitExternal durability point. The replayed submissions must
	// feed the round exactly once, and a client retry of the same
	// submission (its at-least-once move after losing the connection)
	// must be refused as the duplicate it is.
	out2 := submit(alice, "r2")
	submit(bob, "r2")
	crash()
	err = shard.cur().SubmitExternal(string(alice.Mailbox()), out2)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("retried submission after crash: err = %v, want duplicate rejection", err)
	}
	rep2 := runRound(t, n)
	if rep2.Delivered == 0 {
		t.Fatal("recovered submissions delivered nothing")
	}
	if got := countBody(bob, rep2.Round, "r2"); got != 1 {
		t.Fatalf("crash before the round: bob got %d copies of the acked submission", got)
	}

	// Round 3: the shard keeps serving rounds after all that — its
	// watermark, plan and snapshot chain are intact.
	submit(alice, "r3")
	submit(bob, "r3")
	rep3 := runRound(t, n)
	if got := countBody(bob, rep3.Round, "r3"); got != 1 {
		t.Fatalf("post-recovery round delivered %d copies", got)
	}
	if err := shard.cur().Close(); err != nil {
		t.Fatal(err)
	}
}
