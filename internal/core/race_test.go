package core

import (
	"sync"
	"testing"

	"repro/internal/client"
)

// TestConcurrentRegistryDuringRounds exercises the round pipeline's
// concurrency contract: registry operations (NewUser, SetOnline,
// IsRemoved, NumUsers) and mailbox fetches race freely against
// RunRound, and the rounds stay honest. Run with -race; it is the
// regression test for the sharded-registry locking rules.
func TestConcurrentRegistryDuringRounds(t *testing.T) {
	n, fe := testNetwork(t, 6, 2)
	users := make([]*client.User, 12)
	for i := range users {
		users[i] = fe.NewUser()
	}
	if err := users[0].StartConversation(users[1].PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := users[1].StartConversation(users[0].PublicKey()); err != nil {
		t.Fatal(err)
	}

	const rounds = 3
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Presence churn: toggle a disjoint set of users on and off while
	// rounds run. Toggled users are not the conversing pair, so the
	// conversation assertions below stay deterministic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		online := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, u := range users[2:6] {
				fe.SetOnline(u, online)
			}
			online = !online
		}
	}()

	// Registrations: grow the population mid-round. Late users join
	// the running round or the next one depending on whether their
	// shard was already built — both are valid.
	var lateMu sync.Mutex
	var late []*client.User
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			u := fe.NewUser()
			lateMu.Lock()
			late = append(late, u)
			lateMu.Unlock()
			if len(late) >= 16 {
				return
			}
		}
	}()

	// Readers: fetches, removal checks and population counts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, u := range users {
				fe.Fetch(u, n.Round())
				fe.IsRemoved(u)
			}
			fe.NumUsers()
		}
	}()

	for r := 0; r < rounds; r++ {
		rep, err := n.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(rep.HaltedChains) != 0 || len(rep.BlamedUsers) != 0 {
			t.Fatalf("honest round misbehaved: %+v", rep)
		}
	}
	close(stop)
	wg.Wait()

	// With churn quiesced, a final round must deliver ℓ messages to
	// every stably-online user, including every late joiner.
	for _, u := range users[2:6] {
		fe.SetOnline(u, true)
	}
	rep, err := n.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	l := n.Plan().L
	check := append([]*client.User{}, users...)
	lateMu.Lock()
	check = append(check, late...)
	lateMu.Unlock()
	for i, u := range check {
		msgs := fe.Fetch(u, rep.Round)
		if len(msgs) != l {
			t.Fatalf("user %d got %d messages in quiesced round, want ℓ=%d", i, len(msgs), l)
		}
		if _, bad := u.OpenMailbox(rep.Round, msgs); bad != 0 {
			t.Fatalf("user %d: %d undecryptable messages", i, bad)
		}
	}
}
