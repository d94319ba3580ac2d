package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/group"
	"repro/internal/mix"
)

// providerLog records hop-provider calls for TestHopProvidersCalledOneAtATime:
// whether two were ever in flight at once, and per (epoch, chain) the
// positions called in order with the base each was handed.
type providerLog struct {
	inFlight   atomic.Int32
	overlapped atomic.Bool

	mu    sync.Mutex
	calls map[[2]int][]providerCall
}

type providerCall struct {
	pos       int
	base, bpk group.Point
}

// call is one provider call: 1 ms of simulated setup with the in-flight
// count raised, then an in-process server keyed off base.
func (l *providerLog) call(epoch uint64, chain, pos int, base group.Point) mix.Hop {
	if l.inFlight.Add(1) > 1 {
		l.overlapped.Store(true)
	}
	time.Sleep(time.Millisecond)
	h := mix.LocalHop(mix.NewChainServer(chain, pos, base, nil))
	l.inFlight.Add(-1)
	l.mu.Lock()
	key := [2]int{int(epoch), chain}
	l.calls[key] = append(l.calls[key], providerCall{pos: pos, base: base, bpk: h.Keys().Bpk})
	l.mu.Unlock()
	return h
}

// check asserts the provider contract over every recorded epoch: one
// call in flight at a time, and each chain's positions called once
// each, in order 0…k−1, position 0 on g and every other on its
// predecessor's blinding key.
func (l *providerLog) check(t *testing.T, epochs map[uint64]int, k int) {
	t.Helper()
	if l.overlapped.Load() {
		t.Fatal("two provider calls were in flight at once")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	want := 0
	for epoch, chains := range epochs {
		want += chains
		for c := 0; c < chains; c++ {
			calls := l.calls[[2]int{int(epoch), c}]
			if len(calls) != k {
				t.Fatalf("epoch %d chain %d: %d provider calls, want %d", epoch, c, len(calls), k)
			}
			base := group.Generator()
			for i, call := range calls {
				if call.pos != i {
					t.Fatalf("epoch %d chain %d: call %d was for position %d", epoch, c, i, call.pos)
				}
				if !call.base.Equal(base) {
					t.Fatalf("epoch %d chain %d position %d: base is not the previous hop's Bpk", epoch, c, i)
				}
				base = call.bpk
			}
		}
	}
	if len(l.calls) != want {
		t.Fatalf("providers were called for %d (epoch, chain) pairs, want %d", len(l.calls), want)
	}
}

// TestHopProvidersCalledOneAtATime pins Config.RemoteHops's and
// Config.HopForServer's contract now that chains key concurrently: a
// provider is never called concurrently with itself, and each chain
// still calls it for positions 0…k−1 in order, once each — at founding
// and, for HopForServer, again across a re-formation.
func TestHopProvidersCalledOneAtATime(t *testing.T) {
	const servers, k = 8, 3
	t.Run("RemoteHops", func(t *testing.T) {
		l := &providerLog{calls: make(map[[2]int][]providerCall)}
		n, err := NewNetwork(Config{
			NumServers:          servers,
			ChainLengthOverride: k,
			Seed:                []byte("provider-contract"),
			RemoteHops: func(chain, pos int, base group.Point) (mix.Hop, error) {
				return l.call(0, chain, pos, base), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		l.check(t, map[uint64]int{0: n.NumChains()}, k)
	})
	t.Run("HopForServer", func(t *testing.T) {
		l := &providerLog{calls: make(map[[2]int][]providerCall)}
		n, err := NewNetwork(Config{
			NumServers:          servers,
			ChainLengthOverride: k,
			Seed:                []byte("provider-contract"),
			Recover:             true,
			HopForServer: func(epoch uint64, server, chain, pos int, base group.Point) (mix.Hop, error) {
				return l.call(epoch, chain, pos, base), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		founding := n.NumChains()
		alice, bob := n.NewUser(), n.NewUser()
		if err := alice.StartConversation(bob.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := bob.StartConversation(alice.PublicKey()); err != nil {
			t.Fatal(err)
		}
		// A chain some user rides, so its batch has a message to accuse.
		victim := n.Plan().ChainsForUser(alice.Mailbox())[0]
		if err := n.CorruptServer(victim, 1, &mix.Corruption{FalselyAccuse: []int{0}}); err != nil {
			t.Fatal(err)
		}
		if rep := runRound(t, n); len(rep.HaltedChains) == 0 {
			t.Fatalf("the false accusation halted no chain: %+v", rep)
		}
		if rep := runRound(t, n); len(rep.Evicted) == 0 || n.Epoch() == 0 {
			t.Fatalf("no re-formation after the halt: %+v", rep)
		}
		l.check(t, map[uint64]int{0: founding, n.Epoch(): n.NumChains()}, k)
	})
}

// BenchmarkNewNetwork stands up mix-k6's shape — 8 chains of 6
// in-process positions, the default Frontend — from topology to the
// announced founding rounds: what an epoch's formation costs.
func BenchmarkNewNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewNetwork(Config{
			NumServers:          8,
			ChainLengthOverride: 6,
			Seed:                []byte("bench-new-network"),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
