package core

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
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
			Shards:              []GatewayShard{fullFrontend(t, FrontendConfig{})},
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
		fe := fullFrontend(t, FrontendConfig{})
		n, err := NewNetwork(Config{
			NumServers:          servers,
			ChainLengthOverride: k,
			Seed:                []byte("provider-contract"),
			Shards:              []GatewayShard{fe},
			HopForServer: func(epoch uint64, server, chain, pos int, base group.Point) (mix.Hop, error) {
				return l.call(epoch, chain, pos, base), nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		founding := n.NumChains()
		alice, bob := fe.NewUser(), fe.NewUser()
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

// placingHop is a position the hop provider placed "remote": an
// in-process server whose Mix calls are counted.
type placingHop struct {
	mix.Hop
	mixes *atomic.Int64
}

func (h placingHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*mix.MixResult, error) {
	h.mixes.Add(1)
	return h.Hop.Mix(round, nonce, in)
}

// TestRemoteHopsAdapter pins Config.RemoteHops, the benchmark's
// coordinate-keyed provider, as an adapter onto HopForServer: in the
// founding epoch it places the same positions remote as an equivalent
// HopForServer and delivers the same mail through them; after a
// re-formation it is not consulted, and every re-formed position is
// in-process.
func TestRemoteHopsAdapter(t *testing.T) {
	const servers, k = 8, 3
	type slot struct {
		epoch      uint64
		chain, pos int
	}
	deploy := func(t *testing.T, adapter bool) {
		// Both providers run under hopMu, so neither needs a lock.
		var placed []slot
		var consulted int
		var mixes atomic.Int64
		place := func(epoch uint64, chain, pos int, base group.Point) mix.Hop {
			consulted++
			if epoch > 0 || (chain+pos)%2 == 1 {
				return nil
			}
			placed = append(placed, slot{epoch, chain, pos})
			return placingHop{Hop: mix.LocalHop(mix.NewChainServer(chain, pos, base, nil)), mixes: &mixes}
		}
		fe := fullFrontend(t, FrontendConfig{})
		cfg := Config{NumServers: servers, ChainLengthOverride: k, Seed: []byte("adapter"), Shards: []GatewayShard{fe}}
		if adapter {
			cfg.RemoteHops = func(chain, pos int, base group.Point) (mix.Hop, error) {
				return place(0, chain, pos, base), nil
			}
		} else {
			cfg.HopForServer = func(epoch uint64, _, chain, pos int, base group.Point) (mix.Hop, error) {
				return place(epoch, chain, pos, base), nil
			}
		}
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if consulted != n.NumChains()*k {
			t.Fatalf("provider consulted %d times at founding, want %d", consulted, n.NumChains()*k)
		}
		sort.Slice(placed, func(i, j int) bool {
			return placed[i].chain < placed[j].chain || placed[i].chain == placed[j].chain && placed[i].pos < placed[j].pos
		})
		var want []slot
		for c := 0; c < n.NumChains(); c++ {
			for p := c % 2; p < k; p += 2 {
				want = append(want, slot{0, c, p})
			}
		}
		if !reflect.DeepEqual(placed, want) {
			t.Fatalf("remote positions %v, want %v", placed, want)
		}

		alice, bob := fe.NewUser(), fe.NewUser()
		if err := alice.StartConversation(bob.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := bob.StartConversation(alice.PublicKey()); err != nil {
			t.Fatal(err)
		}
		delivers := func(body string) {
			t.Helper()
			if err := alice.QueueMessage([]byte(body)); err != nil {
				t.Fatal(err)
			}
			rep := runRound(t, n)
			recv, bad := bob.OpenMailbox(rep.Round, fe.Fetch(bob, rep.Round))
			if bad != 0 {
				t.Fatalf("round %d: %d undecryptable messages", rep.Round, bad)
			}
			for _, r := range recv {
				if r.FromPartner && r.Kind == onion.KindConversation && string(r.Body) == body {
					return
				}
			}
			t.Fatalf("round %d: bob did not read %q", rep.Round, body)
		}
		delivers("founding epoch")
		if mixes.Load() == 0 {
			t.Fatal("no batch crossed a remote position")
		}

		// Halt a chain alice rides, so the next round evicts and
		// re-forms.
		victim := n.Plan().ChainsForUser(alice.Mailbox())[0]
		if err := n.CorruptServer(victim, 1, &mix.Corruption{FalselyAccuse: []int{0}}); err != nil {
			t.Fatal(err)
		}
		if rep := runRound(t, n); len(rep.HaltedChains) == 0 {
			t.Fatalf("the false accusation halted no chain: %+v", rep)
		}
		founding := consulted
		mixed := mixes.Load()
		if rep := runRound(t, n); len(rep.Evicted) == 0 || n.Epoch() == 0 {
			t.Fatalf("no re-formation after the halt: %+v", rep)
		}
		delivers("re-formed epoch")
		if adapter && consulted != founding {
			t.Fatalf("RemoteHops consulted %d times after the re-formation", consulted-founding)
		}
		if !adapter && consulted == founding {
			t.Fatal("HopForServer not consulted at the re-formation")
		}
		if got := mixes.Load(); got != mixed {
			t.Fatalf("%d batches crossed a founding-epoch hop after the re-formation", got-mixed)
		}
	}
	t.Run("RemoteHops", func(t *testing.T) { deploy(t, true) })
	t.Run("HopForServer", func(t *testing.T) { deploy(t, false) })
}

// BenchmarkNewNetwork stands up mix-k6's shape — 8 chains of 6
// in-process positions and one full-range Frontend, built inside the
// timed loop — from topology to the announced founding rounds: what an
// epoch's formation costs.
func BenchmarkNewNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fe, err := NewFrontend(FrontendConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewNetwork(Config{
			NumServers:          8,
			ChainLengthOverride: 6,
			Seed:                []byte("bench-new-network"),
			Shards:              []GatewayShard{fe},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
