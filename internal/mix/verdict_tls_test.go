package mix_test

import (
	"testing"

	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/rpc"
)

// FuzzBlameVerdictsTLS runs FuzzBlameVerdicts' draws with every
// position a mix server behind its own loopback TLS hop endpoint,
// reached through rpc.HopClient, and holds them to the same
// invariants. Its seed corpus is FuzzBlameVerdicts' first 40 seeds.
func FuzzBlameVerdictsTLS(f *testing.F) {
	for seed := uint64(0); seed < 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		mix.CheckBlameVerdicts(t, seed, "rpc.HopClient", tlsHops)
	})
}

// tlsHops starts k hop endpoints and binds endpoint i to position i of
// chain 0, each position's keys chained off the one before it.
func tlsHops(t testing.TB, k int) []mix.Hop {
	t.Helper()
	hops := make([]mix.Hop, k)
	base := group.Generator()
	for i := range hops {
		hs, err := rpc.NewHopServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		hs.Logf = func(string, ...any) {}
		hc := rpc.DialHop(hs.Addr(), hs.ClientTLS())
		t.Cleanup(func() {
			hc.Close()
			hs.Close()
		})
		keys, err := hc.Init(0, i, base)
		if err != nil {
			t.Fatal(err)
		}
		hops[i], base = hc, keys.Bpk
	}
	return hops
}
