package mix

import (
	"testing"

	"repro/internal/group"
	"repro/internal/onion"
)

// buildHops keys k servers and wraps them as local hops, mirroring
// what NewChain does internally but leaving room to decorate
// individual positions.
func buildHops(t testing.TB, k int) []Hop {
	t.Helper()
	hops := make([]Hop, k)
	base := group.Generator()
	for i := 0; i < k; i++ {
		s := NewChainServer(0, i, base, scheme)
		hops[i] = LocalHop(s)
		base = s.Keys().Bpk
	}
	return hops
}

// TestChainFromHopsMatchesNewChain: a chain assembled from explicit
// local hops behaves exactly like NewChain's — full delivery.
func TestChainFromHopsMatchesNewChain(t *testing.T) {
	c, err := NewChainFromHops(0, buildHops(t, 3), scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	subs, want := submitMany(t, c, 8)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.Delivered) != len(subs) {
		t.Fatalf("delivered %d of %d (halted=%v)", len(res.Delivered), len(subs), res.Halted)
	}
	for _, msg := range res.Delivered {
		if !want[string(msg)] {
			t.Fatal("unexpected message delivered")
		}
	}
}

// TestChainFromHopsRejectsBrokenChaining: position i's keys must
// chain off position i-1's blinding key.
func TestChainFromHopsRejectsBrokenChaining(t *testing.T) {
	hops := buildHops(t, 3)
	// Replace position 2 with a server keyed off the wrong base.
	hops[2] = LocalHop(NewChainServer(0, 2, group.Generator(), scheme))
	if _, err := NewChainFromHops(0, hops, scheme); err == nil {
		t.Fatal("mis-chained keys accepted")
	}
}

// TestChainFromHopsRejectsWrongPosition: a hop bound to another
// chain or index is refused at assembly.
func TestChainFromHopsRejectsWrongPosition(t *testing.T) {
	hops := buildHops(t, 2)
	s := NewChainServer(7, 1, hops[0].Keys().Bpk, scheme)
	hops[1] = LocalHop(s)
	if _, err := NewChainFromHops(0, hops, scheme); err == nil {
		t.Fatal("hop keyed for chain 7 accepted into chain 0")
	}
}

// TestByzantineHopRevealFailureHalts: a hop in a chain assembled from
// explicit hops that fails its inner-key reveal halts the round and is
// blamed; once the hop is honest again the next round delivers.
func TestByzantineHopRevealFailureHalts(t *testing.T) {
	c, err := NewChainFromHops(0, buildHops(t, 3), scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	c.Corrupt(1, &Corruption{WithholdInnerKey: true})
	subs, _ := submitMany(t, c, 6)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatalf("a failed reveal leaked as an orchestration error: %v", err)
	}
	if !res.Halted || len(res.Delivered) != 0 || !equalInts(res.BlamedServers, []int{1}) {
		t.Fatalf("halted %v, delivered %d, blamed %v; want a halt blaming [1]", res.Halted, len(res.Delivered), res.BlamedServers)
	}

	c.Corrupt(1, nil)
	if err := c.BeginRound(2); err != nil {
		t.Fatal(err)
	}
	subs, _ = submitMany(t, c, 6)
	res, err = c.RunRound(2, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.Delivered) != len(subs) {
		t.Fatalf("after recovery: delivered %d of %d (halted=%v)", len(res.Delivered), len(subs), res.Halted)
	}
}

// TestCorruptionMoveConvictsItsPosition: each Corruption move alone,
// made by one position, halts the chain, delivers nothing and blames
// exactly that position — and no user who did not misbehave, and no
// message as malformed by its sender. Row k, pos and n are the chain
// length, the deviating position and the honest messages submitted;
// badLayer ≥ 0 adds one malicious submission failing at that layer,
// which a move on the blame path needs to be asked anything.
func TestCorruptionMoveConvictsItsPosition(t *testing.T) {
	// The substitute is a valid onion for a chain of the same shape:
	// the key product breaks before anything decrypts it.
	crafted, err := CraftValidOnion(scheme, testChain(t, 4).Params(), 1, 0, group.GenerateBaseKeyPair().Public)
	if err != nil {
		t.Fatal(err)
	}
	drop, last := 2, 5
	for _, row := range []struct {
		name      string
		k, pos, n int
		badLayer  int
		move      Corruption
	}{
		{"TamperPairs", 4, 1, 6, -1, Corruption{TamperPairs: [][2]int{{0, 1}}}},
		{"ReplaceOutput", 4, 1, 6, -1, Corruption{ReplaceOutput: map[int]onion.Envelope{2: crafted.Envelope}}},
		{"GarbleCiphertext", 4, 0, 6, -1, Corruption{GarbleCiphertext: []int{3}}},
		{"DropOutput", 3, 1, 5, -1, Corruption{DropOutput: &drop}},
		{"DropOutput/last", 3, 1, 6, -1, Corruption{DropOutput: &last}},
		{"BadMixProof", 3, 2, 4, -1, Corruption{BadMixProof: true}},
		{"FalselyAccuse", 4, 2, 5, -1, Corruption{FalselyAccuse: []int{1}}},
		{"FalselyAccuse/negative", 3, 1, 6, -1, Corruption{FalselyAccuse: []int{-4}}},
		{"FalselyAccuse/past-batch", 3, 1, 6, -1, Corruption{FalselyAccuse: []int{1 << 30}}},
		{"FalselyAccuse/repeated", 3, 1, 6, -1, Corruption{FalselyAccuse: []int{2, 2}}},
		{"FalselyAccuse/unsorted", 3, 1, 6, -1, Corruption{FalselyAccuse: []int{3, 1}}},
		{"FailMix", 3, 1, 6, -1, Corruption{FailMix: true}},
		{"WithholdInnerKey", 3, 1, 4, -1, Corruption{WithholdInnerKey: true}},
		// A self-consistent but substituted key pair must be caught
		// against the pair proved at announce time, not corrupt the
		// inner sum and drop every message as malformed by its sender.
		{"SubstituteInnerKey", 3, 1, 6, -1, Corruption{SubstituteInnerKey: true}},
		// The malicious submission fails at position 1, so the blame
		// walk needs position 0's reveal.
		{"RefuseBlameReveal", 3, 0, 6, 1, Corruption{RefuseBlameReveal: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := testChain(t, row.k)
			c.Corrupt(row.pos, &row.move)
			subs, _ := submitMany(t, c, row.n)
			if row.badLayer >= 0 {
				bad, err := MaliciousSubmission(scheme, c.Params(), 1, 0, row.badLayer)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, bad)
			}
			res, err := c.RunRound(1, 0, subs)
			if err != nil {
				t.Fatalf("a deviating position leaked as an orchestration error: %v", err)
			}
			if !res.Halted || len(res.Delivered) != 0 || res.DroppedInner != 0 {
				t.Fatalf("halted %v, delivered %d, dropped %d as malformed; want a halt and nothing else", res.Halted, len(res.Delivered), res.DroppedInner)
			}
			if !equalInts(res.BlamedServers, []int{row.pos}) {
				t.Fatalf("blamed servers %v, want [%d]", res.BlamedServers, row.pos)
			}
			for _, u := range res.BlamedUsers {
				if u < row.n {
					t.Fatalf("honest user %d blamed (users %v)", u, res.BlamedUsers)
				}
			}
		})
	}
}
