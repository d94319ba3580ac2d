package mix

import (
	"errors"
	"testing"

	"repro/internal/aead"
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
	if c.Remote() {
		t.Fatal("all-local chain reports remote positions")
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

// byzantineHop decorates a position's hop, letting tests corrupt one
// response the way a hostile or broken remote process could. The
// chain must absorb every such response by halting and blaming the
// position — never by panicking.
type byzantineHop struct {
	Hop
	mutateMix  func(*MixResult) *MixResult
	mixErr     error
	revealErr  bool
	fakeReveal bool
}

func (b *byzantineHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*MixResult, error) {
	if b.mixErr != nil {
		return nil, b.mixErr
	}
	mr, err := b.Hop.Mix(round, nonce, in)
	if err != nil {
		return nil, err
	}
	if b.mutateMix != nil {
		mr = b.mutateMix(mr)
	}
	return mr, nil
}

func (b *byzantineHop) RevealInnerKey(round uint64) (group.Scalar, error) {
	if b.revealErr {
		return group.Scalar{}, errors.New("connection reset by peer")
	}
	if b.fakeReveal {
		// A self-consistent but substituted key pair: g^isk' matches
		// an ipk' the hop would now claim, but not the ipk it proved
		// at announce time.
		return group.MustRandomScalar(), nil
	}
	return b.Hop.RevealInnerKey(round)
}

// runByzantine assembles a 3-position chain with position 1 decorated
// by bz, runs a round of honest submissions, and returns the result.
func runByzantine(t *testing.T, configure func(*byzantineHop)) *RoundResult {
	t.Helper()
	hops := buildHops(t, 3)
	bz := &byzantineHop{Hop: hops[1]}
	configure(bz)
	hops[1] = bz
	c, err := NewChainFromHops(0, hops, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	subs, _ := submitMany(t, c, 6)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatalf("byzantine hop leaked as orchestration error: %v", err)
	}
	return res
}

func expectHaltBlaming(t *testing.T, res *RoundResult, position int) {
	t.Helper()
	if !res.Halted {
		t.Fatal("chain did not halt")
	}
	for _, b := range res.BlamedServers {
		if b == position {
			return
		}
	}
	t.Fatalf("blamed %v, want position %d", res.BlamedServers, position)
}

func TestByzantineHopTransportErrorHalts(t *testing.T) {
	res := runByzantine(t, func(b *byzantineHop) {
		b.mixErr = errors.New("dial tcp: connection refused")
	})
	expectHaltBlaming(t, res, 1)
	if len(res.Delivered) != 0 {
		t.Fatal("halted chain delivered messages")
	}
}

func TestByzantineHopBogusFailedIndicesHalt(t *testing.T) {
	for _, failed := range [][]int{{-4}, {1 << 30}, {2, 2}, {3, 1}} {
		res := runByzantine(t, func(b *byzantineHop) {
			b.mutateMix = func(mr *MixResult) *MixResult {
				return &MixResult{Failed: failed}
			}
		})
		expectHaltBlaming(t, res, 1)
	}
}

func TestByzantineHopRevealFailureHalts(t *testing.T) {
	res := runByzantine(t, func(b *byzantineHop) { b.revealErr = true })
	expectHaltBlaming(t, res, 1)
}

// TestByzantineHopSubstitutedInnerKeyHalts: revealing a different —
// internally consistent — inner key pair than the one proved at
// announce time must be caught against the orchestrator's record,
// not silently corrupt the inner sum (which would drop every message
// as "malformed by its sender" with nobody blamed).
func TestByzantineHopSubstitutedInnerKeyHalts(t *testing.T) {
	res := runByzantine(t, func(b *byzantineHop) { b.fakeReveal = true })
	expectHaltBlaming(t, res, 1)
	if res.DroppedInner != 0 {
		t.Fatalf("substituted inner key misattributed to users: %d dropped", res.DroppedInner)
	}
}

// TestByzantineHopShortOutputHalts: dropping envelopes from the
// output fails the count check in VerifyMix.
func TestByzantineHopShortOutputHalts(t *testing.T) {
	res := runByzantine(t, func(b *byzantineHop) {
		b.mutateMix = func(mr *MixResult) *MixResult {
			mr.Out = mr.Out[:len(mr.Out)-1]
			return mr
		}
	})
	expectHaltBlaming(t, res, 1)
}

// TestByzantineHopBlameRevealRefusalConvicts: a hop that cannot (or
// will not) produce a blame reveal is convicted by the blame walk.
// Position 1 falsely fails a message so the blame protocol runs, and
// position 0 — whose reveal the walk needs — refuses.
type refusingHop struct{ Hop }

func (r refusingHop) BlameReveal(round uint64, msg, pos int) (BlameReveal, error) {
	return BlameReveal{}, errors.New("connection reset by peer")
}

func TestByzantineHopBlameRevealRefusalConvicts(t *testing.T) {
	hops := buildHops(t, 3)
	hops[0] = refusingHop{hops[0]}
	c, err := NewChainFromHops(0, hops, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	subs, _ := submitMany(t, c, 6)
	// A malicious submission whose decryption fails at position 1
	// forces the blame walk through position 0's reveal.
	bad, err := MaliciousSubmission(scheme, c.Params(), 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunRound(1, 0, append(subs, bad))
	if err != nil {
		t.Fatal(err)
	}
	expectHaltBlaming(t, res, 0)
}
