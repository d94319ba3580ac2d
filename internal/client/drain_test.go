package client

import (
	"slices"
	"testing"

	"repro/internal/chainsel"
	"repro/internal/group"
	"repro/internal/mix"
)

// innerAgg serves every chain and round one inner aggregate and no mix
// keys: enough to build against.
type innerAgg struct{ agg group.Point }

func (s innerAgg) ChainParams(chain int, round uint64) (mix.Params, error) {
	return mix.Params{ChainID: chain, Round: round, InnerAggregate: s.agg}, nil
}

// queued returns p's queue as strings.
func queued(p *peer) []string {
	out := make([]string, len(p.outbox))
	for i, b := range p.outbox {
		out[i] = string(b)
	}
	return out
}

// TestRestoreDrainedOrder: two builds drain one body per partner each,
// Rebalance marks them stale and drops one partner (clearing her queue),
// she is added back and given her third body again, and rebuilding the
// first round restores both queues to the order the bodies were sent
// in. EndAllConversations then leaves nothing queued.
func TestRestoreDrainedOrder(t *testing.T) {
	wide, err := chainsel.NewPlan(21)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := chainsel.NewPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	a := NewUser(nil, wide)
	var b, c group.KeyPair
	for attempt := 0; ; attempt++ {
		if attempt == 500 {
			t.Skip("no pair that clashes only under the narrow plan")
		}
		b, c = group.GenerateBaseKeyPair(), group.GenerateBaseKeyPair()
		meet := func(p *chainsel.Plan, kp group.KeyPair) int {
			return p.MeetingChainForUsers(a.Mailbox(), kp.Public.Bytes())
		}
		if meet(wide, b) != meet(wide, c) && meet(narrow, b) == meet(narrow, c) {
			break
		}
	}
	if err := a.StartConversations([]group.Point{b.Public, c.Public}); err != nil {
		t.Fatal(err)
	}
	names := map[string]group.Point{"b": b.Public, "c": c.Public}
	queue := func(name, body string) {
		t.Helper()
		if err := a.QueueMessageFor(names[name], []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range []string{"1", "2", "3"} {
		queue("b", "b"+body)
		queue("c", "c"+body)
	}
	src := innerAgg{agg: group.Base(group.MustRandomScalar())}
	for _, rho := range []uint64{5, 6} {
		if _, err := a.BuildRound(rho, src); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.drained) != 4 {
		t.Fatalf("two builds recorded %d drained bodies, want 4", len(a.drained))
	}
	peers := map[string]*peer{}
	for _, p := range a.partners {
		for name, key := range names {
			if p.key.Equal(key) {
				peers[name] = p
			}
		}
	}

	dropped := a.Rebalance(narrow)
	if len(dropped) != 1 {
		t.Fatalf("Rebalance dropped %d partners, want 1", len(dropped))
	}
	gone := "b"
	if dropped[0].Equal(c.Public) {
		gone = "c"
	}
	if q := queued(peers[gone]); len(q) != 0 {
		t.Fatalf("the dropped partner still has %q queued", q)
	}
	if d := a.Rebalance(wide); len(d) != 0 {
		t.Fatalf("Rebalance to the wide plan dropped %d partners", len(d))
	}
	if err := a.StartConversation(names[gone]); err != nil {
		t.Fatal(err)
	}
	queue(gone, gone+"3")

	a.restoreDrained(5)
	for name, p := range peers {
		if got, want := queued(p), []string{name + "1", name + "2", name + "3"}; !slices.Equal(got, want) {
			t.Fatalf("%s's restored queue is %q, want %q", name, got, want)
		}
	}
	if len(a.drained) != 0 {
		t.Fatalf("%d drained records left after restoring both rounds", len(a.drained))
	}

	a.EndAllConversations()
	for name, p := range peers {
		if q := queued(p); len(q) != 0 {
			t.Fatalf("%s still has %q queued after EndAllConversations", name, q)
		}
	}
}
