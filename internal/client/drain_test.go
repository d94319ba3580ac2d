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

// TestRestoreDrainedOrder: two builds drain one body per partner each
// under epoch 0, Rebalance moves the user to epochs 1 and 2 and drops
// one partner on the way (clearing her queue), she is added back and
// given her third body again, and rebuilding the first round under
// epoch 2 restores both queues to the order the bodies were sent in.
// EndAllConversations then leaves nothing queued.
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

	dropped := a.Rebalance(narrow, 1)
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
	if d := a.Rebalance(wide, 2); len(d) != 0 {
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

// settleFixture is a user conversing with one partner under a plan of
// seven chains, whose build of round 5 drained the body "x".
func settleFixture(t *testing.T) (*User, *peer, *chainsel.Plan) {
	t.Helper()
	plan, err := chainsel.NewPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	a := NewUser(nil, plan)
	b := group.GenerateBaseKeyPair()
	if err := a.StartConversation(b.Public); err != nil {
		t.Fatal(err)
	}
	if err := a.QueueMessage([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BuildRound(5, innerAgg{agg: group.Base(group.MustRandomScalar())}); err != nil {
		t.Fatal(err)
	}
	p := a.partners[plan.MeetingChainForUsers(a.Mailbox(), b.Public.Bytes())]
	if len(a.drained) != 1 || len(p.outbox) != 0 {
		t.Fatalf("the build drained %d records and left %d queued", len(a.drained), len(p.outbox))
	}
	return a, p, plan
}

// TestSettleRules: each rule of the round's outcome, applied to the one
// body round 5 drained. A body its round delivered is forgotten at
// once; one whose round ran under another epoch, whose row held a dead
// chain or whose own chain failed goes back to its queue; one whose
// round has no outcome stays recorded.
func TestSettleRules(t *testing.T) {
	_, _, plan := settleFixture(t)
	row := func(a *User) []int { return plan.ChainsForUser(a.Mailbox()) }
	meeting := func(a *User) int { c, _ := a.MeetingChain(); return c }
	// other names a chain besides her meeting chain, in her row or not;
	// seven chains give her four slots, so both exist.
	other := func(a *User, inRow bool) []int {
		for c := range plan.NumChains {
			if c != meeting(a) && slices.Contains(row(a), c) == inRow {
				return []int{c}
			}
		}
		return []int{-1}
	}
	for _, tc := range []struct {
		name    string
		outcome func(a *User) Outcome
		queued  bool // the body is back in the queue
		kept    bool // the record is still held
	}{
		{"delivered", func(*User) Outcome { return Outcome{Round: 5} }, false, false},
		{"no outcome yet", func(*User) Outcome { return Outcome{Round: 4} }, false, true},
		{"another epoch", func(*User) Outcome { return Outcome{Round: 5, Epoch: 1} }, true, false},
		{"dead chain in her row", func(a *User) Outcome { return Outcome{Round: 5, Dead: other(a, true)} }, true, false},
		{"dead chain outside her row", func(a *User) Outcome { return Outcome{Round: 5, Dead: other(a, false)} }, false, false},
		{"her chain failed", func(a *User) Outcome { return Outcome{Round: 5, Failed: []int{meeting(a)}} }, true, false},
		{"another chain of her row failed", func(a *User) Outcome { return Outcome{Round: 5, Failed: other(a, true)} }, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, p, _ := settleFixture(t)
			o := tc.outcome(a)
			if slices.Contains(append(o.Dead, o.Failed...), -1) {
				t.Fatal("no chain of that kind")
			}
			a.Settle([]Outcome{o})
			if got := queued(p); tc.queued != slices.Equal(got, []string{"x"}) || !tc.queued && len(got) != 0 {
				t.Fatalf("queue %q after settling, want the body back: %v", got, tc.queued)
			}
			if kept := len(a.drained) == 1; kept != tc.kept {
				t.Fatalf("%d records held after settling, want the record kept: %v", len(a.drained), tc.kept)
			}
		})
	}
}

// TestSettleTwiceRestoresOnce: the same outcomes settled again restore
// nothing again, and once the restored body is drained by the next
// round's build, the stale outcome does not touch that round's record.
func TestSettleTwiceRestoresOnce(t *testing.T) {
	a, p, _ := settleFixture(t)
	outcomes := []Outcome{{Round: 5, Epoch: 1}, {Round: 4}}
	a.Rebalance(a.plan, 1)
	a.Settle(outcomes)
	a.Settle(outcomes)
	if got := queued(p); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("queue %q after settling twice, want the body once", got)
	}
	if _, err := a.BuildRound(6, innerAgg{agg: group.Base(group.MustRandomScalar())}); err != nil {
		t.Fatal(err)
	}
	a.Settle(outcomes)
	if got := queued(p); len(got) != 0 || len(a.drained) != 1 || a.drained[0].round != 6 {
		t.Fatalf("queue %q and %d records after the rebuild, want the round-6 record alone", got, len(a.drained))
	}
}

// TestDrainRecordsStayInWindow: a user whose rounds are never settled,
// or settled with outcomes of other rounds, holds the records of the
// last two rounds' builds at most, whatever the number of rounds.
func TestDrainRecordsStayInWindow(t *testing.T) {
	a, _, _ := settleFixture(t)
	src := innerAgg{agg: group.Base(group.MustRandomScalar())}
	for rho := uint64(6); rho <= 12; rho++ {
		if err := a.QueueMessage([]byte{byte(rho)}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.BuildRound(rho, src); err != nil {
			t.Fatal(err)
		}
		a.Settle([]Outcome{{Round: rho + 1}})
		if len(a.drained) > 2 || a.drained[0].round+1 < rho {
			t.Fatalf("after round %d: %d records, the oldest of round %d", rho, len(a.drained), a.drained[0].round)
		}
	}
}

// TestWithdraw: withdrawing round 6's build puts the body it drained
// back at the front of the queue and drops its record, and leaves round
// 5's record alone. Outcomes that would restore both rounds then
// restore round 5's body alone, ahead of it, so the queue is in send
// order, and settling them again restores nothing more.
func TestWithdraw(t *testing.T) {
	a, p, _ := settleFixture(t)
	for _, body := range []string{"y", "z"} {
		if err := a.QueueMessage([]byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.BuildRound(6, innerAgg{agg: group.Base(group.MustRandomScalar())}); err != nil {
		t.Fatal(err)
	}
	a.Withdraw(6)
	if got := queued(p); !slices.Equal(got, []string{"y", "z"}) || len(a.drained) != 1 || a.drained[0].round != 5 {
		t.Fatalf("queue %q and %d records after withdrawing round 6, want [y z] and round 5's record", got, len(a.drained))
	}
	outcomes := []Outcome{{Round: 6, Epoch: 1}, {Round: 5, Epoch: 1}}
	for range 2 {
		a.Settle(outcomes)
		if got := queued(p); !slices.Equal(got, []string{"x", "y", "z"}) || len(a.drained) != 0 {
			t.Fatalf("queue %q and %d records after settling, want [x y z] and none", got, len(a.drained))
		}
	}
}
