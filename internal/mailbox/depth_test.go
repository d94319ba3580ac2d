package mailbox

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/group"
)

func TestDepthCapEvictsOldest(t *testing.T) {
	s := NewServerLimited(3)
	mb := []byte("alice")
	for i := 0; i < 5; i++ {
		dropped := s.Put(uint64(i), mb, []byte{byte(i)})
		if i < 3 && dropped != 0 {
			t.Fatalf("put %d: dropped %d under cap", i, dropped)
		}
		if i >= 3 && dropped != 1 {
			t.Fatalf("put %d: dropped %d, want 1", i, dropped)
		}
	}
	// Rounds 0 and 1 were evicted; 2..4 remain.
	for r := 0; r < 5; r++ {
		got := s.Get(uint64(r), mb)
		if r < 2 && len(got) != 0 {
			t.Fatalf("round %d survived eviction: %v", r, got)
		}
		if r >= 2 && (len(got) != 1 || got[0][0] != byte(r)) {
			t.Fatalf("round %d = %v", r, got)
		}
	}
}

func TestDepthCapWithinOneRound(t *testing.T) {
	s := NewServerLimited(2)
	mb := []byte("bob")
	dropped := s.PutBatch(7, []Delivery{
		{Mailbox: mb, Msg: []byte("a")},
		{Mailbox: mb, Msg: []byte("b")},
		{Mailbox: mb, Msg: []byte("c")},
	})
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	got := s.Get(7, mb)
	if len(got) != 2 || string(got[0]) != "b" || string(got[1]) != "c" {
		t.Fatalf("retained %q, want [b c]", got)
	}
}

func TestDepthCapPerMailbox(t *testing.T) {
	s := NewServerLimited(1)
	if d := s.Put(1, []byte("a"), []byte("x")); d != 0 {
		t.Fatalf("dropped %d", d)
	}
	// A different mailbox has its own budget.
	if d := s.Put(1, []byte("b"), []byte("y")); d != 0 {
		t.Fatalf("dropped %d", d)
	}
}

func TestAckPrunes(t *testing.T) {
	s := NewServer()
	mb := []byte("carol")
	s.Put(3, mb, []byte("m1"))
	s.Put(3, mb, []byte("m2"))
	s.Put(4, mb, []byte("m3"))
	if n := s.Ack(3, mb); n != 2 {
		t.Fatalf("Ack round 3 pruned %d, want 2", n)
	}
	if got := s.Get(3, mb); len(got) != 0 {
		t.Fatalf("acked mail still present: %v", got)
	}
	if got := s.Get(4, mb); len(got) != 1 {
		t.Fatalf("unacked round lost: %v", got)
	}
	if n := s.Ack(3, mb); n != 0 {
		t.Fatalf("second Ack pruned %d", n)
	}
	// Ack frees depth budget.
	s2 := NewServerLimited(1)
	s2.Put(1, mb, []byte("old"))
	s2.Ack(1, mb)
	if d := s2.Put(2, mb, []byte("new")); d != 0 {
		t.Fatalf("ack did not release depth: dropped %d", d)
	}
}

func TestPruneBeforeReleasesDepth(t *testing.T) {
	s := NewServerLimited(2)
	mb := []byte("dave")
	s.Put(1, mb, []byte("a"))
	s.Put(2, mb, []byte("b"))
	s.PruneBefore(3)
	if d := s.PutBatch(3, []Delivery{{Mailbox: mb, Msg: []byte("c")}, {Mailbox: mb, Msg: []byte("d")}}); d != 0 {
		t.Fatalf("prune did not release depth: dropped %d", d)
	}
}

// TestExportIsTheShortestRedelivery: Export yields one delivery per
// retained round, rounds ascending, and delivering them to an empty
// cluster — of a different size, so routing is redone — reproduces
// every mailbox message for message and exports the same sequence.
func TestExportIsTheShortestRedelivery(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := group.Base(group.NewScalar(1)), group.Base(group.NewScalar(2))
	c.Deliver(2, [][]byte{mailboxMsg(t, u1, 2)})
	c.Deliver(1, [][]byte{mailboxMsg(t, u2, 1), mailboxMsg(t, u1, 1), mailboxMsg(t, u2, 1)})
	c.Deliver(3, [][]byte{mailboxMsg(t, u2, 3)})
	c.Ack(3, u2.Bytes()) // an emptied round exports nothing

	exp := c.Export()
	if len(exp) != 2 || exp[0].Round != 1 || exp[1].Round != 2 || len(exp[0].Msgs) != 3 || len(exp[1].Msgs) != 1 {
		t.Fatalf("export = %d rounds %+v, want round 1 with 3 messages then round 2 with 1", len(exp), exp)
	}

	c2, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range exp {
		c2.Deliver(rm.Round, rm.Msgs)
	}
	for round := uint64(1); round <= 3; round++ {
		for _, u := range []group.Point{u1, u2} {
			want, got := c.Fetch(round, u.Bytes()), c2.Fetch(round, u.Bytes())
			if len(got) != len(want) {
				t.Fatalf("round %d: %d messages after redelivery, want %d", round, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("round %d message %d differs after redelivery", round, i)
				}
			}
		}
	}
	if exp2 := c2.Export(); !reflect.DeepEqual(exp2, exp) {
		t.Fatal("the redelivered cluster exports a different sequence")
	}
}

func TestDeliverReportsDropped(t *testing.T) {
	c, err := NewClusterLimited(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two well-formed messages to the same recipient overflow a
	// depth-1 mailbox.
	rcpt := group.Base(group.NewScalar(42))
	m1 := mailboxMsg(t, rcpt, 9)
	m2 := mailboxMsg(t, rcpt, 9)
	delivered, malformed, dropped := c.Deliver(9, [][]byte{m1, m2})
	if delivered != 2 || malformed != 0 || dropped != 1 {
		t.Fatalf("Deliver = (%d, %d, %d), want (2, 0, 1)", delivered, malformed, dropped)
	}
}
