package rpc

import (
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/onion"
)

// newShardedDeployment assembles the full remote-shard topology in one
// process: two ShardServers each hosting a Frontend over half the
// registry space, a coordinator network reaching them only through
// ShardClients over TLS, and the coordinator's own user endpoint.
func newShardedDeployment(t testing.TB) (*core.Network, *Server, []*ShardServer) {
	t.Helper()
	var servers []*ShardServer
	var shards []core.GatewayShard
	for _, r := range []core.ShardRange{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}} {
		fe, err := core.NewFrontend(core.FrontendConfig{Range: r, MailboxServers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewShardServer(fe, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ss.Logf = func(string, ...any) {}
		t.Cleanup(func() { ss.Close() })
		sc, err := NewShardClient(r.Lo, r.Hi, ss.Addr(), ss.ClientTLS())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sc.Close() })
		servers = append(servers, ss)
		shards = append(shards, sc)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("rpc-shard-test"),
		Shards:              shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		if err := sh.(*ShardClient).Init(n); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(func() { srv.Close() })
	return n, srv, servers
}

// shardedFront builds a MultiClient over the two gateway shards and
// discovers their ranges.
func shardedFront(t testing.TB, servers []*ShardServer) *MultiClient {
	t.Helper()
	var eps []Endpoint
	for _, ss := range servers {
		eps = append(eps, Endpoint{Addr: ss.Addr(), TLS: ss.ClientTLS()})
	}
	front, err := NewMultiClient(eps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	if err := front.Refresh(); err != nil {
		t.Fatal(err)
	}
	return front
}

// crossShardPair draws two users guaranteed to live on different
// gateway shards.
func crossShardPair(t testing.TB, n *core.Network, front *MultiClient) (*client.User, *client.User) {
	t.Helper()
	alice := client.NewUser(nil, n.Plan())
	bob := client.NewUser(nil, n.Plan())
	for tries := 0; front.ClientFor(alice.Mailbox()) == front.ClientFor(bob.Mailbox()); tries++ {
		if tries > 1000 {
			t.Fatal("could not draw a cross-shard pair")
		}
		bob = client.NewUser(nil, n.Plan())
	}
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

// TestShardedRemoteConversation drives two rounds of a cross-shard
// conversation where users and the coordinator alike reach the
// gateway shards only over TLS: parameters and submissions go to the
// shard processes, the round trigger crosses the coordinator's user
// endpoint, and the delivered mailbox comes back off the recipient's
// owning shard. Round two additionally proves the shards learned the
// next round's parameters from the finish broadcast, not from Init.
func TestShardedRemoteConversation(t *testing.T) {
	n, srv, servers := newShardedDeployment(t)
	front := shardedFront(t, servers)

	st, err := front.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "gateway" {
		t.Fatalf("shard status role %q, want gateway", st.Role)
	}
	if st.Round != n.Round() || st.NumChains != n.NumChains() {
		t.Fatalf("shard status %+v disagrees with coordinator", st)
	}

	driver, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()

	alice, bob := crossShardPair(t, n, front)
	for round := 1; round <= 2; round++ {
		body := []byte{'m', byte('0' + round)}
		if err := alice.QueueMessage(body); err != nil {
			t.Fatal(err)
		}
		rho := n.Round()
		outA, err := alice.BuildRound(rho, front)
		if err != nil {
			t.Fatalf("round %d: alice build: %v", round, err)
		}
		outB, err := bob.BuildRound(rho, front)
		if err != nil {
			t.Fatalf("round %d: bob build: %v", round, err)
		}
		if err := front.Submit(alice.Mailbox(), outA); err != nil {
			t.Fatal(err)
		}
		if err := front.Submit(bob.Mailbox(), outB); err != nil {
			t.Fatal(err)
		}
		rep, err := driver.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := front.Fetch(rep.Round, bob.Mailbox())
		if err != nil {
			t.Fatal(err)
		}
		recv, bad := bob.OpenMailbox(rep.Round, msgs)
		if bad != 0 {
			t.Fatalf("round %d: %d undecryptable", round, bad)
		}
		got := ""
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation {
				got = string(r.Body)
			}
		}
		if got != string(body) {
			t.Fatalf("round %d: bob received %q, want %q", round, got, body)
		}
	}
}

// TestShardProcessDeathMidRound kills one gateway shard process after
// submissions and requires the round to complete for the surviving
// shard's users, with the dead shard reported — the remote-transport
// version of the in-process chaos test in core.
func TestShardProcessDeathMidRound(t *testing.T) {
	n, _, servers := newShardedDeployment(t)
	front := shardedFront(t, servers)

	alice, bob := crossShardPair(t, n, front)
	// A second pair entirely on bob's shard keeps an expected delivery
	// alive after alice's shard dies.
	survivor1 := client.NewUser(nil, n.Plan())
	for front.ClientFor(survivor1.Mailbox()) != front.ClientFor(bob.Mailbox()) {
		survivor1 = client.NewUser(nil, n.Plan())
	}
	survivor2 := client.NewUser(nil, n.Plan())
	for front.ClientFor(survivor2.Mailbox()) != front.ClientFor(bob.Mailbox()) {
		survivor2 = client.NewUser(nil, n.Plan())
	}
	if err := survivor1.StartConversation(survivor2.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := survivor2.StartConversation(survivor1.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := survivor1.QueueMessage([]byte("still here")); err != nil {
		t.Fatal(err)
	}

	rho := n.Round()
	for _, u := range []*client.User{alice, bob, survivor1, survivor2} {
		out, err := u.BuildRound(rho, front)
		if err != nil {
			t.Fatal(err)
		}
		if err := front.Submit(u.Mailbox(), out); err != nil {
			t.Fatal(err)
		}
	}

	// SIGKILL, in-process form: the listener drops every connection
	// and refuses new ones.
	deadIdx := 0
	if front.ClientFor(alice.Mailbox()) == front.Clients()[1] {
		deadIdx = 1
	}
	servers[deadIdx].Close()

	rep, err := n.RunRound()
	if err != nil {
		t.Fatalf("round with one dead shard must still run: %v", err)
	}
	if len(rep.DeadShards) != 1 || rep.DeadShards[0] != deadIdx {
		t.Fatalf("dead shards = %v, want [%d]", rep.DeadShards, deadIdx)
	}

	// The surviving shard's pair made their round.
	msgs, err := front.Fetch(rep.Round, survivor2.Mailbox())
	if err != nil {
		t.Fatal(err)
	}
	recv, bad := survivor2.OpenMailbox(rep.Round, msgs)
	if bad != 0 {
		t.Fatalf("%d undecryptable", bad)
	}
	got := ""
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			got = string(r.Body)
		}
	}
	if got != "still here" {
		t.Fatalf("survivor received %q", got)
	}

	// The dead shard's user is unreachable — and that is the failure
	// mode: her gateway is gone, not the round.
	if _, err := front.Fetch(rep.Round, alice.Mailbox()); err == nil {
		t.Fatal("fetch from the dead shard should fail")
	} else if !IsTransportError(err) {
		t.Fatalf("fetch from the dead shard: %v, want a transport error", err)
	}
}

// TestShardAbortRoundZero: shard.abort takes its round off the wire,
// and rounds start at 1. A round-0 frame used to wrap the shard's
// collected watermark to 2⁶⁴−1, after which every submission was
// answered "already mixing" — for good, once a watermark persisted it.
// The frame must leave the submission window as it was.
func TestShardAbortRoundZero(t *testing.T) {
	n, _, servers := newShardedDeployment(t)
	front := shardedFront(t, servers)
	for _, ss := range servers {
		peer := NewClient(ss.Addr(), ss.ClientTLS())
		defer peer.Close()
		var resp ack
		if err := peer.call("shard.abort", ShardAbortRequest{Round: 0}, &resp); err != nil {
			t.Fatalf("shard.abort round 0: %v", err)
		}
	}
	u := client.NewUser(nil, n.Plan())
	out, err := u.BuildRound(n.Round(), front)
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Submit(u.Mailbox(), out); err != nil {
		t.Fatalf("submission after a round-0 abort frame: %v", err)
	}
}
