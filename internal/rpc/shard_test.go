package rpc

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	return newShardedDeploymentWith(t, 1, func(sc *ShardClient) core.GatewayShard { return sc })
}

// newShardedDeploymentWith is newShardedDeployment at a pipeline depth,
// with the coordinator's handle on each shard passed through wrap.
func newShardedDeploymentWith(t testing.TB, depth int, wrap func(*ShardClient) core.GatewayShard) (*core.Network, *Server, []*ShardServer) {
	t.Helper()
	var servers []*ShardServer
	var clients []*ShardClient
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
		clients = append(clients, sc)
		shards = append(shards, wrap(sc))
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("rpc-shard-test"),
		Shards:              shards,
		PipelineDepth:       depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range clients {
		if err := sc.Init(n); err != nil {
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

// roundOutcome is what a pipelined run must share with a serial one.
type roundOutcome struct {
	Delivered, Covered, Lost int
	DeadShards               []int
	// Bodies are the conversation bodies the scripted users read, in
	// user order.
	Bodies []string
}

// runShardScript drives four rounds of a fixed script over two remote
// gateway shards: two cross-shard pairs hosted on the shards, every
// round's bodies queued up front (a pipelined round builds while its
// predecessor mixes, so bodies queued between rounds would ride a
// round later), and one external user per shard who submits round 1
// and is carried through round 2 by the covers that came with it.
func runShardScript(t *testing.T, depth int, wrap func(*ShardClient) core.GatewayShard) []roundOutcome {
	t.Helper()
	const rounds = 4
	n, _, servers := newShardedDeploymentWith(t, depth, wrap)
	front := shardedFront(t, servers)

	type hosted struct {
		u  *client.User
		fe *core.Frontend
	}
	var users []hosted
	for pair := 0; pair < 2; pair++ {
		a := hosted{servers[0].fe.NewUser(), servers[0].fe}
		b := hosted{servers[1].fe.NewUser(), servers[1].fe}
		if err := a.u.StartConversation(b.u.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.u.StartConversation(a.u.PublicKey()); err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= rounds; r++ {
			for i, h := range []hosted{a, b} {
				if err := h.u.QueueMessage([]byte(fmt.Sprintf("round %d pair %d side %d", r, pair, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		users = append(users, a, b)
	}
	alice, bob := crossShardPair(t, n, front)
	for _, u := range []*client.User{alice, bob} {
		out, err := u.BuildRound(n.Round(), front)
		if err != nil {
			t.Fatal(err)
		}
		if err := front.Submit(u.Mailbox(), out); err != nil {
			t.Fatal(err)
		}
	}

	var outcomes []roundOutcome
	for r := 1; r <= rounds; r++ {
		rep, err := n.RunRound()
		if err != nil {
			t.Fatalf("depth %d round %d: %v", depth, r, err)
		}
		out := roundOutcome{Delivered: rep.Delivered, Covered: rep.OfflineCovered, Lost: rep.LostDeliveries, DeadShards: rep.DeadShards}
		for _, h := range users {
			recv, bad := h.u.OpenMailbox(rep.Round, h.fe.FetchMailbox(rep.Round, h.u.Mailbox()))
			if bad != 0 {
				t.Fatalf("depth %d round %d: %d undecryptable", depth, r, bad)
			}
			for _, m := range recv {
				if m.FromPartner && m.Kind == onion.KindConversation && len(m.Body) > 0 {
					out.Bodies = append(out.Bodies, string(m.Body))
				}
			}
		}
		outcomes = append(outcomes, out)
	}
	return outcomes
}

// TestPipelinedRemoteShards: a depth-2 coordinator begins round ρ+1 on
// its gateway shards while round ρ is still mixing and delivering.
// Over remote shards that must change nothing a serial run reports —
// every routed message stored, no shard declared dead, every body read
// in its round. (The chunked shard protocol kept one round's build and
// delivery buffer per shard, which the overlapping begin clobbered:
// finish(ρ) stored nothing and reported no loss.)
func TestPipelinedRemoteShards(t *testing.T) {
	direct := func(sc *ShardClient) core.GatewayShard { return sc }
	serial := runShardScript(t, 1, direct)
	piped := runShardScript(t, 2, direct)
	if !reflect.DeepEqual(serial, piped) {
		t.Fatalf("pipelined rounds over remote shards diverged from serial:\nserial    %+v\npipelined %+v", serial, piped)
	}
	for r, out := range serial {
		if out.Delivered == 0 || len(out.Bodies) != 4 || out.Lost != 0 || len(out.DeadShards) != 0 {
			t.Fatalf("round %d of the serial reference is not a clean delivering round: %+v", r+1, out)
		}
	}
}

// beginFirst is a coordinator's handle on a shard that holds round ρ's
// shard.finish request back, on the wire, until round ρ+1's begin has
// been answered: the one order of the two a pipelined coordinator can
// produce and a serial one never does, made deterministic.
type beginFirst struct {
	core.GatewayShard
	finishing atomic.Uint64
	mu        sync.Mutex
	begun     map[uint64]chan struct{}
}

func (s *beginFirst) answered(round uint64) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.begun[round] == nil {
		s.begun[round] = make(chan struct{})
	}
	return s.begun[round]
}

func (s *beginFirst) BeginRound(br *core.BeginRound) (*core.ShardBuild, error) {
	build, err := s.GatewayShard.BeginRound(br)
	close(s.answered(br.Round)) // the script begins each round once
	return build, err
}

func (s *beginFirst) FinishRound(fr *core.FinishRound) (core.FinishStats, error) {
	s.finishing.Store(fr.Round)
	return s.GatewayShard.FinishRound(fr)
}

// finishGate is the shard handle's connection: every request passes
// but shard.finish, which waits for the next round's begin.
type finishGate struct {
	net.Conn
	s *beginFirst
}

func (c finishGate) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("shard.finish")) {
		next := c.s.finishing.Load() + 1
		select {
		case <-c.s.answered(next):
		case <-time.After(30 * time.Second):
			return 0, fmt.Errorf("round %d's begin never reached the shard", next)
		}
	}
	return c.Conn.Write(p)
}

// TestShardBeginBeforeFinish pins the handler order itself: with
// begin(ρ+1) answered before finish(ρ) is sent, finish(ρ) still stores
// every routed message and begin(ρ+1)'s batches still reach the
// coordinator — the shard endpoint has no per-round state for the
// second exchange to find overwritten.
func TestShardBeginBeforeFinish(t *testing.T) {
	serial := runShardScript(t, 1, func(sc *ShardClient) core.GatewayShard { return sc })
	ordered := runShardScript(t, 2, func(sc *ShardClient) core.GatewayShard {
		s := &beginFirst{GatewayShard: sc, begun: make(map[uint64]chan struct{})}
		sc.c.link.mu.Lock()
		sc.c.link.wrap = func(conn net.Conn) net.Conn { return finishGate{Conn: conn, s: s} }
		sc.c.link.mu.Unlock()
		return s
	})
	if !reflect.DeepEqual(serial, ordered) {
		t.Fatalf("begin(ρ+1) before finish(ρ) changed the rounds:\nserial  %+v\nordered %+v", serial, ordered)
	}
}
