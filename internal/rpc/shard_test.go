package rpc

import (
	"bytes"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
)

// newShardedDeployment assembles the full remote-shard topology in one
// process: two ShardServers each hosting a Frontend over half the
// registry space, a coordinator network reaching them only through
// ShardClients over TLS, and the coordinator's own user endpoint.
func newShardedDeployment(t testing.TB) (*core.Network, *Server, []*ShardServer) {
	t.Helper()
	return newShardedDeploymentWrapped(t, nil)
}

// newShardedDeploymentWrapped is newShardedDeployment with wrap, if not
// nil, installed on every shard server's connections before the
// coordinator dials it.
func newShardedDeploymentWrapped(t testing.TB, wrap func(net.Conn) net.Conn) (*core.Network, *Server, []*ShardServer) {
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
		if wrap != nil {
			ss.SetConnWrapper(wrap)
		}
		t.Cleanup(func() { ss.Close() })
		sc, err := NewShardClient(r.Lo, r.Hi, ss.Addr(), ss.ClientTLS())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sc.Close() })
		servers = append(servers, ss)
		clients = append(clients, sc)
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
	for _, sc := range clients {
		if err := sc.Init(n); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(n, nil, "127.0.0.1:0")
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
	var lcs []*listenerCore
	for _, ss := range servers {
		lcs = append(lcs, ss.listenerCore)
	}
	return newFront(t, lcs...)
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
		rho, err := front.Play(alice, bob)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := driver.RunRound(); err != nil {
			t.Fatal(err)
		}
		if got := bodiesFor(t, front, rho, bob); !slices.Equal(got, []string{string(body)}) {
			t.Fatalf("round %d: bob received %q, want %q", round, got, body)
		}
	}
}

// TestShardedCoordinatorRefusesUsers: over TLS, the coordinator
// endpoint of a sharded deployment holds no users, so it refuses
// register, submit, fetch and ack rather than answering with an empty
// mailbox; the single-process endpoint serves all four. Both answer
// params from the coordinator's chains before round 1.
func TestShardedCoordinatorRefusesUsers(t *testing.T) {
	sharded, shardedSrv, _ := newShardedDeployment(t)
	single, singleSrv := newDeployment(t)
	for _, tc := range []struct {
		name   string
		n      *core.Network
		srv    *Server
		refuse bool
	}{{"sharded", sharded, shardedSrv, true}, {"single", single, singleSrv, false}} {
		c, err := Dial(tc.srv.Addr(), tc.srv.ClientTLS())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		u := client.NewUser(nil, tc.n.Plan())
		out, err := u.BuildRound(tc.n.Round(), c)
		if err != nil {
			t.Fatalf("%s: params before round 1: %v", tc.name, err)
		}
		errs := make(map[string]error)
		_, errs["register"] = c.Register([][]byte{u.Mailbox()})
		errs["submit"] = c.Submit(u.Mailbox(), out)
		_, errs["fetch"] = c.Fetch(out.Round, u.Mailbox())
		_, errs["ack"] = c.Ack(out.Round, u.Mailbox())
		for method, err := range errs {
			if tc.refuse && (err == nil || !strings.Contains(err.Error(), "holds no users")) {
				t.Errorf("%s coordinator: %s answered with err = %v, want a refusal", tc.name, method, err)
			}
			if !tc.refuse && err != nil {
				t.Errorf("%s coordinator: %s refused: %v", tc.name, method, err)
			}
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

	if _, err := front.Play(alice, bob, survivor1, survivor2); err != nil {
		t.Fatal(err)
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
	if got := bodiesFor(t, front, rep.Round, survivor2); !slices.Equal(got, []string{"still here"}) {
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

// cutReply is a server's connection that, the first time any
// connection sharing cut reads a request for method, closes instead of
// writing the reply: the server has handled the request, and the
// caller never hears of it.
type cutReply struct {
	net.Conn
	method string
	cut    *atomic.Bool
	saw    bool
}

func (c *cutReply) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if bytes.Contains(p[:n], []byte(c.method)) {
		c.saw = true
	}
	return n, err
}

func (c *cutReply) Write(p []byte) (int, error) {
	if c.saw && c.cut.CompareAndSwap(false, true) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestShardBeginRetryKeepsRemoteTraffic: the first shard.begin reply
// of the round is lost, ShardClient re-asks once on a fresh
// connection, and the shard begins the round a second time. The
// re-begun round collects the remote users' banked submissions again:
// the body alice queued is delivered exactly once, and nobody is
// stranded.
func TestShardBeginRetryKeepsRemoteTraffic(t *testing.T) {
	var cut atomic.Bool
	n, _, servers := newShardedDeploymentWrapped(t, func(c net.Conn) net.Conn {
		return &cutReply{Conn: c, method: "shard.begin", cut: &cut}
	})
	front := shardedFront(t, servers)
	alice, bob := crossShardPair(t, n, front)
	if err := alice.QueueMessage([]byte("once")); err != nil {
		t.Fatal(err)
	}
	rho, err := front.Play(alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !cut.Load() {
		t.Fatal("no shard.begin reply was cut")
	}
	if len(rep.DeadShards) != 0 || len(rep.Stranded) != 0 {
		t.Fatalf("round %d: dead shards %v, stranded %d", rep.Round, rep.DeadShards, len(rep.Stranded))
	}
	if bodies := bodiesFor(t, front, rho, bob); !slices.Equal(bodies, []string{"once"}) {
		t.Fatalf("bob received %q, want \"once\" exactly once", bodies)
	}
}

// TestRemoteUserAcrossReformation: a cross-shard pair of remote users
// keeps conversing over TLS while a false accusation halts a chain and
// the next round re-forms the chains into a new epoch. The round that
// re-forms drops what they submitted on the old keys without blaming
// them and lists them as stranded. From the next round on they build
// against the new epoch — the parameters their gateway serves, not
// ones their client cached before the re-formation — and settle their
// drained bodies with the outcomes Status serves: the dropped body
// names another epoch than the round ran under, so alice sends it
// again, and bob receives every body once, in send order. alice's own
// gateway serves her the new epoch's parameters.
func TestRemoteUserAcrossReformation(t *testing.T) {
	n, srv, servers := newShardedDeployment(t)
	front := shardedFront(t, servers)
	driver, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	alice, bob := crossShardPair(t, n, front)

	play := func(body string) core.RoundReport {
		t.Helper()
		if body != "" {
			if err := alice.QueueMessage([]byte(body)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := front.Play(alice, bob); err != nil {
			t.Fatal(err)
		}
		rep, err := driver.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.BlamedUsers) != 0 {
			t.Fatalf("round %d convicted %d users", rep.Round, len(rep.BlamedUsers))
		}
		return rep
	}
	bodies := func(round uint64) []string {
		t.Helper()
		return bodiesFor(t, front, round, bob)
	}
	received := func(round uint64) string {
		t.Helper()
		if b := bodies(round); len(b) > 0 {
			return b[0]
		}
		return ""
	}

	if rep := play("before"); received(rep.Round) != "before" {
		t.Fatal("round 1 did not deliver")
	}
	meeting, err := alice.MeetingChain()
	if err != nil {
		t.Fatal(err)
	}
	victim := alice.Chains()[0]
	if victim == meeting {
		victim = alice.Chains()[1]
	}
	if err := n.CorruptServer(victim, 1, &mix.Corruption{FalselyAccuse: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if rep := play("halt"); len(rep.HaltedChains) != 1 {
		t.Fatalf("round %d: the false accusation halted %v", rep.Round, rep.HaltedChains)
	}
	reform := play("re-form")
	if !reform.Reformed || reform.Epoch != 1 {
		t.Fatalf("round %d did not re-form: %+v", reform.Round, reform)
	}
	if !slices.Contains(reform.Stranded, string(alice.Mailbox())) {
		t.Fatalf("round %d dropped alice's submission without stranding her (%d stranded)", reform.Round, len(reform.Stranded))
	}
	// The body alice queued for the round that re-forms goes again in
	// the round after, once: her shard dropped her submission when it
	// adopted the new epoch, and the outcome Status serves for the
	// round names that epoch. The bodies queued after it follow, in
	// order.
	got := bodies(reform.Round)
	for _, body := range []string{"after", "later", ""} {
		got = append(got, bodies(play(body).Round)...)
	}
	if want := []string{"re-form", "after", "later"}; !slices.Equal(got, want) {
		t.Fatalf("rounds %d–%d delivered %q, want %q", reform.Round, reform.Round+3, got, want)
	}

	own := front.ClientFor(alice.Mailbox())
	rho := n.Round()
	for _, c := range alice.Chains() {
		got, err := own.ChainParams(c, rho)
		if err != nil {
			t.Fatalf("alice's gateway serves no parameters for chain %d: %v", c, err)
		}
		want, err := n.ChainParams(c, rho)
		if err != nil {
			t.Fatal(err)
		}
		if !got.InnerAggregate.Equal(want.InnerAggregate) || len(got.MixKeys) != len(want.MixKeys) {
			t.Fatalf("chain %d: alice's gateway serves other parameters than the coordinator's", c)
		}
		for i := range want.MixKeys {
			if !got.MixKeys[i].Equal(want.MixKeys[i]) {
				t.Fatalf("chain %d: mix key %d is not the new epoch's", c, i)
			}
		}
	}
}
