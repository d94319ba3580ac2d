package rpc

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/onion"
)

func TestSelfSignedTLSPinning(t *testing.T) {
	s1, c1, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if s1 == nil || c1 == nil || c2 == nil {
		t.Fatal("nil configs")
	}
	if len(s1.Certificates) != 1 {
		t.Fatal("server config missing certificate")
	}
	// Configs from different generations must not share roots.
	if c1.RootCAs == c2.RootCAs {
		t.Fatal("root pools shared across generations")
	}
}

// newDeployment starts a gateway over a small in-process network.
func newDeployment(t testing.TB) (*core.Network, *Server) {
	t.Helper()
	n, err := core.NewNetwork(core.Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("rpc-test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(func() { srv.Close() })
	return n, srv
}

func TestStatusOverTLS(t *testing.T) {
	n, srv := newDeployment(t)
	c, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != n.Round() || st.NumChains != n.NumChains() || st.L != n.Plan().L {
		t.Fatalf("status %+v disagrees with network", st)
	}
}

// TestRemoteConversation runs a full two-user conversation where both
// users interact with the deployment exclusively over TLS: params,
// submit, trigger, fetch, decrypt.
func TestRemoteConversation(t *testing.T) {
	n, srv := newDeployment(t)

	dial := func() *Client {
		c, err := Dial(srv.Addr(), srv.ClientTLS())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	aliceConn, bobConn, driver := dial(), dial(), dial()

	aliceU := newRemoteUser(t, n)
	bobU := newRemoteUser(t, n)
	aliceU.StartConversation(bobU.PublicKey())
	bobU.StartConversation(aliceU.PublicKey())
	if err := aliceU.QueueMessage([]byte("over the wire")); err != nil {
		t.Fatal(err)
	}

	st, err := driver.Status()
	if err != nil {
		t.Fatal(err)
	}
	outA, err := aliceU.BuildRound(st.Round, aliceConn)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := bobU.BuildRound(st.Round, bobConn)
	if err != nil {
		t.Fatal(err)
	}
	if err := aliceConn.Submit(aliceU.Mailbox(), outA); err != nil {
		t.Fatal(err)
	}
	if err := bobConn.Submit(bobU.Mailbox(), outB); err != nil {
		t.Fatal(err)
	}

	rep, err := driver.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HaltedChains) != 0 || len(rep.BlamedUsers) != 0 {
		t.Fatalf("round misbehaved: %+v", rep)
	}
	l := n.Plan().L
	if rep.Delivered != 2*l {
		t.Fatalf("delivered %d, want %d", rep.Delivered, 2*l)
	}

	msgs, err := bobConn.Fetch(rep.Round, bobU.Mailbox())
	if err != nil {
		t.Fatal(err)
	}
	recv, bad := bobU.OpenMailbox(rep.Round, msgs)
	if bad != 0 {
		t.Fatalf("%d undecryptable", bad)
	}
	var got []byte
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			got = r.Body
		}
	}
	if string(got) != "over the wire" {
		t.Fatalf("bob received %q", got)
	}
}

// newRemoteUser builds a user against the network's plan with the
// default AEAD (what a real remote client would construct locally).
func newRemoteUser(t testing.TB, n *core.Network) *client.User {
	t.Helper()
	return client.NewUser(nil, n.Plan())
}

// TestRemoteUserChurn: a remote user submits covers, misses the next
// round, and her covers run in her place.
func TestRemoteUserChurn(t *testing.T) {
	n, srv := newDeployment(t)
	conn, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	u := newRemoteUser(t, n)
	out, err := u.BuildRound(n.Round(), conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Submit(u.Mailbox(), out); err != nil {
		t.Fatal(err)
	}
	rep1, err := conn.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Delivered != n.Plan().L {
		t.Fatalf("round 1 delivered %d", rep1.Delivered)
	}
	// She misses round 2: her covers must run.
	rep2, err := conn.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OfflineCovered != 1 {
		t.Fatalf("OfflineCovered = %d, want 1", rep2.OfflineCovered)
	}
	if rep2.Delivered != n.Plan().L {
		t.Fatalf("round 2 delivered %d, want ℓ", rep2.Delivered)
	}
	msgs, err := conn.Fetch(rep2.Round, u.Mailbox())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != n.Plan().L {
		t.Fatalf("mailbox has %d messages", len(msgs))
	}
}

func TestSubmitValidation(t *testing.T) {
	n, srv := newDeployment(t)
	conn, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	u := newRemoteUser(t, n)
	out, err := u.BuildRound(n.Round(), conn)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong round is rejected.
	stale := *out
	stale.Round = out.Round + 5
	if err := conn.Submit(u.Mailbox(), &stale); err == nil {
		t.Fatal("stale-round submission accepted")
	}
	// Duplicate submission is rejected.
	if err := conn.Submit(u.Mailbox(), out); err != nil {
		t.Fatal(err)
	}
	if err := conn.Submit(u.Mailbox(), out); err == nil {
		t.Fatal("duplicate submission accepted")
	}
	// A mailbox identifier that is not a compressed key is refused by
	// its length, at registration and at submission.
	short := []byte("sixteen-byte-id!")
	if _, err := conn.Register([][]byte{short}); err == nil || !strings.Contains(err.Error(), "is 16 bytes") {
		t.Fatalf("16-byte registration: %v", err)
	}
	if err := conn.Submit(short, out); err == nil || !strings.Contains(err.Error(), "is 16 bytes") {
		t.Fatalf("16-byte submission: %v", err)
	}
	// Corrupt wire key is rejected at parse time.
	req := SubmitRequest{Round: out.Round, Mailbox: []byte("eve"), Current: out.Current[:1]}
	var resp SubmitResponse
	err = conn.send("submit", forge(t, "submit", req, out.Current[0].Sub.DHKey.Bytes(), offCurve), &resp)
	if err == nil || !strings.Contains(err.Error(), "point") {
		t.Fatalf("off-curve key accepted: %v", err)
	}
}

// TestClientRedialsAfterConnFailure: a transport failure poisons the
// client's connection (its framing state is unknown), and the next
// call transparently dials a fresh one — so a gateway shedding an
// idle connection does not permanently wedge a long-lived client.
func TestClientRedialsAfterConnFailure(t *testing.T) {
	_, srv := newDeployment(t)
	conn, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Status(); err != nil {
		t.Fatal(err)
	}
	// Sever the underlying connection behind the client's back, as an
	// idle-timeout shed or network blip would.
	conn.link.mu.Lock()
	conn.free[0].conn.Close()
	conn.link.mu.Unlock()
	// The in-flight state is unrecoverable, so one call may fail...
	if _, err := conn.Status(); err == nil {
		// (a very fast shed notice can even make this first call
		// succeed on the redialed conn in theory; either way the next
		// one must work)
		return
	}
	// ...but the client must heal, not wedge.
	if _, err := conn.Status(); err != nil {
		t.Fatalf("client did not redial after connection failure: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, srv := newDeployment(t)
	conn, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out struct{}
	if err := conn.call("nonsense", struct{}{}, &out); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDialRejectsUntrustedServer(t *testing.T) {
	_, srv := newDeployment(t)
	// A client trusting a different certificate must refuse the
	// handshake — certificate pinning is the PKI stand-in.
	_, wrongTrust, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(srv.Addr(), wrongTrust); err == nil {
		t.Fatal("handshake with untrusted certificate succeeded")
	}
}

// TestManyConcurrentClients: the gateway must serve interleaved
// requests from many connections; a full cohort of remote users
// submits concurrently and one round delivers everything.
func TestManyConcurrentClients(t *testing.T) {
	n, srv := newDeployment(t)
	const cohort = 8
	users := make([]*client.User, cohort)
	errs := make(chan error, cohort)
	round := n.Round()
	for i := 0; i < cohort; i++ {
		users[i] = newRemoteUser(t, n)
		go func(u *client.User) {
			conn, err := Dial(srv.Addr(), srv.ClientTLS())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			out, err := u.BuildRound(round, conn)
			if err != nil {
				errs <- err
				return
			}
			errs <- conn.Submit(u.Mailbox(), out)
		}(users[i])
	}
	for i := 0; i < cohort; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	driver, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	rep, err := driver.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if want := cohort * n.Plan().L; rep.Delivered != want {
		t.Fatalf("delivered %d, want %d", rep.Delivered, want)
	}
	for i, u := range users {
		msgs, err := driver.Fetch(rep.Round, u.Mailbox())
		if err != nil {
			t.Fatal(err)
		}
		recv, bad := u.OpenMailbox(rep.Round, msgs)
		if bad != 0 || len(recv) != n.Plan().L {
			t.Fatalf("user %d: %d messages (%d bad)", i, len(recv), bad)
		}
	}
}

// TestParamsCacheBoundedByRound: a client that follows a deployment
// for many rounds keeps the newest round's parameters and the one
// before it, not every round it ever built against, and still answers
// the round it is building from memory.
func TestParamsCacheBoundedByRound(t *testing.T) {
	n, err := core.NewNetwork(core.Config{NumServers: 8, ChainLengthOverride: 2, Seed: []byte("params-cache")})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	defer srv.Close()
	c, err := Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fetchBuildRounds := func() {
		t.Helper()
		for _, round := range []uint64{n.Round(), n.Round() + 1} { // what one BuildRound asks for
			for chain := 0; chain < n.NumChains(); chain++ {
				if _, err := c.ChainParams(chain, round); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 50; i++ {
		fetchBuildRounds()
		if _, err := n.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	fetchBuildRounds()

	rounds := make(map[uint64]bool)
	c.paramsMu.Lock()
	for k := range c.paramsCache {
		rounds[k[1]] = true
	}
	c.paramsMu.Unlock()
	if len(rounds) > 3 {
		t.Fatalf("%d rounds resident after 50 rounds, want at most 3", len(rounds))
	}
	srv.Close() // from here on only memory can answer
	for chain := 0; chain < n.NumChains(); chain++ {
		p, err := c.ChainParams(chain, n.Round())
		if err != nil {
			t.Fatalf("current round's chain %d not served from memory: %v", chain, err)
		}
		if want, _ := n.ChainParams(chain, n.Round()); !p.InnerAggregate.Equal(want.InnerAggregate) {
			t.Fatalf("chain %d: cached parameters are not the current round's", chain)
		}
	}
	// A straggling request for a long-gone round is answered (here:
	// refused by the closed gateway) without displacing anything.
	if _, err := c.ChainParams(0, 1); err == nil {
		t.Fatal("round 1 should no longer be resident")
	}
}
