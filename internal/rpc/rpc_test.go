package rpc

import (
	"slices"
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

// newDeployment starts the single-process deployment: a coordinator
// over one full-range Frontend, whose users the coordinator's endpoint
// serves.
func newDeployment(t testing.TB) (*core.Network, *Server) {
	t.Helper()
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("rpc-test"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(n, fe, "127.0.0.1:0")
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
	front := newFront(t, srv.listenerCore)

	aliceU, bobU := conversingPair(t, n)
	if err := aliceU.QueueMessage([]byte("over the wire")); err != nil {
		t.Fatal(err)
	}

	round, err := front.Play(aliceU, bobU)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := front.Clients()[0].RunRound()
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
	if got := bodiesFor(t, front, round, bobU); !slices.Equal(got, []string{"over the wire"}) {
		t.Fatalf("bob received %q", got)
	}
}

// newRemoteUser builds a user against the network's plan with the
// default AEAD (what a real remote client would construct locally).
func newRemoteUser(t testing.TB, n *core.Network) *client.User {
	t.Helper()
	return client.NewUser(nil, n.Plan())
}

// conversingPair draws two remote users of n's plan in conversation
// with each other.
func conversingPair(t testing.TB, n *core.Network) (*client.User, *client.User) {
	t.Helper()
	alice, bob := newRemoteUser(t, n), newRemoteUser(t, n)
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	return alice, bob
}

// newFront builds a MultiClient over the given endpoints and discovers
// their ranges.
func newFront(t testing.TB, endpoints ...*listenerCore) *MultiClient {
	t.Helper()
	var eps []Endpoint
	for _, lc := range endpoints {
		eps = append(eps, Endpoint{Addr: lc.Addr(), TLS: lc.ClientTLS()})
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

// bodiesFor returns the conversation bodies u received in round, read
// through Receive.
func bodiesFor(t testing.TB, front *MultiClient, round uint64, u *client.User) []string {
	t.Helper()
	recv, err := front.Receive(round, u)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			out = append(out, string(r.Body))
		}
	}
	return out
}

// TestRemoteUserChurn: a remote user submits covers, misses the next
// round, and her covers run in her place.
func TestRemoteUserChurn(t *testing.T) {
	n, srv := newDeployment(t)
	front := newFront(t, srv.listenerCore)
	driver := front.Clients()[0]

	u := newRemoteUser(t, n)
	if _, err := front.Play(u); err != nil {
		t.Fatal(err)
	}
	rep1, err := driver.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Delivered != n.Plan().L {
		t.Fatalf("round 1 delivered %d", rep1.Delivered)
	}
	// She misses round 2: her covers must run.
	rep2, err := driver.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OfflineCovered != 1 {
		t.Fatalf("OfflineCovered = %d, want 1", rep2.OfflineCovered)
	}
	if rep2.Delivered != n.Plan().L {
		t.Fatalf("round 2 delivered %d, want ℓ", rep2.Delivered)
	}
	msgs, err := driver.Fetch(rep2.Round, u.Mailbox())
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
	// A resubmission of the banked output is acked again — the retry
	// after a lost reply — and a different one for the round is refused.
	if err := conn.Submit(u.Mailbox(), out); err != nil {
		t.Fatal(err)
	}
	if err := conn.Submit(u.Mailbox(), out); err != nil {
		t.Fatalf("identical resubmission refused: %v", err)
	}
	other, err := u.BuildRound(n.Round(), conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Submit(u.Mailbox(), other); err == nil || !strings.Contains(err.Error(), "duplicate submission") {
		t.Fatalf("a different submission for the banked round: %v", err)
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

// TestSubmitRowChecked: the submit handler accepts a lane only as the
// sender's row, in order — one message to each of her ℓ chains — so a
// remote user cannot put more traffic on the wire than ℓ messages a
// round, nor choose her chains. Each refused submission leaves the
// round open to her well-formed one.
func TestSubmitRowChecked(t *testing.T) {
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
	if len(out.Current) < 2 {
		t.Fatalf("ℓ = %d: no row to reorder", len(out.Current))
	}
	swapped := slices.Clone(out.Current)
	swapped[0], swapped[len(swapped)-1] = swapped[len(swapped)-1], swapped[0]
	if swapped[0].Chain == out.Current[0].Chain {
		swapped[0].Chain = (swapped[0].Chain + 1) % n.NumChains()
	}
	for name, bad := range map[string]*client.RoundOutput{
		"twice ℓ messages":   {Round: out.Round, Current: append(slices.Clone(out.Current), out.Current...), Cover: out.Cover},
		"one message short":  {Round: out.Round, Current: out.Current[1:], Cover: out.Cover},
		"chains out of row":  {Round: out.Round, Current: swapped, Cover: out.Cover},
		"covers out of row":  {Round: out.Round, Current: out.Current, Cover: swapped},
		"another user's row": {Round: out.Round, Current: out.Current, Cover: out.Cover},
	} {
		mailbox := u.Mailbox()
		if name == "another user's row" {
			for other := newRemoteUser(t, n); ; other = newRemoteUser(t, n) {
				if !slices.Equal(other.Chains(), u.Chains()) {
					mailbox = other.Mailbox()
					break
				}
			}
		}
		if err := conn.Submit(mailbox, bad); err == nil || !strings.Contains(err.Error(), "not the sender's row") {
			t.Errorf("%s: %v, want the row refusal", name, err)
		}
	}
	if err := conn.Submit(u.Mailbox(), out); err != nil {
		t.Fatalf("her own row refused: %v", err)
	}
	rep, err := conn.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != len(out.Current) {
		t.Fatalf("round delivered %d, want her ℓ = %d", rep.Delivered, len(out.Current))
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
// requests from many connections; a full cohort of remote users, each
// on a client of her own, plays concurrently and one round delivers
// everything.
func TestManyConcurrentClients(t *testing.T) {
	n, srv := newDeployment(t)
	const cohort = 8
	users := make([]*client.User, cohort)
	errs := make(chan error, cohort)
	for i := 0; i < cohort; i++ {
		users[i] = newRemoteUser(t, n)
		front := newFront(t, srv.listenerCore)
		go func(u *client.User) {
			_, err := front.Play(u)
			errs <- err
		}(users[i])
	}
	for i := 0; i < cohort; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	front := newFront(t, srv.listenerCore)
	rep, err := front.Clients()[0].RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if want := cohort * n.Plan().L; rep.Delivered != want {
		t.Fatalf("delivered %d, want %d", rep.Delivered, want)
	}
	for i, u := range users {
		recv, err := front.Receive(rep.Round, u)
		if err != nil || len(recv) != n.Plan().L {
			t.Fatalf("user %d: %d messages (%v)", i, len(recv), err)
		}
	}
}

// TestParamsCacheBoundedByRound: a client that follows a deployment
// for many rounds keeps the newest round's parameters and the one
// before it, not every round it ever built against, and still answers
// the round it is building from memory.
func TestParamsCacheBoundedByRound(t *testing.T) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{NumServers: 8, ChainLengthOverride: 2, Seed: []byte("params-cache"), Shards: []core.GatewayShard{fe}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(n, fe, "127.0.0.1:0")
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
