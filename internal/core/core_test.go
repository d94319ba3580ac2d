package core

import (
	"fmt"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/topology"
)

// fullFrontend is one full-range Frontend: the gateway shard of a
// single-process deployment.
func fullFrontend(t testing.TB, cfg FrontendConfig) *Frontend {
	t.Helper()
	fe, err := NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// testNetwork builds the single-process deployment: a coordinator
// over one full-range Frontend, which holds the users.
func testNetwork(t testing.TB, servers, k int) (*Network, *Frontend) {
	t.Helper()
	fe := fullFrontend(t, FrontendConfig{MailboxServers: 2})
	n, err := NewNetwork(Config{
		NumServers:          servers,
		ChainLengthOverride: k,
		Seed:                []byte("test-beacon"),
		Shards:              []GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, fe
}

// runRound executes a round and fails the test on orchestration
// errors.
func runRound(t testing.TB, n *Network) *RoundReport {
	t.Helper()
	rep, err := n.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIdleUsersReceiveAllLoopbacks(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	users := make([]*client.User, 5)
	for i := range users {
		users[i] = fe.NewUser()
	}
	rep := runRound(t, n)
	if len(rep.HaltedChains) != 0 || len(rep.BlamedUsers) != 0 {
		t.Fatalf("honest round misbehaved: %+v", rep)
	}
	l := n.Plan().L
	if want := 5 * l; rep.Delivered != want {
		t.Fatalf("delivered %d, want %d", rep.Delivered, want)
	}
	for i, u := range users {
		msgs := fe.Fetch(u, rep.Round)
		if len(msgs) != l {
			t.Fatalf("user %d got %d messages, want ℓ=%d", i, len(msgs), l)
		}
		recv, bad := u.OpenMailbox(rep.Round, msgs)
		if bad != 0 {
			t.Fatalf("user %d: %d undecryptable messages", i, bad)
		}
		for _, r := range recv {
			if r.Kind != onion.KindLoopback || r.FromPartner {
				t.Fatalf("idle user %d received non-loopback %+v", i, r)
			}
		}
	}
}

func TestConversationDeliversBodies(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	alice := fe.NewUser()
	bob := fe.NewUser()
	// A few bystanders so chains carry more than the pair.
	for i := 0; i < 4; i++ {
		fe.NewUser()
	}
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	if err := alice.QueueMessage([]byte("hi bob, meet at the crossroads")); err != nil {
		t.Fatal(err)
	}
	if err := bob.QueueMessage([]byte("hi alice")); err != nil {
		t.Fatal(err)
	}

	rep := runRound(t, n)
	gotAtBob := openAndFindPartnerBody(t, fe, bob, rep.Round)
	if string(gotAtBob) != "hi bob, meet at the crossroads" {
		t.Fatalf("bob received %q", gotAtBob)
	}
	gotAtAlice := openAndFindPartnerBody(t, fe, alice, rep.Round)
	if string(gotAtAlice) != "hi alice" {
		t.Fatalf("alice received %q", gotAtAlice)
	}
}

// openAndFindPartnerBody fetches and returns the single conversation
// body a user received in the round.
func openAndFindPartnerBody(t testing.TB, fe *Frontend, u *client.User, round uint64) []byte {
	t.Helper()
	recv, bad := u.OpenMailbox(round, fe.Fetch(u, round))
	if bad != 0 {
		t.Fatalf("%d undecryptable messages", bad)
	}
	var body []byte
	count := 0
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			body = r.Body
			count++
		}
	}
	if count != 1 {
		t.Fatalf("received %d conversation messages, want 1", count)
	}
	return body
}

// TestTrafficCountsIndistinguishable checks the observable invariant
// behind relationship unobservability (§4.1): every user sends and
// receives exactly ℓ messages per round whether or not she converses.
func TestTrafficCountsIndistinguishable(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	alice := fe.NewUser()
	bob := fe.NewUser()
	idle := fe.NewUser()
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())

	rep := runRound(t, n)
	l := n.Plan().L
	for name, u := range map[string]*client.User{"alice": alice, "bob": bob, "idle": idle} {
		if got := len(fe.Fetch(u, rep.Round)); got != l {
			t.Fatalf("%s received %d messages, want ℓ=%d", name, got, l)
		}
		if got := len(u.Chains()); got != l {
			t.Fatalf("%s sends %d messages, want ℓ=%d", name, got, l)
		}
	}
}

func TestMultipleRounds(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	alice := fe.NewUser()
	bob := fe.NewUser()
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	for r := 0; r < 3; r++ {
		msg := fmt.Sprintf("round-%d", r)
		if err := alice.QueueMessage([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		rep := runRound(t, n)
		got := openAndFindPartnerBody(t, fe, bob, rep.Round)
		if string(got) != msg {
			t.Fatalf("round %d: bob got %q", r, got)
		}
	}
	if n.Round() != 4 {
		t.Fatalf("round counter = %d, want 4", n.Round())
	}
}

// TestUserChurnCoverMessages: Alice goes offline; her pre-submitted
// covers run in her place and Bob receives the KindOffline signal,
// after which he reverts to loopbacks (§5.3.3).
func TestUserChurnCoverMessages(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	alice := fe.NewUser()
	bob := fe.NewUser()
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())

	// Round 1: both online; covers for round 2 are stored.
	runRound(t, n)
	recvBob, _ := bob.OpenMailbox(1, fe.Fetch(bob, 1))
	if len(recvBob) != n.Plan().L {
		t.Fatalf("bob got %d messages in round 1", len(recvBob))
	}

	// Round 2: Alice is offline; her covers are used.
	fe.SetOnline(alice, false)
	rep := runRound(t, n)
	if rep.OfflineCovered != 1 {
		t.Fatalf("OfflineCovered = %d, want 1", rep.OfflineCovered)
	}
	// Bob still receives a full mailbox: ℓ−1 loopbacks plus Alice's
	// cover conversation message signalling she left.
	msgs := fe.Fetch(bob, rep.Round)
	if len(msgs) != n.Plan().L {
		t.Fatalf("bob got %d messages in round 2, want ℓ=%d", len(msgs), n.Plan().L)
	}
	recv, bad := bob.OpenMailbox(rep.Round, msgs)
	if bad != 0 {
		t.Fatalf("%d undecryptable", bad)
	}
	sawOffline := false
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindOffline {
			sawOffline = true
		}
	}
	if !sawOffline {
		t.Fatal("bob did not receive the offline signal")
	}
	if bob.InConversation() {
		t.Fatal("bob did not end the conversation after the offline signal")
	}

	// Round 3: Alice still offline with no covers left; Bob sends
	// loopbacks only and receives ℓ of them.
	rep3 := runRound(t, n)
	if rep3.OfflineCovered != 0 {
		t.Fatalf("covers reused: %d", rep3.OfflineCovered)
	}
	recv3, bad3 := bob.OpenMailbox(rep3.Round, fe.Fetch(bob, rep3.Round))
	if bad3 != 0 || len(recv3) != n.Plan().L {
		t.Fatalf("round 3: bob got %d messages (%d bad)", len(recv3), bad3)
	}
	for _, r := range recv3 {
		if r.FromPartner {
			t.Fatal("bob received a partner message after conversation ended")
		}
	}
}

// TestServerChurnFailsOnlyAffectedChains (§5.2.3): chains without the
// crashed server keep delivering.
func TestServerChurnFailsOnlyAffectedChains(t *testing.T) {
	n, fe := testNetwork(t, 10, 3)
	users := make([]*client.User, 6)
	for i := range users {
		users[i] = fe.NewUser()
	}
	n.FailServer(0)
	rep := runRound(t, n)
	if len(rep.FailedChains) == 0 {
		t.Skip("server 0 happens to be in no chain for this seed")
	}
	failedSet := make(map[int]bool)
	for _, c := range rep.FailedChains {
		failedSet[c] = true
	}
	want := n.Topology().FailedChains(map[int]bool{0: true})
	if len(want) != len(rep.FailedChains) {
		t.Fatalf("failed chains %v, want %v", rep.FailedChains, want)
	}
	// Users still receive messages on their healthy chains.
	for i, u := range users {
		healthy := 0
		for _, c := range u.Chains() {
			if !failedSet[c] {
				healthy++
			}
		}
		if got := len(fe.Fetch(u, rep.Round)); got != healthy {
			t.Fatalf("user %d received %d, want %d healthy-chain messages", i, got, healthy)
		}
	}
	// Restoring brings the chains back next round.
	n.RestoreServer(0)
	rep2 := runRound(t, n)
	if len(rep2.FailedChains) != 0 {
		t.Fatalf("chains still failed after restore: %v", rep2.FailedChains)
	}
}

// TestActiveServerAttackHaltsChain: a tampering server halts its
// chain with no delivery and is blamed; other chains are unaffected
// (§6).
func TestActiveServerAttackHaltsChain(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	users := make([]*client.User, 6)
	for i := range users {
		users[i] = fe.NewUser()
	}
	// Pick a chain that at least two users send to: the
	// product-preserving tamper needs two messages to shift against
	// each other.
	badChain := -1
	counts := make(map[int]int)
	for _, u := range users {
		for _, c := range u.Chains() {
			counts[c]++
		}
	}
	for c := 0; c < n.NumChains(); c++ {
		if counts[c] >= 2 {
			badChain = c
			break
		}
	}
	if badChain < 0 {
		t.Fatal("no chain carries two users")
	}
	if err := n.CorruptServer(badChain, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	rep := runRound(t, n)
	if len(rep.HaltedChains) != 1 || rep.HaltedChains[0] != badChain {
		t.Fatalf("halted chains = %v, want [%d]", rep.HaltedChains, badChain)
	}
	if len(rep.BlamedServers) != 1 || rep.BlamedServers[0] != [2]int{badChain, 1} {
		t.Fatalf("blamed servers = %v", rep.BlamedServers)
	}
	if len(rep.BlamedUsers) != 0 {
		t.Fatalf("honest users blamed: %v", rep.BlamedUsers)
	}
	// Users connected to the halted chain lose exactly that message.
	for i, u := range users {
		expected := 0
		for _, c := range u.Chains() {
			if c != badChain {
				expected++
			}
		}
		if got := len(fe.Fetch(u, rep.Round)); got != expected {
			t.Fatalf("user %d received %d, want %d", i, got, expected)
		}
	}
}

// TestMaliciousUserRemovedNetworkWide: an injected misauthenticated
// submission is convicted, the round completes for honest users, and
// the report names the injection.
func TestMaliciousUserRemovedNetworkWide(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	users := make([]*client.User, 4)
	for i := range users {
		users[i] = fe.NewUser()
	}
	params, err := n.ChainParams(2, n.Round())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, n.Round(), client.LaneCurrent, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.InjectSubmission(2, bad)
	rep := runRound(t, n)
	if len(rep.HaltedChains) != 0 {
		t.Fatalf("halted: %v", rep.HaltedChains)
	}
	if len(rep.BlamedUsers) != 1 || rep.BlamedUsers[0] != "injected:2" {
		t.Fatalf("blamed users = %v", rep.BlamedUsers)
	}
	if rep.BlameRounds == 0 {
		t.Fatal("blame protocol did not run")
	}
	l := n.Plan().L
	if want := 4 * l; rep.Delivered != want {
		t.Fatalf("delivered %d, want %d", rep.Delivered, want)
	}
}

// TestRegisteredMaliciousUserIsRemoved: a registered user who also
// submits garbage is convicted and stops participating.
func TestRegisteredMaliciousUserIsRemoved(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	honest := fe.NewUser()
	mallory := fe.NewUser()
	// Mallory's real submissions are fine; she additionally injects
	// garbage attributed to her mailbox by submitting directly.
	params, err := n.ChainParams(1, n.Round())
	if err != nil {
		t.Fatal(err)
	}
	badSub, err := mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, n.Round(), client.LaneCurrent, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Attribute the garbage to mallory by registering it under her
	// key: inject, then mark her removed through the report path.
	n.InjectSubmission(1, badSub)
	rep := runRound(t, n)
	if len(rep.BlamedUsers) != 1 {
		t.Fatalf("blamed = %v", rep.BlamedUsers)
	}
	if fe.IsRemoved(honest) || fe.IsRemoved(mallory) {
		t.Fatal("registered users wrongly removed for injected garbage")
	}
	// Honest traffic was unaffected.
	recv, bad := honest.OpenMailbox(rep.Round, fe.Fetch(honest, rep.Round))
	if bad != 0 || len(recv) != n.Plan().L {
		t.Fatalf("honest user got %d messages (%d bad)", len(recv), bad)
	}
}

func TestSelfConversation(t *testing.T) {
	// The security game allows (X_i, Y_i) with X_i = Y_i: a user
	// "conversing with herself" must behave like any conversation.
	n, fe := testNetwork(t, 6, 3)
	alice := fe.NewUser()
	alice.StartConversation(alice.PublicKey())
	if err := alice.QueueMessage([]byte("note to self")); err != nil {
		t.Fatal(err)
	}
	rep := runRound(t, n)
	recv, bad := alice.OpenMailbox(rep.Round, fe.Fetch(alice, rep.Round))
	if bad != 0 {
		t.Fatalf("%d undecryptable", bad)
	}
	found := false
	for _, r := range recv {
		if r.FromPartner && string(r.Body) == "note to self" {
			found = true
		}
	}
	if !found {
		t.Fatal("self-conversation message not delivered")
	}
}

func TestNetworkConfigValidation(t *testing.T) {
	shards := []GatewayShard{fullFrontend(t, FrontendConfig{})}
	if _, err := NewNetwork(Config{NumServers: 0, Shards: shards}); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := NewNetwork(Config{NumServers: 5, F: 0.2, Shards: shards}); err == nil {
		t.Fatal("k > N accepted without override")
	}
	if _, err := NewNetwork(Config{NumServers: 4, ChainLengthOverride: 2}); err == nil {
		t.Fatal("a network without gateway shards accepted")
	}
}

// TestChainLengthDerivedFromF: without ChainLengthOverride, k is the
// anytrust bound's for Config.F (§5.2.1), the deployment's one other
// way to size chains.
func TestChainLengthDerivedFromF(t *testing.T) {
	const servers, f = 8, 0.001
	n, err := NewNetwork(Config{NumServers: servers, F: f, Seed: []byte("test-beacon"), Shards: []GatewayShard{fullFrontend(t, FrontendConfig{})}})
	if err != nil {
		t.Fatal(err)
	}
	want := topology.ChainLength(f, servers, topology.DefaultSecurityBits)
	if got := n.Topology().ChainLength; got != want || want < 2 {
		t.Fatalf("k = %d, want %d", got, want)
	}
}

// TestMailboxServersSizesTheCluster: FrontendConfig.MailboxServers
// sizes a shard's mailbox cluster (§5.1); zero means one server.
func TestMailboxServersSizesTheCluster(t *testing.T) {
	for _, tc := range []struct{ cfg, want int }{{0, 1}, {3, 3}} {
		if got := fullFrontend(t, FrontendConfig{MailboxServers: tc.cfg}).boxes.NumServers(); got != tc.want {
			t.Fatalf("MailboxServers %d: %d mailbox servers, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestChainParamsErrors(t *testing.T) {
	n, _ := testNetwork(t, 6, 3)
	if _, err := n.ChainParams(-1, 1); err == nil {
		t.Fatal("negative chain accepted")
	}
	if _, err := n.ChainParams(99, 1); err == nil {
		t.Fatal("out-of-range chain accepted")
	}
	if _, err := n.ChainParams(0, 99); err == nil {
		t.Fatal("unannounced round accepted")
	}
}

func BenchmarkNetworkRound(b *testing.B) {
	fe := fullFrontend(b, FrontendConfig{})
	n, err := NewNetwork(Config{
		NumServers:          10,
		ChainLengthOverride: 3,
		Seed:                []byte("bench"),
		Shards:              []GatewayShard{fe},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fe.NewUser()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTwoWorldsIndistinguishableCounts approximates the security game
// of Appendix B at the observable level: world A (alice and bob
// conversing) and world B (everyone idle) must produce identical
// per-user send and receive counts and identical wire sizes across
// several rounds, including one with churn. Content differs; nothing
// countable does.
func TestTwoWorldsIndistinguishableCounts(t *testing.T) {
	type world struct {
		n     *Network
		fe    *Frontend
		users []*client.User
	}
	build := func(converse bool) world {
		n, fe := testNetwork(t, 6, 3)
		w := world{n: n, fe: fe}
		for i := 0; i < 6; i++ {
			w.users = append(w.users, fe.NewUser())
		}
		if converse {
			if err := w.users[0].StartConversation(w.users[1].PublicKey()); err != nil {
				t.Fatal(err)
			}
			if err := w.users[1].StartConversation(w.users[0].PublicKey()); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	wa, wb := build(true), build(false)

	observe := func(w world, round uint64) (recvCounts []int, total int) {
		for _, u := range w.users {
			msgs := w.fe.Fetch(u, round)
			recvCounts = append(recvCounts, len(msgs))
			for _, m := range msgs {
				total += len(m)
			}
		}
		return recvCounts, total
	}
	for r := 0; r < 3; r++ {
		if r == 2 {
			// Same churn event in both worlds.
			wa.fe.SetOnline(wa.users[0], false)
			wb.fe.SetOnline(wb.users[0], false)
		}
		ra, err := wa.n.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := wb.n.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		if ra.Delivered != rb.Delivered {
			t.Fatalf("round %d: delivered %d vs %d across worlds", r, ra.Delivered, rb.Delivered)
		}
		ca, ta := observe(wa, ra.Round)
		cb, tb := observe(wb, rb.Round)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("round %d: user %d receives %d vs %d", r, i, ca[i], cb[i])
			}
		}
		if ta != tb {
			t.Fatalf("round %d: total mailbox bytes %d vs %d", r, ta, tb)
		}
	}
}
