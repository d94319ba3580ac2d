package client_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/aead"
	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/rpc"
)

// testNet is a coordinator over one full-range Frontend, which holds
// the users.
func testNet(t testing.TB) (*core.Network, *core.Frontend) {
	t.Helper()
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          6,
		ChainLengthOverride: 3,
		Seed:                []byte("client-test-beacon"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, fe
}

func TestBuildRoundShape(t *testing.T) {
	n, fe := testNet(t)
	u := fe.NewUser()
	out, err := u.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	l := n.Plan().L
	if len(out.Current) != l {
		t.Fatalf("current lane has %d messages, want ℓ=%d", len(out.Current), l)
	}
	if len(out.Cover) != l {
		t.Fatalf("cover lane has %d messages, want ℓ=%d", len(out.Cover), l)
	}
	// The lanes must not share an array: covers are banked for a round,
	// and would pin the current lane's onions with them.
	if cap(out.Current) != l || cap(out.Cover) != l {
		t.Fatalf("lane capacities %d and %d, want ℓ=%d each", cap(out.Current), cap(out.Cover), l)
	}
	// Messages go exactly to the user's selected chains, in order.
	chains := u.Chains()
	for i, cm := range out.Current {
		if cm.Chain != chains[i] {
			t.Fatalf("current[%d] goes to chain %d, want %d", i, cm.Chain, chains[i])
		}
	}
	// Every submission carries a valid PoK for its chain and round.
	for _, cm := range out.Current {
		if err := onion.VerifySubmission(cm.Sub, out.Round, cm.Chain); err != nil {
			t.Fatalf("current submission proof: %v", err)
		}
	}
	for _, cm := range out.Cover {
		if err := onion.VerifySubmission(cm.Sub, out.Round+1, cm.Chain); err != nil {
			t.Fatalf("cover submission proof: %v", err)
		}
	}
}

func TestBuildRoundFixedSizeSubmissions(t *testing.T) {
	n, fe := testNet(t)
	u := fe.NewUser()
	v := fe.NewUser()
	if err := u.StartConversation(v.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := u.QueueMessage([]byte("some body")); err != nil {
		t.Fatal(err)
	}
	out, err := u.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	outIdle, err := v.BuildRound(n.Round(), n)
	if err != nil {
		t.Fatal(err)
	}
	// Conversing and idle users' submissions must be byte-identical
	// in size: this is the wire-level indistinguishability privacy
	// rests on.
	size := len(out.Current[0].Sub.Ct)
	for _, cm := range append(out.Current, outIdle.Current...) {
		if len(cm.Sub.Ct) != size {
			t.Fatalf("ciphertext size %d differs from %d", len(cm.Sub.Ct), size)
		}
	}
}

func TestQueueMessageValidation(t *testing.T) {
	_, fe := testNet(t)
	u := fe.NewUser()
	if err := u.QueueMessage([]byte("x")); err == nil {
		t.Fatal("QueueMessage succeeded without a conversation")
	}
	v := fe.NewUser()
	if err := u.StartConversation(v.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := u.QueueMessage(make([]byte, onion.BodySize+1)); err == nil {
		t.Fatal("oversized body accepted")
	}
	if err := u.QueueMessage(make([]byte, onion.BodySize)); err != nil {
		t.Fatalf("max-size body rejected: %v", err)
	}
}

func TestMeetingChainAgreement(t *testing.T) {
	_, fe := testNet(t)
	a := fe.NewUser()
	b := fe.NewUser()
	if err := a.StartConversation(b.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := b.StartConversation(a.PublicKey()); err != nil {
		t.Fatal(err)
	}
	ca, err := a.MeetingChain()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.MeetingChain()
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("meeting chains disagree: %d vs %d", ca, cb)
	}
	if _, err := fe.NewUser().MeetingChain(); err == nil {
		t.Fatal("MeetingChain without conversation succeeded")
	}
}

func TestEndConversationRevertsToLoopbacks(t *testing.T) {
	_, fe := testNet(t)
	a := fe.NewUser()
	b := fe.NewUser()
	if err := a.StartConversation(b.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if !a.InConversation() {
		t.Fatal("not in conversation after start")
	}
	a.EndConversation(b.PublicKey())
	if a.InConversation() {
		t.Fatal("still in conversation after end")
	}
	if err := a.QueueMessage([]byte("x")); err == nil {
		t.Fatal("queueing after end succeeded")
	}
}

func TestOpenMailboxIgnoresGarbage(t *testing.T) {
	_, fe := testNet(t)
	u := fe.NewUser()
	garbage := make([]byte, onion.MailboxMessageSize)
	recv, bad := u.OpenMailbox(1, [][]byte{garbage, []byte("short")})
	if len(recv) != 0 || bad != 2 {
		t.Fatalf("recv=%d bad=%d, want 0/2", len(recv), bad)
	}
}

func TestOpenMailboxCrossUserIsolation(t *testing.T) {
	// A message sealed for one user must not decrypt for another.
	n, fe := testNet(t)
	a := fe.NewUser()
	b := fe.NewUser()
	if err := a.StartConversation(b.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := b.StartConversation(a.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := a.QueueMessage([]byte("for bob only")); err != nil {
		t.Fatal(err)
	}
	rep, err := n.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	bobMsgs := fe.Fetch(b, rep.Round)
	eve := fe.NewUser()
	recv, bad := eve.OpenMailbox(rep.Round, bobMsgs)
	if len(recv) != 0 || bad != len(bobMsgs) {
		t.Fatalf("eve decrypted %d of bob's messages", len(recv))
	}
}

func TestDistinctUsersDistinctKeys(t *testing.T) {
	_, fe := testNet(t)
	a := fe.NewUser()
	b := fe.NewUser()
	if a.PublicKey().Equal(b.PublicKey()) {
		t.Fatal("two users share a public key")
	}
	if bytes.Equal(a.Mailbox(), b.Mailbox()) {
		t.Fatal("two users share a mailbox")
	}
	if len(a.Mailbox()) != group.PointSize {
		t.Fatalf("mailbox id length %d", len(a.Mailbox()))
	}
}

func TestCoverLaneNonceSeparation(t *testing.T) {
	// The cover conversation message for round ρ+1 and a fresh round
	// ρ+1 conversation message use the same directional key; the lane
	// byte must keep their nonces distinct. We check the two seal
	// nonces differ.
	n1 := aead.RoundNonce(5, client.LaneCurrent)
	n2 := aead.RoundNonce(5, client.LaneCover)
	if n1 == n2 {
		t.Fatal("lane nonces collide")
	}
}

func BenchmarkBuildRound(b *testing.B) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		b.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          100,
		ChainLengthOverride: 32,
		Seed:                []byte("bench"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		b.Fatal(err)
	}
	u := fe.NewUser()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.BuildRound(n.Round(), n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUserBookkeepingBytes pins what conversing costs a client between
// rounds: 1000 users in pairs queue a body for their partner and build
// a round, three times, and the heap they hold afterwards — queued and
// drained bodies, the records that can restore them — is measured per
// user with the builds' outputs dropped. It read 1 520–1 565 B while
// the queue was a map keyed by the partner's key and each round's
// drained bodies a map of their own, and reads 145–190 B as a queue on
// the partner's record and a slice of drain records.
func TestUserBookkeepingBytes(t *testing.T) {
	const n, parent = 1000, 1540
	plan, err := chainsel.NewPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	src := innerOnly{isk: group.MustRandomScalar()}
	users := make([]*client.User, n)
	for i := range users {
		users[i] = client.NewUser(nil, plan)
	}
	for i := 0; i < n; i += 2 {
		a, b := users[i], users[i+1]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for rho := uint64(1); rho <= 3; rho++ {
		for _, u := range users {
			if err := u.QueueMessage([]byte{byte(rho)}); err != nil {
				t.Fatal(err)
			}
			if _, err := u.BuildRound(rho, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(users)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B of bookkeeping per conversing user", per)
	if per > 0.6*parent {
		t.Fatalf("a conversing user holds %.1f B of bookkeeping, want ≤ %.0f", per, 0.6*parent)
	}
}

// findDistinctTriple draws users until the three pairwise meeting
// chains are distinct (the §9 group precondition).
func findDistinctTriple(t *testing.T, n *core.Network, fe *core.Frontend) (a, b, c *client.User) {
	t.Helper()
	plan := n.Plan()
	for attempt := 0; attempt < 300; attempt++ {
		a, b, c = fe.NewUser(), fe.NewUser(), fe.NewUser()
		ab := plan.MeetingChainForUsers(a.Mailbox(), b.Mailbox())
		ac := plan.MeetingChainForUsers(a.Mailbox(), c.Mailbox())
		bc := plan.MeetingChainForUsers(b.Mailbox(), c.Mailbox())
		if ab != ac && ab != bc && ac != bc {
			return a, b, c
		}
	}
	t.Skip("no clash-free triple found for this topology")
	return nil, nil, nil
}

// TestGroupConversation exercises §9: three users, three pairwise
// conversations on distinct chains, every body delivered, and the
// wire pattern still exactly ℓ messages per user.
func TestGroupConversation(t *testing.T) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          21,
		ChainLengthOverride: 3,
		Seed:                []byte("group-test"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := findDistinctTriple(t, n, fe)
	group := []*client.User{a, b, c}
	for _, u := range group {
		for _, v := range group {
			if u != v {
				if err := u.StartConversation(v.PublicKey()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(u.Partners()) != 2 {
			t.Fatalf("partners = %d, want 2", len(u.Partners()))
		}
	}
	for i, u := range group {
		for _, p := range u.Partners() {
			if err := u.QueueMessageFor(p, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := n.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	l := n.Plan().L
	for i, u := range group {
		msgs := fe.Fetch(u, rep.Round)
		if len(msgs) != l {
			t.Fatalf("user %d received %d messages, want ℓ=%d", i, len(msgs), l)
		}
		recv, bad := u.OpenMailbox(rep.Round, msgs)
		if bad != 0 {
			t.Fatalf("user %d: %d undecryptable", i, bad)
		}
		fromPartners := 0
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation {
				fromPartners++
			}
		}
		if fromPartners != 2 {
			t.Fatalf("user %d received %d partner messages, want 2", i, fromPartners)
		}
	}
}

// TestChainClashRejected: a second partner on an occupied meeting
// chain must be rejected atomically.
func TestChainClashRejected(t *testing.T) {
	n, fe := testNet(t) // 6 chains: clashes are common
	plan := n.Plan()
	u := fe.NewUser()
	// Find two other users whose meeting chains with u collide.
	var v, w *client.User
	for attempt := 0; attempt < 500 && w == nil; attempt++ {
		x := fe.NewUser()
		if v == nil {
			v = x
			continue
		}
		if plan.MeetingChainForUsers(u.Mailbox(), x.Mailbox()) ==
			plan.MeetingChainForUsers(u.Mailbox(), v.Mailbox()) {
			w = x
		}
	}
	if w == nil {
		t.Skip("no clash found")
	}
	if err := u.StartConversation(v.PublicKey()); err != nil {
		t.Fatal(err)
	}
	err := u.StartConversation(w.PublicKey())
	if err == nil {
		t.Fatal("clashing conversation accepted")
	}
	if len(u.Partners()) != 1 {
		t.Fatalf("partners = %d after rejected start", len(u.Partners()))
	}
	// Atomic batch: the whole StartConversations must fail.
	u2 := fe.NewUser()
	if err := u2.StartConversations([]group.Point{v.PublicKey(), w.PublicKey()}); err != nil {
		// Clash relative to u2 may or may not exist; only verify
		// atomicity when it does.
		if len(u2.Partners()) != 0 {
			t.Fatal("partial application after failed StartConversations")
		}
	}
}

// TestEndOneOfSeveralConversations: ending one conversation leaves
// the others running.
func TestEndOneOfSeveralConversations(t *testing.T) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          21,
		ChainLengthOverride: 3,
		Seed:                []byte("end-one"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := findDistinctTriple(t, n, fe)
	if err := a.StartConversations([]group.Point{b.PublicKey(), c.PublicKey()}); err != nil {
		t.Fatal(err)
	}
	a.EndConversation(b.PublicKey())
	if len(a.Partners()) != 1 || !a.Partners()[0].Equal(c.PublicKey()) {
		t.Fatalf("partners after ending one: %v", a.Partners())
	}
	if err := a.QueueMessageFor(b.PublicKey(), []byte("x")); err == nil {
		t.Fatal("queueing for an ended partner succeeded")
	}
	if err := a.QueueMessageFor(c.PublicKey(), []byte("x")); err != nil {
		t.Fatalf("queueing for the remaining partner failed: %v", err)
	}
}

// TestQueueMessageAmbiguousWithSeveralPartners: the single-partner
// convenience must refuse when the target is ambiguous.
func TestQueueMessageAmbiguousWithSeveralPartners(t *testing.T) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          21,
		ChainLengthOverride: 3,
		Seed:                []byte("ambiguous"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := findDistinctTriple(t, n, fe)
	if err := a.StartConversations([]group.Point{b.PublicKey(), c.PublicKey()}); err != nil {
		t.Fatal(err)
	}
	if err := a.QueueMessage([]byte("for whom?")); err == nil {
		t.Fatal("ambiguous QueueMessage accepted")
	}
}

// innerOnly is a ParamsSource for chains with no mix servers: an
// onion built against it is just the inner envelope, which the test
// opens with the one inner secret it holds.
type innerOnly struct{ isk group.Scalar }

func (s innerOnly) ChainParams(chain int, round uint64) (mix.Params, error) {
	return mix.Params{ChainID: chain, Round: round, InnerAggregate: group.Base(s.isk)}, nil
}

// TestPartnerSecretSurvivesRebalance: the static exchange with a
// partner is made once, when she is added. It must keep working in
// both directions while Rebalance moves her between chains, drops her
// to the former partners on a clash (her stragglers still open), and
// when she is added again afterwards.
func TestPartnerSecretSurvivesRebalance(t *testing.T) {
	wide, err := chainsel.NewPlan(21)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := chainsel.NewPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	scheme := aead.ChaCha20Poly1305()
	a := client.NewUser(scheme, wide)
	// Two partners (bare key pairs: the test plays their side) who meet
	// a on distinct chains of the wide plan and on one chain of the
	// narrow one.
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

	const rho = 9
	// inbound is what partner kp would deliver to a's mailbox.
	inbound := func(kp group.KeyPair, body string) []byte {
		t.Helper()
		key := kdf.ConversationKey(group.DH(a.PublicKey(), kp.Private), a.Mailbox())
		msg, err := onion.SealMailboxMessage(scheme, key, aead.RoundNonce(rho, client.LaneCurrent), a.PublicKey(),
			onion.Payload{Kind: onion.KindConversation, Body: []byte(body)})
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	// open returns how a classifies a message from kp.
	open := func(kp group.KeyPair) client.Received {
		t.Helper()
		recv, bad := a.OpenMailbox(rho, [][]byte{inbound(kp, "hi")})
		if bad != 0 || len(recv) != 1 || string(recv[0].Body) != "hi" || !recv[0].From.Equal(kp.Public) {
			t.Fatalf("message from a partner did not open: %+v (%d undecryptable)", recv, bad)
		}
		return recv[0]
	}
	// outbound reports whether a's next build carries body to kp.
	src := innerOnly{isk: group.MustRandomScalar()}
	outbound := func(kp group.KeyPair, body string) bool {
		t.Helper()
		out, err := a.BuildRound(rho, src)
		if err != nil {
			t.Fatal(err)
		}
		key := kdf.ConversationKey(group.DH(a.PublicKey(), kp.Private), kp.Public.Bytes())
		nonce := aead.RoundNonce(rho, client.LaneCurrent)
		for _, cm := range out.Current {
			msg, err := onion.OpenInner(scheme, src.isk, nonce, cm.Sub.Ct)
			if err != nil {
				t.Fatal(err)
			}
			if p, err := onion.OpenMailboxMessage(scheme, key, nonce, msg); err == nil && string(p.Body) == body {
				return true
			}
		}
		return false
	}

	if !open(b).FromPartner || !open(c).FromPartner {
		t.Fatal("active partners' messages must open as such")
	}
	dropped := a.Rebalance(narrow, 1)
	if len(dropped) != 1 {
		t.Fatalf("Rebalance dropped %d partners, want 1", len(dropped))
	}
	gone, kept := b, c
	if dropped[0].Equal(c.Public) {
		gone, kept = c, b
	}
	if !open(kept).FromPartner {
		t.Fatal("the surviving partner moved chains and lost her key")
	}
	if !open(gone).FromFormerPartner {
		t.Fatal("a dropped partner's straggler must open against the retained secret")
	}
	if err := a.QueueMessageFor(kept.Public, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if !outbound(kept, "still here") {
		t.Fatal("message to the surviving partner was not sealed under the shared secret")
	}

	// Back on the wide plan the dropped partner fits again.
	if d := a.Rebalance(wide, 2); len(d) != 0 {
		t.Fatalf("Rebalance to the wide plan dropped %d partners", len(d))
	}
	if err := a.StartConversation(gone.Public); err != nil {
		t.Fatal(err)
	}
	if !open(gone).FromPartner || !open(kept).FromPartner {
		t.Fatal("re-added partner's messages must open as an active partner's")
	}
	if err := a.QueueMessageFor(gone.Public, []byte("welcome back")); err != nil {
		t.Fatal(err)
	}
	if !outbound(gone, "welcome back") {
		t.Fatal("message to the re-added partner was not sealed under the shared secret")
	}
}

// epochChains is a ParamsSource over real in-process chains that
// serves rounds up to split from one set and later rounds from
// another — what a user building round split's messages and round
// split+1's covers sees when the chains re-form between the two.
type epochChains struct {
	split        uint64
	before, from []*mix.Chain
}

func (e epochChains) chain(chain int, round uint64) *mix.Chain {
	if round > e.split {
		return e.from[chain]
	}
	return e.before[chain]
}

func (e epochChains) ChainParams(chain int, round uint64) (mix.Params, error) {
	return e.chain(chain, round).ParamsFor(round)
}

// TestBatchedBuildRoundThroughRealChains: BuildRound wraps both lanes'
// onions in one batch, so every onion of it must still be the onion
// its own chain and round expect. Two conversing users' builds are
// mixed by real three-server chains — the current lane in round ρ, the
// cover lane in round ρ+1 as if both had gone offline — and every
// delivered message must open: the queued body and the offline signals
// between the partners, loopbacks otherwise. "split" re-keys the chains
// between the two rounds, so one batch carries two epochs' mix keys.
func TestBatchedBuildRoundThroughRealChains(t *testing.T) {
	const rho, numChains, k = 5, 3, 3
	scheme := aead.ChaCha20Poly1305()
	plan, err := chainsel.NewPlan(numChains)
	if err != nil {
		t.Fatal(err)
	}
	newChains := func(rounds ...uint64) []*mix.Chain {
		chains := make([]*mix.Chain, numChains)
		for id := range chains {
			c, err := mix.NewChain(id, k, scheme)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rounds {
				if err := c.BeginRound(r); err != nil {
					t.Fatal(err)
				}
			}
			chains[id] = c
		}
		return chains
	}
	for _, tc := range []struct {
		name string
		src  func() epochChains
	}{
		{"one epoch", func() epochChains {
			c := newChains(rho, rho+1)
			return epochChains{split: rho, before: c, from: c}
		}},
		{"split", func() epochChains {
			return epochChains{split: rho, before: newChains(rho), from: newChains(rho + 1)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src()
			a, b := client.NewUser(scheme, plan), client.NewUser(scheme, plan)
			if err := a.StartConversation(b.PublicKey()); err != nil {
				t.Fatal(err)
			}
			if err := b.StartConversation(a.PublicKey()); err != nil {
				t.Fatal(err)
			}
			if err := a.QueueMessage([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			outA, err := a.BuildRound(rho, src)
			if err != nil {
				t.Fatal(err)
			}
			outB, err := b.BuildRound(rho, src)
			if err != nil {
				t.Fatal(err)
			}
			// deliver mixes one lane of both builds through the round's
			// chains and hands each user her mailbox.
			deliver := func(round uint64, lanes ...[]client.ChainMessage) (toA, toB []client.Received) {
				t.Helper()
				perChain := make([][]onion.Submission, numChains)
				for _, lane := range lanes {
					if len(lane) != plan.L {
						t.Fatalf("lane holds %d messages, want ℓ = %d", len(lane), plan.L)
					}
					for _, cm := range lane {
						perChain[cm.Chain] = append(perChain[cm.Chain], cm.Sub)
					}
				}
				boxes := map[string][][]byte{}
				for id, subs := range perChain {
					res, err := src.chain(id, round).RunRound(round, client.LaneCurrent, subs)
					if err != nil {
						t.Fatal(err)
					}
					if res.Halted || len(res.BlamedUsers) != 0 || res.DroppedInner != 0 || len(res.Delivered) != len(subs) {
						t.Fatalf("chain %d round %d: %d of %d delivered, halted=%v blamed=%v dropped=%d",
							id, round, len(res.Delivered), len(subs), res.Halted, res.BlamedUsers, res.DroppedInner)
					}
					for _, m := range res.Delivered {
						to, err := onion.Recipient(m)
						if err != nil {
							t.Fatal(err)
						}
						boxes[string(to)] = append(boxes[string(to)], m)
					}
				}
				var bad int
				if toA, bad = a.OpenMailbox(round, boxes[string(a.Mailbox())]); bad != 0 || len(toA) != plan.L {
					t.Fatalf("round %d: a opened %d of ℓ = %d (%d undecryptable)", round, len(toA), plan.L, bad)
				}
				if toB, bad = b.OpenMailbox(round, boxes[string(b.Mailbox())]); bad != 0 || len(toB) != plan.L {
					t.Fatalf("round %d: b opened %d of ℓ = %d (%d undecryptable)", round, len(toB), plan.L, bad)
				}
				return toA, toB
			}
			fromPartner := func(recv []client.Received) (got []client.Received) {
				for _, r := range recv {
					if r.FromPartner {
						got = append(got, r)
					} else if r.Kind != onion.KindLoopback {
						t.Fatalf("a message not from the partner is %v, want a loopback", r.Kind)
					}
				}
				return got
			}

			toA, toB := deliver(rho, outA.Current, outB.Current)
			if got := fromPartner(toB); len(got) != 1 || got[0].Kind != onion.KindConversation || string(got[0].Body) != "hello" {
				t.Fatalf("b's mailbox from a: %+v, want the queued body", got)
			}
			if got := fromPartner(toA); len(got) != 1 || got[0].Kind != onion.KindConversation || len(got[0].Body) != 0 {
				t.Fatalf("a's mailbox from b: %+v, want one empty conversation message", got)
			}
			toA, toB = deliver(rho+1, outA.Cover, outB.Cover)
			for name, recv := range map[string][]client.Received{"a": toA, "b": toB} {
				if got := fromPartner(recv); len(got) != 1 || got[0].Kind != onion.KindOffline {
					t.Fatalf("%s's round-ρ+1 mailbox from the partner: %+v, want the offline signal", name, got)
				}
			}
		})
	}
}

// BenchmarkBuildRoundRemote is BenchmarkBuildRound for a lone remote
// client: one user building successive rounds through rpc.Client's
// parameter cache against a live deployment, with a fresh inner
// aggregate per round. It is the case with the fewest uses per
// fixed-key table — every mix-key table twice a round, every
// aggregate's twice in its life — so it is where a table that cost
// more to build than it saved would show.
func BenchmarkBuildRoundRemote(b *testing.B) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		b.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          8,
		ChainLengthOverride: 6,
		Seed:                []byte("bench-remote"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := rpc.NewServer(n, fe, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	defer srv.Close()
	conn, err := rpc.Dial(srv.Addr(), srv.ClientTLS())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	u := client.NewUser(nil, n.Plan())
	// One warm-up round: steady state is what a long-lived client sees.
	if _, err := u.BuildRound(n.Round(), conn); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := n.RunRound(); err != nil { // next round: new aggregates
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := u.BuildRound(n.Round(), conn); err != nil {
			b.Fatal(err)
		}
	}
}
