package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/aead"
	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
)

// TestDedupFetched: a message fetched again within dedupWindow rounds
// is suppressed, one whose digest is older than the window comes back,
// and the set holds no digest past the window.
func TestDedupFetched(t *testing.T) {
	m := &MultiClient{seen: make(map[uint64]map[fetchDigest]struct{})}
	a, b := []byte("a"), []byte("b")
	steps := []struct {
		round uint64
		msgs  [][]byte
		want  int
	}{
		{1, [][]byte{a, b}, 2},
		{1, [][]byte{a}, 0},
		{2, [][]byte{b}, 0},
		{dedupWindow, [][]byte{a, b}, 0},
		{1 + dedupWindow, [][]byte{a}, 0}, // suppressed, then round 1's digests go
		{1 + dedupWindow, [][]byte{a, b}, 2},
		{1 + dedupWindow, [][]byte{a, b}, 0},
	}
	for i, s := range steps {
		if got := m.dedupFetched(s.round, s.msgs); len(got) != s.want {
			t.Fatalf("step %d (round %d): %d messages returned, want %d", i, s.round, len(got), s.want)
		}
	}
	m.dedupFetched(2*dedupWindow+1, [][]byte{[]byte("c")})
	if len(m.seen) != 1 {
		t.Fatalf("%d digests held after the window passed, want 1", len(m.seen))
	}
}

// BenchmarkDedupFetched is one fetch of ℓ = 2 already-seen messages by
// a client holding a full window: dedupWindow rounds of perRound
// digests each, filled round by round as fetches fill it. ≈ 6 000 a
// round is what one MultiClient of the wire-durable workload records,
// so its full window is held = dedupWindow × 6 000 ≈ 48 000. Its ns/op
// should not grow with held.
func BenchmarkDedupFetched(b *testing.B) {
	for _, perRound := range []int{125, 6_000} {
		held := dedupWindow * perRound
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			const round = 10
			m := &MultiClient{seen: make(map[uint64]map[fetchDigest]struct{})}
			msg := func(i int) []byte {
				buf := make([]byte, onion.MailboxMessageSize)
				binary.LittleEndian.PutUint64(buf, uint64(i))
				return buf
			}
			for w := 0; w < dedupWindow; w++ {
				batch := make([][]byte, perRound)
				for j := range batch {
					batch[j] = msg(w*perRound + j)
				}
				m.dedupFetched(round-dedupWindow+1+uint64(w), batch)
			}
			total := 0
			for _, set := range m.seen {
				total += len(set)
			}
			if len(m.seen) != dedupWindow || total != held {
				b.Fatalf("%d rounds holding %d digests, want %d holding %d", len(m.seen), total, dedupWindow, held)
			}
			msgs := [][]byte{msg(0), msg(1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := m.dedupFetched(round, msgs); len(got) != 0 {
					b.Fatalf("%d already-seen messages returned", len(got))
				}
			}
		})
	}
}

// playRounds plays and runs rounds rounds of alice and bob and returns
// the bodies bob received, leaving out the empty one a round with
// nothing queued carries.
func playRounds(t testing.TB, front *MultiClient, n *core.Network, rounds int, alice, bob *client.User) []string {
	t.Helper()
	var got []string
	for range rounds {
		rho, err := front.Play(alice, bob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.RunRound(); err != nil {
			t.Fatal(err)
		}
		for _, b := range bodiesFor(t, front, rho, bob) {
			if b != "" {
				got = append(got, b)
			}
		}
	}
	return got
}

// heldHop is a position whose first Mix, of all the positions sharing
// once, signals mixing and waits for release: the round stays in its
// mixing phase until then.
type heldHop struct {
	mix.Hop
	once            *sync.Once
	mixing, release chan struct{}
}

func (h heldHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*mix.MixResult, error) {
	h.once.Do(func() { close(h.mixing); <-h.release })
	return h.Hop.Mix(round, nonce, in)
}

// TestRefusedSubmissionSendsAgain: alice plays while round ρ is
// mixing, so the gateway refuses her submission for it, and Play puts
// the body her build drained back in her queue. Round ρ's outcome shows
// every chain delivered, so nothing but that withdrawal sends the body
// again: the next rounds deliver it to bob exactly once.
func TestRefusedSubmissionSendsAgain(t *testing.T) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	mixing, release := make(chan struct{}), make(chan struct{})
	n, err := core.NewNetwork(core.Config{
		NumServers:          3,
		NumChains:           1,
		ChainLengthOverride: 3,
		Seed:                []byte("refused-submission"),
		Shards:              []core.GatewayShard{fe},
		HopForServer: func(_ uint64, _, chain, pos int, base group.Point) (mix.Hop, error) {
			h := mix.LocalHop(mix.NewChainServer(chain, pos, base, nil))
			return heldHop{Hop: h, once: &once, mixing: mixing, release: release}, nil
		},
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
	front := newFront(t, srv.listenerCore)
	alice, bob := conversingPair(t, n)
	if err := alice.QueueMessage([]byte("again")); err != nil {
		t.Fatal(err)
	}

	// bob's round gives the held round a batch to mix.
	if _, err := front.Play(bob); err != nil {
		t.Fatal(err)
	}
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock()
	done := make(chan error, 1)
	go func() {
		_, err := n.RunRound()
		done <- err
	}()
	select {
	case <-mixing:
	case err := <-done:
		t.Fatalf("the round ran without mixing: %v", err)
	}
	if rho, err := front.Play(alice); err == nil || retriable(err) {
		t.Fatalf("alice's play of round %d while it mixes: %v, want the gateway's refusal", rho, err)
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := playRounds(t, front, n, 2, alice, bob); !slices.Equal(got, []string{"again"}) {
		t.Fatalf("bob received %q over the next two rounds, want \"again\" once", got)
	}
}

// TestPlayResubmitAfterLostReply: the one gateway banks alice's
// submission and the reply is lost. MultiClient submits again on a
// fresh connection, the gateway acks the identical resubmission (a
// refusal would make Play withdraw a body the gateway holds), and bob
// receives the body exactly once.
func TestPlayResubmitAfterLostReply(t *testing.T) {
	n, srv := newDeployment(t)
	var cut atomic.Bool
	srv.SetConnWrapper(func(c net.Conn) net.Conn {
		return &cutReply{Conn: c, method: "submit", cut: &cut}
	})
	front := newFront(t, srv.listenerCore)
	alice, bob := conversingPair(t, n)
	if err := alice.QueueMessage([]byte("once")); err != nil {
		t.Fatal(err)
	}
	got := playRounds(t, front, n, 2, alice, bob)
	if !cut.Load() {
		t.Fatal("no submit reply was cut")
	}
	if !slices.Equal(got, []string{"once"}) {
		t.Fatalf("bob received %q over two rounds, want \"once\" once", got)
	}
}

// TestPlayWithdrawsFailedBuild: alice's client holds a plan of one
// chain more than the deployment runs, so her build drains the body on
// her meeting chain and then fails on the chain the gateway does not
// serve. Nothing reached the gateway, so Play puts the body back, and
// once her plan is the deployment's the next Play delivers it to bob
// exactly once.
func TestPlayWithdrawsFailedBuild(t *testing.T) {
	n, srv := newDeployment(t)
	front := newFront(t, srv.listenerCore)
	wide, err := chainsel.NewPlan(n.NumChains() + 1)
	if err != nil {
		t.Fatal(err)
	}
	extra := n.NumChains()
	var alice, bob *client.User
	for tries := 0; ; tries++ {
		if tries == 1000 {
			t.Fatal("no pair whose meeting chain comes before the extra chain in alice's row")
		}
		alice, bob = client.NewUser(nil, wide), client.NewUser(nil, n.Plan())
		row := alice.Chains()
		meeting := wide.MeetingChainForUsers(alice.Mailbox(), bob.Mailbox())
		if i := slices.Index(row, extra); i > 0 && slices.Index(row, meeting) < i && meeting != extra {
			break
		}
	}
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := alice.QueueMessage([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	if _, err := front.Play(alice); err == nil || !strings.Contains(err.Error(), "building round") {
		t.Fatalf("a build on a chain the deployment does not run: %v, want it to fail", err)
	}
	alice.Rebalance(n.Plan(), n.Epoch())
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if got := playRounds(t, front, n, 2, alice, bob); !slices.Equal(got, []string{"kept"}) {
		t.Fatalf("bob received %q over two rounds, want \"kept\" once", got)
	}
}

// TestPlayKeepsAmbiguousSubmission: with one attempt, the lost reply of
// a submission the gateway banked is a transport failure Play cannot
// resolve. It keeps the records for Settle rather than withdrawing, so
// the body the round delivers is not sent again.
func TestPlayKeepsAmbiguousSubmission(t *testing.T) {
	n, srv := newDeployment(t)
	var cut atomic.Bool
	srv.SetConnWrapper(func(c net.Conn) net.Conn {
		return &cutReply{Conn: c, method: "submit", cut: &cut}
	})
	front := newFront(t, srv.listenerCore)
	front.Attempts = 1
	alice, bob := conversingPair(t, n)
	if err := alice.QueueMessage([]byte("once")); err != nil {
		t.Fatal(err)
	}
	rho, err := front.Play(alice, bob)
	if !IsTransportError(err) {
		t.Fatalf("play with the reply cut: %v, want a transport error", err)
	}
	if _, err := n.RunRound(); err != nil {
		t.Fatal(err)
	}
	got := append(bodiesFor(t, front, rho, bob), playRounds(t, front, n, 1, alice, bob)...)
	if !slices.Equal(got, []string{"once"}) {
		t.Fatalf("bob received %q over two rounds, want \"once\" once", got)
	}
}

// lateReply is a server's connection that counts the submit requests
// read on every connection sharing submits: the first one's reply is
// cut, the second's is held until release is closed and then cut, and
// the rest are answered.
type lateReply struct {
	net.Conn
	submits       *atomic.Int32
	held, release chan struct{}
	nth           int32
}

func (c *lateReply) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if bytes.Contains(p[:n], []byte("submit")) {
		c.nth = c.submits.Add(1)
	}
	return n, err
}

func (c *lateReply) Write(p []byte) (int, error) {
	switch c.nth {
	case 2:
		close(c.held)
		<-c.release
		fallthrough
	case 1:
		c.nth = 0
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestLateRetryAcked: the gateway banks alice's submission for round
// 1 and its reply is lost; her retry is acked, but that reply is held
// until round 1 has committed, and lost too. Her third attempt arrives
// with round 2 open and round 1's bank entry gone: the gateway acks it
// by the digest of what it accepted, Play keeps the body, and bob
// receives it exactly once over rounds 1–3.
func TestLateRetryAcked(t *testing.T) {
	n, srv := newDeployment(t)
	var submits atomic.Int32
	held, release := make(chan struct{}), make(chan struct{})
	srv.SetConnWrapper(func(c net.Conn) net.Conn {
		return &lateReply{Conn: c, submits: &submits, held: held, release: release}
	})
	front := newFront(t, srv.listenerCore)
	alice, bob := conversingPair(t, n)
	if err := alice.QueueMessage([]byte("once")); err != nil {
		t.Fatal(err)
	}
	played := make(chan error, 1)
	go func() {
		_, err := front.Play(alice)
		played <- err
	}()
	<-held
	if _, err := n.RunRound(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-played; err != nil {
		t.Fatalf("alice's play with round 1 committed under her retry: %v", err)
	}
	if got := submits.Load(); got != 3 {
		t.Fatalf("%d submit requests, want 3", got)
	}
	got := append(bodiesFor(t, front, 1, bob), playRounds(t, front, n, 2, alice, bob)...)
	if !slices.Equal(got, []string{"once"}) {
		t.Fatalf("bob received %q over rounds 1–3, want \"once\" once", got)
	}
}
