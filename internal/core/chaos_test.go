// Dirty-round scenario suite: drive a deployment whose mix positions
// live on real hop endpoints (loopback TLS) through injected
// failures — a hop process dying mid-mix, a peer slowed past the rpc
// deadlines, a partitioned gateway↔hop link, a byzantine false
// accusation, and back-to-back halts — and assert the §5.2.3/§6.4
// recovery story: the damaged round halts or strands instead of
// wedging, the responsible server is evicted, chains re-form over the
// survivors, delivery resumes within a round, and honest users are
// never blamed.
//
// The suite lives in package core_test so it can wire internal/rpc
// (which imports core) to internal/core.
package core_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/rpc"
)

// chaosFleet hosts mix positions on hop endpoints keyed by server
// identity — the in-test equivalent of a pool of `xrd-server -role
// mix` processes — with a shared fault injector on the dialing side.
// Identity keying is what lets re-formed chains find the survivors.
type chaosFleet struct {
	t           *testing.T
	inj         *faults.Injector
	callTimeout time.Duration
	mixTimeout  time.Duration

	mu      sync.Mutex
	servers map[int]*rpc.HopServer
	clients []*rpc.HopClient
}

func newChaosFleet(t *testing.T, n int, inj *faults.Injector) *chaosFleet {
	f := &chaosFleet{t: t, inj: inj, servers: make(map[int]*rpc.HopServer)}
	for i := 0; i < n; i++ {
		hs, err := rpc.NewHopServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		hs.Logf = func(string, ...any) {}
		f.servers[i] = hs
	}
	t.Cleanup(f.close)
	return f
}

func (f *chaosFleet) close() {
	f.mu.Lock()
	clients := f.clients
	f.clients = nil
	servers := f.servers
	f.servers = map[int]*rpc.HopServer{}
	f.mu.Unlock()
	for _, hc := range clients {
		hc.Close()
	}
	for _, hs := range servers {
		hs.Close()
	}
}

// kill terminates a hop endpoint for good — the process is gone, not
// partitioned; nothing will answer on its port again.
func (f *chaosFleet) kill(server int) {
	f.mu.Lock()
	hs := f.servers[server]
	delete(f.servers, server)
	f.mu.Unlock()
	if hs != nil {
		hs.Close()
	}
}

// provider is the Config.HopForServer hookup: dial the endpoint owned
// by the server identity, label the connections "srv<id>" for the
// fault injector, and bind the position for the epoch.
func (f *chaosFleet) provider() func(uint64, int, int, int, group.Point) (mix.Hop, error) {
	return func(epoch uint64, server, chain, pos int, base group.Point) (mix.Hop, error) {
		f.mu.Lock()
		hs := f.servers[server]
		f.mu.Unlock()
		if hs == nil {
			return nil, fmt.Errorf("server %d is dead", server)
		}
		hc := rpc.DialHop(hs.Addr(), hs.ClientTLS())
		hc.SetConnWrapper(f.inj.Wrapper(fmt.Sprintf("srv%d", server)))
		if f.callTimeout > 0 {
			hc.CallTimeout = f.callTimeout
		}
		if f.mixTimeout > 0 {
			hc.MixTimeout = f.mixTimeout
		}
		if _, err := hc.InitEpoch(epoch, chain, pos, base); err != nil {
			hc.Close()
			return nil, err
		}
		f.mu.Lock()
		f.clients = append(f.clients, hc)
		f.mu.Unlock()
		return hc, nil
	}
}

// chaosEnv is what a scenario's per-round hooks act on.
type chaosEnv struct {
	t           *testing.T
	net         *core.Network
	fleet       *chaosFleet
	inj         *faults.Injector
	wantEvicted []int
}

// member resolves a chain position to the server identity currently
// occupying it — against the live topology, so hooks that run after a
// re-formation target the new chains.
func (e *chaosEnv) member(chain, pos int) int {
	return e.net.Topology().Chains[chain][pos]
}

// readConversation fetches and opens a user's mailbox for a round and
// returns the partner's conversation payload, if any.
func readConversation(u *client.User, fe *core.Frontend, round uint64) string {
	recv, _ := u.OpenMailbox(round, fe.Fetch(u, round))
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			return string(r.Body)
		}
	}
	return ""
}

// lostByOutcome reports whether the outcome fe serves for round marks
// the round lost for the user behind who: a chain of her row was dead
// at its begin, halted or did not run.
func lostByOutcome(t *testing.T, fe *core.Frontend, round uint64, who []byte) bool {
	t.Helper()
	for _, o := range fe.Outcomes() {
		if o.Round == round {
			return slices.ContainsFunc(fe.Plan().ChainsForUser(who), func(c int) bool {
				return slices.Contains(o.Dead, c) || slices.Contains(o.Failed, c)
			})
		}
	}
	t.Fatalf("the gateway serves no outcome for round %d", round)
	return false
}

// checkStrandedByOutcome: every user rep strands is one the round's
// served outcome marks lost, and each of users is stranded exactly
// when it marks her lost.
func checkStrandedByOutcome(t *testing.T, fe *core.Frontend, rep *core.RoundReport, users ...*client.User) {
	t.Helper()
	for _, who := range rep.Stranded {
		if !lostByOutcome(t, fe, rep.Round, []byte(who)) {
			t.Fatalf("round %d stranded %x, whose chains its outcome shows delivered", rep.Round, who[:4])
		}
	}
	for _, u := range users {
		lost := lostByOutcome(t, fe, rep.Round, u.Mailbox())
		if stranded := slices.Contains(rep.Stranded, string(u.Mailbox())); stranded != lost {
			t.Fatalf("round %d: user %x stranded %v, but its outcome marks her lost: %v", rep.Round, u.Mailbox()[:4], stranded, lost)
		}
	}
}

func TestChaosScenarios(t *testing.T) {
	type scenario struct {
		name               string
		servers, chains, k int
		remote             bool
		callTimeout        time.Duration
		mixTimeout         time.Duration
		rounds             int
		// hooks run just before the given round executes (1-based).
		hooks map[int]func(*chaosEnv)
	}
	scenarios := []scenario{
		{
			// A hop process dies between the key announcement and the
			// mixing step: the chain halts with the position blamed,
			// the server is evicted, the chain re-forms over the
			// survivors (pulling in the spare), and the next round
			// delivers.
			name:    "hop death mid-mix",
			servers: 4, chains: 1, k: 3, remote: true, rounds: 3,
			hooks: map[int]func(*chaosEnv){
				2: func(e *chaosEnv) {
					s := e.member(0, 1)
					e.fleet.kill(s)
					e.wantEvicted = append(e.wantEvicted, s)
				},
			},
		},
		{
			// A peer answers slower than the rpc call deadline: every
			// exchange with it times out, which is indistinguishable
			// from a crash — same halt, same eviction, same recovery.
			name:    "slow peer past the rpc deadline",
			servers: 4, chains: 1, k: 3, remote: true, rounds: 3,
			callTimeout: 500 * time.Millisecond,
			mixTimeout:  2 * time.Second,
			hooks: map[int]func(*chaosEnv){
				2: func(e *chaosEnv) {
					s := e.member(0, 2)
					e.inj.Add(&faults.Rule{
						Op:     faults.Delay,
						Delay:  5 * time.Second,
						Target: fmt.Sprintf("srv%d", s),
					})
					e.wantEvicted = append(e.wantEvicted, s)
				},
			},
		},
		{
			// The gateway↔hop link partitions: existing connections
			// die and redials are refused while the rule is armed.
			name:    "partitioned gateway-hop link",
			servers: 4, chains: 1, k: 3, remote: true, rounds: 3,
			hooks: map[int]func(*chaosEnv){
				2: func(e *chaosEnv) {
					s := e.member(0, 0)
					e.inj.Add(&faults.Rule{
						Op:     faults.Partition,
						Target: fmt.Sprintf("srv%d", s),
					})
					e.wantEvicted = append(e.wantEvicted, s)
				},
			},
		},
		{
			// A byzantine server replays the blame protocol against an
			// honest submission. Blame step 4 convicts the accuser, the
			// chain halts leaking nothing, and — critically — no honest
			// user is ever blamed.
			name:    "byzantine false accusation",
			servers: 6, chains: 2, k: 3, remote: false, rounds: 3,
			hooks: map[int]func(*chaosEnv){
				2: func(e *chaosEnv) {
					e.wantEvicted = append(e.wantEvicted, e.member(0, 1))
					if err := e.net.CorruptServer(0, 1, &mix.Corruption{FalselyAccuse: []int{0}}); err != nil {
						e.t.Fatal(err)
					}
				},
			},
		},
		{
			// Two halts in back-to-back active rounds: the second kill
			// hits the already re-formed chain, forcing a second epoch.
			name:    "back-to-back halts",
			servers: 5, chains: 1, k: 3, remote: true, rounds: 5,
			hooks: map[int]func(*chaosEnv){
				2: func(e *chaosEnv) {
					s := e.member(0, 1)
					e.fleet.kill(s)
					e.wantEvicted = append(e.wantEvicted, s)
				},
				4: func(e *chaosEnv) {
					s := e.member(0, 0)
					e.fleet.kill(s)
					e.wantEvicted = append(e.wantEvicted, s)
				},
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			inj := faults.New(42)
			fe, err := core.NewFrontend(core.FrontendConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{
				NumServers:          sc.servers,
				NumChains:           sc.chains,
				ChainLengthOverride: sc.k,
				Seed:                []byte("chaos/" + sc.name),
				Shards:              []core.GatewayShard{fe},
			}
			var fleet *chaosFleet
			if sc.remote {
				fleet = newChaosFleet(t, sc.servers, inj)
				fleet.callTimeout = sc.callTimeout
				fleet.mixTimeout = sc.mixTimeout
				cfg.HopForServer = fleet.provider()
			}
			net, err := core.NewNetwork(cfg)
			if err != nil {
				t.Fatal(err)
			}
			alice, bob := fe.NewUser(), fe.NewUser()
			if err := alice.StartConversation(bob.PublicKey()); err != nil {
				t.Fatal(err)
			}
			if err := bob.StartConversation(alice.PublicKey()); err != nil {
				t.Fatal(err)
			}
			e := &chaosEnv{t: t, net: net, fleet: fleet, inj: inj}

			var evicted []int
			var sent, got []string
			delivered := make(map[int]bool)
			firstHook := sc.rounds + 1
			for r := range sc.hooks {
				if r < firstHook {
					firstHook = r
				}
			}
			for round := 1; round <= sc.rounds; round++ {
				if hook := sc.hooks[round]; hook != nil {
					hook(e)
				}
				msg := fmt.Sprintf("%s r%d", sc.name, round)
				if err := alice.QueueMessage([]byte(msg)); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, msg)
				rep, err := net.RunRound()
				if rep == nil {
					t.Fatalf("round %d: no report (err=%v)", round, err)
				}
				// The invariant every scenario shares: honest users are
				// never blamed, whatever the servers or the network do.
				if len(rep.BlamedUsers) != 0 {
					t.Fatalf("round %d: honest users blamed: %v", round, rep.BlamedUsers)
				}
				evicted = append(evicted, rep.Evicted...)
				// The round strands exactly the users its public outcome
				// marks lost, so each can settle her own bodies.
				checkStrandedByOutcome(t, fe, rep, alice, bob)
				if body := readConversation(bob, fe, rep.Round); body != "" {
					delivered[round] = true
					got = append(got, body)
				} else if round < firstHook {
					t.Fatalf("round %d: delivery failed before any injected fault", round)
				}
				// A body a disrupted round lost goes again in a later
				// round: bob reads alice's bodies in send order, each
				// once.
				if !slices.Equal(got, sent[:len(got)]) {
					t.Fatalf("round %d: bob has read %q of %q", round, got, sent)
				}
			}

			// Delivery must resume within k rounds of the last
			// disruption; the tables are built so the final round is
			// exactly one round after it — well inside any k ≥ 1.
			if !delivered[sc.rounds] {
				t.Fatalf("delivery did not resume by round %d (delivered: %v)", sc.rounds, delivered)
			}
			// In a single-chain deployment the disrupted rounds cannot
			// have delivered — there was no healthy chain to ride.
			if sc.chains == 1 {
				for r := range sc.hooks {
					if delivered[r] {
						t.Fatalf("round %d delivered despite the injected fault", r)
					}
				}
			}
			for _, want := range e.wantEvicted {
				found := false
				for _, s := range evicted {
					if s == want {
						found = true
					}
				}
				if !found {
					t.Fatalf("server %d was not evicted (evicted: %v)", want, evicted)
				}
			}
			if net.Epoch() == 0 {
				t.Fatal("no epoch re-formation happened")
			}
		})
	}
}

// TestReformEvictsEveryDeadServerAtOnce: a re-formation attempt evicts
// the server behind every failure it can attribute, so two survivors
// that died unnoticed cost one retry, not two. Round 2 kills chain 0's
// second member, server 0, which is evicted at round 3's re-formation.
// Before round 3, servers 1 and 5 die too, after the last announcement
// that could have noticed them. On this seed every draw holds each
// server at most once (a fleet endpoint hosts one position an epoch),
// and the re-formation's first draw (epoch 1) puts servers 1 and 5 in
// different chains: that attempt finds both, and the second (epoch 2)
// forms. A keying loop that stops at its first failure finds one of
// them in epoch 1 and the other in epoch 2, and forms in epoch 3.
func TestReformEvictsEveryDeadServerAtOnce(t *testing.T) {
	inj := faults.New(42)
	fleet := newChaosFleet(t, 8, inj)
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(core.Config{
		NumServers:          8,
		NumChains:           2,
		ChainLengthOverride: 2,
		Seed:                []byte("chaos/evict-every-dead/182"),
		HopForServer:        fleet.provider(),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := fe.NewUser(), fe.NewUser()
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	var sent, got []string
	first, late := 0, []int{1, 5}
	if got := net.Topology().Chains[0][1]; got != first {
		t.Fatalf("the seed's founding chain 0 has server %d second, want %d", got, first)
	}
	for round := 1; round <= 3; round++ {
		switch round {
		case 2:
			fleet.kill(first)
		case 3:
			fleet.kill(late[0])
			fleet.kill(late[1])
		}
		msg := fmt.Sprintf("evict-every-dead r%d", round)
		if err := alice.QueueMessage([]byte(msg)); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
		// Round 2's trailing announcement fails on the dead server; the
		// report stands, as in TestChaosScenarios.
		rep, err := net.RunRound()
		if rep == nil {
			t.Fatalf("round %d: no report (err=%v)", round, err)
		}
		if len(rep.BlamedUsers) != 0 {
			t.Fatalf("round %d: honest users blamed: %v", round, rep.BlamedUsers)
		}
		body := readConversation(bob, fe, rep.Round)
		if body != "" {
			got = append(got, body)
		}
		if !slices.Equal(got, sent[:len(got)]) {
			t.Fatalf("round %d: bob has read %q of %q, want them in send order, each once", round, got, sent)
		}
		if round != 3 {
			continue
		}
		want := []int{first, late[0], late[1]}
		for _, s := range want {
			found := false
			for _, e := range rep.Evicted {
				found = found || e == s
			}
			if !found {
				t.Fatalf("server %d was not evicted (evicted %v, want %v)", s, rep.Evicted, want)
			}
		}
		if got := net.Epoch(); got != 2 {
			t.Fatalf("re-formation took until epoch %d, want 2: one attempt to find both dead servers, one to form", got)
		}
		if body == "" {
			t.Fatal("round 3 did not deliver after the re-formation")
		}
	}
}

// TestStrandedUsersGetRetryError is the regression test for the
// silent-drop bug: users whose traffic rode a halted chain must be
// reported stranded, and the round's outcome their gateway serves
// must mark them lost, so each client settles her own bodies — and
// users on healthy chains must be neither.
func TestStrandedUsersGetRetryError(t *testing.T) {
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(core.Config{
		NumServers:          6,
		NumChains:           3,
		ChainLengthOverride: 3,
		Seed:                []byte("stranded-regression"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	users := make([]*client.User, 6)
	for i := range users {
		users[i] = fe.NewUser()
	}
	// Halt the busiest chain with a server-side tamper; every
	// submitter to it is stranded, everyone else delivers. The chain is
	// picked from the users' actual (mailbox-derived, so per-run
	// random) selections — a fixed chain could draw no traffic at all.
	load := make([]int, 3)
	for _, u := range users {
		for _, c := range net.Plan().ChainsForUser(u.Mailbox()) {
			load[c]++
		}
	}
	victim := 0
	for c, n := range load {
		if n > load[victim] {
			victim = c
		}
	}
	// The check below needs a user off the victim chain; mailboxes are
	// random, so register users until one rides other chains only.
	for tries := 0; !slices.ContainsFunc(users, func(u *client.User) bool {
		return !slices.Contains(net.Plan().ChainsForUser(u.Mailbox()), victim)
	}); tries++ {
		if tries == 100 {
			t.Fatalf("100 more users all rode chain %d", victim)
		}
		users = append(users, fe.NewUser())
	}
	if err := net.CorruptServer(victim, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := net.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HaltedChains) != 1 || rep.HaltedChains[0] != victim {
		t.Fatalf("chain %d did not halt: %+v", victim, rep)
	}
	if len(rep.Stranded) == 0 {
		t.Fatal("halted chain stranded nobody")
	}
	checkStrandedByOutcome(t, fe, rep, users...)
}
