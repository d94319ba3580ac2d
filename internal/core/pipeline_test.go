package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/mix"
	"repro/internal/onion"
)

// depthNetwork builds a network with the given pipeline depth.
func depthNetwork(t testing.TB, servers, k, depth int, recover bool) *Network {
	t.Helper()
	n, err := NewNetwork(Config{
		NumServers:          servers,
		ChainLengthOverride: k,
		Seed:                []byte("test-beacon"),
		MailboxServers:      2,
		PipelineDepth:       depth,
		Recover:             recover,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// conversationScript sets up nPairs conversing pairs on a network and
// queues every round's bodies up front. With pipelining, round ρ+1's
// onions are built while round ρ is still mixing, so bodies queued
// between rounds would ride one round later than in a serial run; a
// fixed up-front script is the apples-to-apples comparison.
func conversationScript(t *testing.T, n *Network, nPairs, rounds int) []*client.User {
	t.Helper()
	users := make([]*client.User, 2*nPairs)
	for i := range users {
		users[i] = n.NewUser()
	}
	for i := 0; i < len(users); i += 2 {
		a, b := users[i], users[i+1]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= rounds; r++ {
			if err := a.QueueMessage([]byte(fmt.Sprintf("round %d pair %d a->b", r, i/2))); err != nil {
				t.Fatal(err)
			}
			if err := b.QueueMessage([]byte(fmt.Sprintf("round %d pair %d b->a", r, i/2))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return users
}

// conversationBodies fetches and decrypts one user's mailbox for a
// round and returns the conversation bodies received.
func conversationBodies(t *testing.T, n *Network, u *client.User, round uint64) [][]byte {
	t.Helper()
	msgs := n.Fetch(u, round)
	received, undecryptable := u.OpenMailbox(round, msgs)
	if undecryptable != 0 {
		t.Fatalf("round %d: %d undecryptable messages", round, undecryptable)
	}
	var bodies [][]byte
	for _, r := range received {
		if r.FromPartner && r.Kind == onion.KindConversation && len(r.Body) > 0 {
			bodies = append(bodies, r.Body)
		}
	}
	return bodies
}

// TestPipelinedMatchesSerial runs the same conversation script through
// a serial network and a depth-2 pipelined network and requires the
// decrypted per-round deliveries to be byte-identical: overlapping
// round ρ+1's build with round ρ's mix must not reorder, drop or
// duplicate a single body.
func TestPipelinedMatchesSerial(t *testing.T) {
	const pairs, rounds = 2, 4
	serial := depthNetwork(t, 6, 3, 1, false)
	piped := depthNetwork(t, 6, 3, 2, false)
	serialUsers := conversationScript(t, serial, pairs, rounds)
	pipedUsers := conversationScript(t, piped, pairs, rounds)

	for round := 1; round <= rounds; round++ {
		repS := runRound(t, serial)
		repP := runRound(t, piped)
		if repS.Round != repP.Round {
			t.Fatalf("round numbers diverged: %d vs %d", repS.Round, repP.Round)
		}
		if repS.Delivered != repP.Delivered {
			t.Fatalf("round %d: delivered %d (serial) vs %d (pipelined)", round, repS.Delivered, repP.Delivered)
		}
		for i := range serialUsers {
			want := conversationBodies(t, serial, serialUsers[i], uint64(round))
			got := conversationBodies(t, piped, pipedUsers[i], uint64(round))
			if len(want) != len(got) {
				t.Fatalf("round %d user %d: %d bodies (serial) vs %d (pipelined)", round, i, len(want), len(got))
			}
			for j := range want {
				if !bytes.Equal(want[j], got[j]) {
					t.Fatalf("round %d user %d: body %q (serial) vs %q (pipelined)", round, i, want[j], got[j])
				}
			}
			// The script is deterministic, so pin the content too.
			if len(got) != 1 || !bytes.HasPrefix(got[0], []byte(fmt.Sprintf("round %d pair %d", round, i/2))) {
				t.Fatalf("round %d user %d: unexpected bodies %q", round, i, got)
			}
		}
	}
}

// TestPipelineHaltDiscardsPrebuild corrupts a mix server on a depth-2
// pipelined network with recovery on. The corrupted chain halts in
// round 2 while round 3's prebuild is already in flight; the blame
// verdict queues an eviction, which must discard the prebuild (its
// onions are wrapped against the soon-to-be-replaced chains) rather
// than deliver it stale. Round 3 then re-forms chains, rebuilds — the
// bodies the discarded prebuild drained are restored, not lost — and
// delivers the round-3 script on schedule.
func TestPipelineHaltDiscardsPrebuild(t *testing.T) {
	const rounds = 4
	n := depthNetwork(t, 6, 3, 2, true)
	users := conversationScript(t, n, 1, rounds)
	a := users[0]

	// Corrupt a chain away from the pair's meeting chain so the
	// conversation itself is never stranded; pad the population so
	// every chain's batch is large enough to tamper with.
	meeting, err := a.MeetingChain()
	if err != nil {
		t.Fatal(err)
	}
	victim := (meeting + 1) % n.NumChains()
	for i := 0; i < 8; i++ {
		n.NewUser()
	}

	rep1 := runRound(t, n)
	if rep1.Delivered == 0 || len(rep1.HaltedChains) != 0 {
		t.Fatalf("round 1 not clean: %+v", rep1)
	}
	if err := n.CorruptServer(victim, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}

	rep2 := runRound(t, n)
	if len(rep2.HaltedChains) != 1 || rep2.HaltedChains[0] != victim {
		t.Fatalf("round 2: want chain %d halted, got %v", victim, rep2.HaltedChains)
	}
	if len(rep2.BlamedServers) == 0 {
		t.Fatalf("round 2: tampering server not blamed: %+v", rep2)
	}
	// The eviction is pending, so the round-3 prebuild must have been
	// discarded on the spot.
	if n.pending != nil {
		t.Fatal("round-3 prebuild survived a pending eviction")
	}

	rep3 := runRound(t, n)
	if !rep3.Reformed || rep3.Epoch != 1 {
		t.Fatalf("round 3: expected re-formation into epoch 1, got %+v", rep3)
	}
	// The pair may have been re-assigned to new chains by the reform,
	// but with a single conversation there is no clash: the round-3
	// bodies drained by the discarded prebuild must arrive.
	for i, u := range users {
		bodies := conversationBodies(t, n, u, rep3.Round)
		if len(bodies) != 1 || !bytes.HasPrefix(bodies[0], []byte("round 3 pair 0")) {
			t.Fatalf("round 3 user %d: want restored round-3 body, got %q", i, bodies)
		}
	}

	rep4 := runRound(t, n)
	if rep4.Reformed || len(rep4.HaltedChains) != 0 {
		t.Fatalf("round 4 not clean after recovery: %+v", rep4)
	}
	for i, u := range users {
		bodies := conversationBodies(t, n, u, rep4.Round)
		if len(bodies) != 1 || !bytes.HasPrefix(bodies[0], []byte("round 4 pair 0")) {
			t.Fatalf("round 4 user %d: want round-4 body, got %q", i, bodies)
		}
	}
}

// TestPipelineDepthClamp checks the depth normalisation: 0 and 1 are
// serial, anything above 2 is clamped to the protocol's maximum
// lookahead.
func TestPipelineDepthClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {2, 2}, {7, 2}} {
		n := &Network{cfg: Config{PipelineDepth: tc.in}}
		if got := n.pipelineDepth(); got != tc.want {
			t.Errorf("depth %d: got %d, want %d", tc.in, got, tc.want)
		}
	}
}

// BenchmarkRoundThroughput measures whole rounds per second with and
// without the pipelined overlap, on the same population. The depth-2
// rate improvement is the build/mix overlap the pipeline buys.
func BenchmarkRoundThroughput(b *testing.B) {
	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			n, err := NewNetwork(Config{
				NumServers:          6,
				ChainLengthOverride: 3,
				Seed:                []byte("bench-beacon"),
				PipelineDepth:       depth,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				n.NewUser()
			}
			if _, err := n.RunRound(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			n.PruneBefore(n.Round())
		})
	}
}

// TestCommittedRoundReleasesSubmissions checks what a gateway keeps of
// a user's built round once that round has committed: the covers, which
// the next round may need, and not the ℓ submissions, which nothing
// resubmits. A depth-2 network holds exactly the round it has prepared
// ahead, whose retry must find it.
func TestCommittedRoundReleasesSubmissions(t *testing.T) {
	const users = 12
	for _, depth := range []int{1, 2} {
		n := depthNetwork(t, 6, 3, depth, false)
		for i := 0; i < users; i++ {
			n.NewUser()
		}
		f := n.shards[0].(*Frontend)
		for round := 1; round <= 3; round++ {
			rep := runRound(t, n)
			held, listed := 0, 0
			for i := range f.reg.shards {
				sh := &f.reg.shards[i]
				listed += len(sh.built)
				for _, ru := range sh.users {
					if ru.built == nil || len(ru.built.Cover) == 0 || &ru.built.Cover[0] != &ru.cover[0] {
						t.Fatalf("depth %d round %d: a user's built round lost its covers", depth, round)
					}
					if committed := ru.builtRound <= rep.Round; committed != (ru.built.Current == nil) {
						t.Fatalf("depth %d: after round %d, submissions for round %d held: %v", depth, rep.Round, ru.builtRound, !committed)
					}
					if ru.built.Current != nil {
						held++
					}
				}
			}
			if want := users * (depth - 1); held != want || listed != want {
				t.Fatalf("depth %d round %d: %d users hold submissions, %d listed, want %d", depth, round, held, listed, want)
			}
		}
	}
}
