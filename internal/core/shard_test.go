package core

import (
	"bytes"
	"crypto/elliptic"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// twoShardConfig returns a config whose front end is split across two
// in-process gateway shards at the midpoint of the registry space.
func twoShardConfig(t testing.TB, servers, k int) (Config, *Frontend, *Frontend) {
	t.Helper()
	feA, err := NewFrontend(FrontendConfig{Range: ShardRange{Lo: 0, Hi: 32}, MailboxServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	feB, err := NewFrontend(FrontendConfig{Range: ShardRange{Lo: 32, Hi: 64}, MailboxServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		NumServers:          servers,
		ChainLengthOverride: k,
		Seed:                []byte("test-beacon"),
		Shards:              []GatewayShard{feA, feB},
	}, feA, feB
}

// sortedMailbox canonicalises one round's mailbox contents: delivery
// order varies with worker scheduling and shard merge order, the set
// of messages must not.
func sortedMailbox(msgs [][]byte) [][]byte {
	out := make([][]byte, len(msgs))
	copy(out, msgs)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

// TestShardedRoundParity runs the same user population through a
// single-shard network (one full-range Frontend) and a two-shard
// network, round for round, and requires byte-identical mailbox
// contents. Mailbox seals are
// deterministic (static conversation keys, round-derived nonces), so
// any divergence means the sharded round protocol dropped, duplicated
// or rerouted traffic relative to the single shard.
func TestShardedRoundParity(t *testing.T) {
	mono, monoFE := testNetwork(t, 6, 3)
	shardedCfg, feA, feB := twoShardConfig(t, 6, 3)
	sharded, err := NewNetwork(shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if mono.NumChains() != sharded.NumChains() {
		t.Fatalf("chain counts differ: %d vs %d", mono.NumChains(), sharded.NumChains())
	}

	// The same user objects are registered with both networks; each
	// network holds its own registry entry (covers, online state), the
	// client-side keys are shared. A user's sharded Frontend is the one
	// whose range owns her mailbox.
	owner := func(u *client.User) *Frontend {
		if feA.Range().Owns(u.Mailbox()) {
			return feA
		}
		return feB
	}
	users := make([]*client.User, 8)
	for i := range users {
		u := monoFE.NewUser()
		users[i] = u
		if err := owner(u).AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	// Three conversing pairs, two idle users.
	for i := 0; i+1 < 6; i += 2 {
		a, b := users[i], users[i+1]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
	}

	for round := 1; round <= 3; round++ {
		queue := func() {
			for i := 0; i < 6; i++ {
				if err := users[i].QueueMessage([]byte(fmt.Sprintf("round %d from %d", round, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Each network's build drains the outbox, so the same bodies
		// are queued before each run.
		queue()
		repMono := runRound(t, mono)
		queue()
		repSharded := runRound(t, sharded)

		if repMono.Round != repSharded.Round {
			t.Fatalf("round %d: numbers diverged: %d vs %d", round, repMono.Round, repSharded.Round)
		}
		if repMono.Delivered != repSharded.Delivered {
			t.Fatalf("round %d: delivered %d (monolith) vs %d (sharded)", round, repMono.Delivered, repSharded.Delivered)
		}
		if len(repSharded.DeadShards) != 0 {
			t.Fatalf("round %d: healthy shards reported dead: %v", round, repSharded.DeadShards)
		}
		for i, u := range users {
			m := sortedMailbox(monoFE.Fetch(u, repMono.Round))
			s := sortedMailbox(owner(u).Fetch(u, repSharded.Round))
			if len(m) != len(s) {
				t.Fatalf("round %d user %d: %d messages (monolith) vs %d (sharded)", round, i, len(m), len(s))
			}
			for j := range m {
				if !bytes.Equal(m[j], s[j]) {
					t.Fatalf("round %d user %d: mailbox message %d differs", round, i, j)
				}
			}
		}
	}
}

// flakyShard wraps an in-process Frontend with switchable failures at
// the two coordinator→shard protocol crossings, standing in for a
// gateway shard process that died mid-round.
type flakyShard struct {
	*Frontend
	failBegin  bool
	failFinish bool
}

func (s *flakyShard) BeginRound(br *BeginRound) (*ShardBuild, error) {
	if s.failBegin {
		return nil, errors.New("injected: shard down at begin")
	}
	return s.Frontend.BeginRound(br)
}

func (s *flakyShard) FinishRound(fr *FinishRound) (FinishStats, error) {
	if s.failFinish {
		return FinishStats{}, errors.New("injected: shard down at finish")
	}
	return s.Frontend.FinishRound(fr)
}

// TestInjectedSubmissionSurvivesFailedBegin: a round whose every
// gateway shard fails its begin errors, and the submission injected
// before it is still queued: the round run again convicts it.
func TestInjectedSubmissionSurvivesFailedBegin(t *testing.T) {
	cfg, feA, feB := twoShardConfig(t, 6, 3)
	a, b := &flakyShard{Frontend: feA, failBegin: true}, &flakyShard{Frontend: feB, failBegin: true}
	cfg.Shards = []GatewayShard{a, b}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feA.NewUser()
	feB.NewUser()
	const c = 1
	params, err := n.ChainParams(c, n.Round())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, n.Round(), client.LaneCurrent, 0)
	if err != nil {
		t.Fatal(err)
	}
	n.InjectSubmission(c, bad)
	if rep, err := n.RunRound(); err == nil {
		t.Fatalf("round %d ran with every shard down at begin", rep.Round)
	}
	a.failBegin, b.failBegin = false, false
	rep := runRound(t, n)
	if want := fmt.Sprintf("injected:%d", c); !slices.Contains(rep.BlamedUsers, want) {
		t.Fatalf("round %d blamed %v, want %q", rep.Round, rep.BlamedUsers, want)
	}
}

// TestDeadGatewayShardStrandsOnlyItsUsers kills one of two gateway
// shards — first at the round's begin crossing, then at the finish
// crossing — and requires the round to complete for the other shard's
// users while only the dead shard's users miss it.
func TestDeadGatewayShardStrandsOnlyItsUsers(t *testing.T) {
	cfg, feA, feB := twoShardConfig(t, 6, 3)
	flaky := &flakyShard{Frontend: feA}
	cfg.Shards = []GatewayShard{flaky, feB}
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One conversing pair per shard, so every round has an expected
	// delivery on each side and no cross-shard dependence.
	newPair := func(fe *Frontend) (*client.User, *client.User) {
		a, b := fe.NewUser(), fe.NewUser()
		if a == nil || b == nil {
			t.Fatal("frontend refused users")
		}
		if err := a.StartConversation(b.PublicKey()); err != nil {
			t.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a1, a2 := newPair(feA)
	b1, b2 := newPair(feB)
	queueAll := func(round int) {
		for _, u := range []*client.User{a1, a2, b1, b2} {
			if err := u.QueueMessage([]byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	receives := func(fe *Frontend, u *client.User, round uint64, body string) bool {
		recv, bad := u.OpenMailbox(round, fe.Fetch(u, round))
		if bad != 0 {
			t.Fatalf("%d undecryptable messages", bad)
		}
		for _, r := range recv {
			if r.FromPartner && string(r.Body) == body {
				return true
			}
		}
		return false
	}

	// Round 1: healthy baseline.
	queueAll(1)
	rep := runRound(t, n)
	if len(rep.DeadShards) != 0 {
		t.Fatalf("healthy round reported dead shards %v", rep.DeadShards)
	}
	if !receives(feA, a2, rep.Round, "r1") || !receives(feB, b2, rep.Round, "r1") {
		t.Fatal("healthy round did not deliver on both shards")
	}

	// Round 2: shard A dead at begin. Its users contribute nothing and
	// receive nothing; shard B's round must complete untouched.
	flaky.failBegin = true
	queueAll(2)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 1 || rep.DeadShards[0] != 0 {
		t.Fatalf("dead shards = %v, want [0]", rep.DeadShards)
	}
	if got := feA.Fetch(a2, rep.Round); len(got) != 0 {
		t.Fatalf("dead shard's user received %d messages", len(got))
	}
	if !receives(feB, b2, rep.Round, "r2") {
		t.Fatal("surviving shard's user missed her message")
	}
	if rep.LostDeliveries != 0 {
		t.Fatalf("no traffic was routed to the dead shard, yet %d deliveries lost", rep.LostDeliveries)
	}

	// Round 3: shard A back. The frontend missed round 2 entirely and
	// must resynchronise from the begin broadcast alone. "r2" sat in
	// the client outbox while the shard was down, so it — not "r3" —
	// is what this round delivers: a begin-dead shard defers its
	// users' traffic, it does not lose it.
	flaky.failBegin = false
	queueAll(3)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 0 {
		t.Fatalf("healed round reported dead shards %v", rep.DeadShards)
	}
	if !receives(feA, a2, rep.Round, "r2") || !receives(feB, b2, rep.Round, "r3") {
		t.Fatal("healed round did not deliver on both shards")
	}

	// Round 4: shard A dies at the finish crossing instead — after its
	// users' traffic ("r3", next in the outbox queue) entered the mix.
	// Their deliveries are lost with the shard (mailbox storage is not
	// replicated) and counted.
	flaky.failFinish = true
	queueAll(4)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 1 || rep.DeadShards[0] != 0 {
		t.Fatalf("dead shards = %v, want [0]", rep.DeadShards)
	}
	if rep.LostDeliveries == 0 {
		t.Fatal("shard died holding undelivered mailbox messages, none counted lost")
	}
	if got := feA.Fetch(a2, rep.Round); len(got) != 0 {
		t.Fatalf("dead shard's user received %d messages", len(got))
	}
	if !receives(feB, b2, rep.Round, "r4") {
		t.Fatal("surviving shard's user missed her message")
	}

	// Round 5: recovery from a missed finish. "r3" went down with the
	// shard's round-4 delivery, so the queue resumes at "r4".
	flaky.failFinish = false
	queueAll(5)
	rep = runRound(t, n)
	if len(rep.DeadShards) != 0 {
		t.Fatalf("healed round reported dead shards %v", rep.DeadShards)
	}
	if !receives(feA, a2, rep.Round, "r4") || !receives(feB, b2, rep.Round, "r5") {
		t.Fatal("healed round did not deliver on both shards")
	}
}

// testBatches is a build's batches over chains chains, n submissions
// on each, ciphertexts of ctLen(i) bytes, every submitter a distinct
// 33-byte identifier.
func testBatches(chains, n int, ctLen func(i int) int) ChainBatches {
	bs := make(ChainBatches, chains)
	for c := range bs {
		for i := range n {
			x := int64(c*n + i + 2)
			ct := bytes.Repeat([]byte{byte(x)}, ctLen(i))
			bs[c].add(onion.Submission{
				Envelope: onion.Envelope{DHKey: group.Base(group.NewScalar(x)), Ct: ct},
				Proof:    nizk.DlogProof{T: group.Base(group.NewScalar(x + 1000)), S: group.NewScalar(x + 2000)},
			}, string(group.Base(group.NewScalar(x+3000)).Bytes()))
		}
	}
	return bs
}

// shardBuildBlocks are FuzzShardBuild's seeds and TestChainBatchesHostile's
// cases: blocks that decode, and blocks a hostile shard could send, each
// with the error its decode must end in (nil for one that decodes).
func shardBuildBlocks(t testing.TB) []struct {
	name string
	in   []byte
	want error
} {
	enc := func(bs ChainBatches) []byte {
		b, err := bs.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := enc(testBatches(2, 2, func(int) int { return onion.AHSCiphertextSize(3) }))
	mutate := func(fn func(b []byte)) []byte {
		b := bytes.Clone(good)
		fn(b)
		return b
	}
	// good's first submission starts after the chain and submission
	// counts; its ciphertext length sits after the two points and the
	// response.
	const sub0 = 8
	const ctLen0 = sub0 + subFixed - 4
	withIdentity := testBatches(1, 2, func(int) int { return 5 })
	withIdentity[0].Subs[1].DHKey = group.Identity()
	unaligned := testBatches(2, 3, func(i int) int { return i })
	unaligned[0].Submitters = unaligned[0].Submitters[:1]
	unaligned[1].Submitters = append(unaligned[1].Submitters, "one too many")
	p := elliptic.P256().Params().P.FillBytes(make([]byte, 32))
	return []struct {
		name string
		in   []byte
		want error
	}{
		{"two chains of two", good, nil},
		{"no chains", enc(ChainBatches{}), nil},
		{"empty chains", enc(make(ChainBatches, 3)), nil},
		{"ciphertexts of differing lengths", enc(testBatches(1, 3, func(i int) int { return 7 * i })), nil},
		{"identity key", enc(withIdentity), nil},
		{"submitters not aligned with submissions", enc(unaligned), nil},
		{"no bytes", nil, errMalformed},
		{"chain count beyond the bytes", binary.BigEndian.AppendUint32(nil, 1<<30), errMalformed},
		{"submission count beyond the bytes", mutate(func(b []byte) { b[4] = 0x7F }), errMalformed},
		{"submitter count beyond the bytes", append(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), 0), 1<<31), 0, 0, 0), errMalformed},
		{"ciphertext longer than the block", mutate(func(b []byte) { b[ctLen0] = 0x10 }), errMalformed},
		{"ciphertext shorter than claimed", mutate(func(b []byte) { b[ctLen0+3]-- }), group.ErrInvalidPoint},
		{"off-curve key", mutate(func(b []byte) { b[sub0+63] ^= 1 }), group.ErrInvalidPoint},
		{"off-curve commitment", mutate(func(b []byte) { b[sub0+64+63] ^= 1 }), group.ErrInvalidPoint},
		{"key x = p", mutate(func(b []byte) { copy(b[sub0:], p) }), group.ErrInvalidPoint},
		{"response ≥ the order", mutate(func(b []byte) { copy(b[sub0+128:], bytes.Repeat([]byte{0xFF}, 32)) }), group.ErrInvalidScalar},
		{"one byte short", good[:len(good)-1], errMalformed},
		{"trailing byte", append(bytes.Clone(good), 0), errMalformed},
	}
}

// TestChainBatchesRoundTrip: a build's batches, to the exact size the
// layout promises and back, with every ciphertext a slice of the block
// and a submitter list that does not align with its submissions kept
// as it came, for ShardBuild.validate to refuse.
func TestChainBatchesRoundTrip(t *testing.T) {
	ctLen := onion.AHSCiphertextSize(6)
	bs := testBatches(8, 5, func(int) int { return ctLen })
	bs[3].Submitters = bs[3].Submitters[:4]
	enc, err := bs.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 8*8 + 40*(subFixed+ctLen+4+group.PointSize) - 4 - group.PointSize; len(enc) != want || cap(enc) != want {
		t.Fatalf("%d bytes in a buffer of %d, want exactly %d", len(enc), cap(enc), want)
	}
	var back ChainBatches
	if err := back.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(bs) {
		t.Fatalf("%d chains back, want %d", len(back), len(bs))
	}
	for c := range bs {
		if !slices.Equal(back[c].Submitters, bs[c].Submitters) || len(back[c].Subs) != len(bs[c].Subs) {
			t.Fatalf("chain %d: %d submissions and submitters %q back", c, len(back[c].Subs), back[c].Submitters)
		}
		for i, sub := range bs[c].Subs {
			got := back[c].Subs[i]
			if !got.DHKey.Equal(sub.DHKey) || !got.Proof.T.Equal(sub.Proof.T) || !got.Proof.S.Equal(sub.Proof.S) || !bytes.Equal(got.Ct, sub.Ct) {
				t.Fatalf("chain %d submission %d differs", c, i)
			}
			if !inBlock(got.Ct, enc) {
				t.Fatalf("chain %d submission %d: ciphertext copied out of the block", c, i)
			}
		}
	}
	if err := (&ShardBuild{Batches: back}).validate(); err == nil {
		t.Fatal("a build with 5 submissions and 4 submitters on a chain validated")
	}
}

// TestChainBatchesHostile: each hostile block is refused with its
// error, leaves the destination as it was and allocates by the bytes
// it holds, not by the counts it claims.
func TestChainBatchesHostile(t *testing.T) {
	for _, tc := range shardBuildBlocks(t) {
		got := ChainBatches{{Submitters: []string{"kept"}}}
		var err error
		// TotalAlloc is process-wide: the least of three decodes is
		// what this one allocates.
		spent := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = got.Decode(tc.in)
			runtime.ReadMemStats(&after)
			spent = min(spent, after.TotalAlloc-before.TotalAlloc)
		}
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if len(got) != 1 || len(got[0].Submitters) != 1 {
			t.Errorf("%s: a refused block changed the destination", tc.name)
		}
		if spent > 1<<16+8*uint64(len(tc.in)) {
			t.Errorf("%s: %d bytes made the decoder allocate %d", tc.name, len(tc.in), spent)
		}
	}
}

// inBlock reports whether b's bytes lie within block's.
func inBlock(b, block []byte) bool {
	start := uintptr(unsafe.Pointer(unsafe.SliceData(block)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= start && p+uintptr(len(b)) <= start+uintptr(len(block))
}

// FuzzShardBuild: any bytes are an error or a build's batches — never
// a panic — and an accepted block re-encodes to the same bytes, with
// every ciphertext a slice of it. The seeds are TestChainBatchesHostile's
// blocks: counts beyond the bytes, off-curve x‖y, disagreeing lengths
// and submitters that do not align with their submissions among them.
func FuzzShardBuild(f *testing.F) {
	for _, tc := range shardBuildBlocks(f) {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var bs ChainBatches
		if err := bs.Decode(data); err != nil {
			if bs != nil {
				t.Fatalf("refused block left %d chains behind", len(bs))
			}
			return
		}
		enc, err := bs.AppendBinary(nil)
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, re-encodes as %x (%v)", data, enc, err)
		}
		for _, b := range bs {
			for _, sub := range b.Subs {
				if len(sub.Ct) > 0 && !inBlock(sub.Ct, data) {
					t.Fatal("a ciphertext was copied out of the block")
				}
			}
		}
	})
}
