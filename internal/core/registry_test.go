package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/store"
)

// randomMailboxes returns n seeded group.PointSize-byte identifiers in
// one slab, so that holding them costs the heap one object.
func randomMailboxes(seed int64, n int) [][]byte {
	slab := make([]byte, n*group.PointSize)
	rand.New(rand.NewSource(seed)).Read(slab)
	out := make([][]byte, n)
	for i := range out {
		out[i] = slab[i*group.PointSize : (i+1)*group.PointSize]
	}
	return out
}

// goldenOutput is a submission with deterministic proofs, so that an
// image holding it is the same bytes on every run.
func goldenOutput(rng *rand.Rand, round uint64, numChains int) *client.RoundOutput {
	lane := func() []client.ChainMessage {
		out := make([]client.ChainMessage, 2)
		for i := range out {
			x, v := group.NewScalar(rng.Int63()|1), group.NewScalar(rng.Int63()|1)
			ct := make([]byte, 40)
			rng.Read(ct)
			out[i] = client.ChainMessage{Chain: rng.Intn(numChains), Sub: onion.Submission{
				Envelope: onion.Envelope{DHKey: group.Base(x), Ct: ct},
				Proof:    nizk.ProveDlogCommitPrecomputed("test", group.Generator(), group.Base(x), x, v, group.Base(v)),
			}}
		}
		return out
	}
	return &client.RoundOutput{Round: round, Current: lane(), Cover: lane()}
}

// goldenShard drives a shard through every kind of record an image
// holds: registrations, submissions, a round that delivers mail and bans
// two registered users and one stranger, and the next round's
// submissions.
func goldenShard(t testing.TB) *Frontend {
	t.Helper()
	rng := rand.New(rand.NewSource(33))
	fe, err := NewFrontend(FrontendConfig{MailboxServers: 2, NumChains: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := randomMailboxes(33, 24)
	for _, id := range ids {
		if err := fe.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(round uint64, who []byte) {
		t.Helper()
		if err := fe.SubmitExternal(string(who), goldenOutput(rng, round, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, who := range ids[:6] {
		submit(1, who)
	}
	if _, err := fe.BeginRound(&BeginRound{Round: 1, NumChains: 3}); err != nil {
		t.Fatal(err)
	}
	fr := &FinishRound{Round: 1, Removed: []string{string(ids[0]), string(ids[7]), "never-registered"}}
	for i := 0; i < 4; i++ {
		fr.Delivered = append(fr.Delivered, testMail(rng, ids[rng.Intn(len(ids))]))
	}
	if _, err := fe.FinishRound(fr); err != nil {
		t.Fatal(err)
	}
	for _, who := range ids[1:4] {
		submit(2, who)
	}
	return fe
}

// TestImageGolden pins the snapshot image to bytes: a seeded shard
// emits exactly testdata/image.golden, which was computed when a
// registration was still a registeredUser behind a string key. The
// image replays to the same user count, bans and image.
func TestImageGolden(t *testing.T) {
	fe := goldenShard(t)
	fe.mu.Lock()
	image := fe.imageLocked()
	fe.mu.Unlock()
	golden, err := os.ReadFile("testdata/image.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(golden)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, want) {
		t.Fatalf("image is %d bytes, the golden %d; they differ", len(image), len(want))
	}
	again, err := NewFrontend(FrontendConfig{MailboxServers: 2, Recovered: &store.Recovered{Snapshot: image}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.NumUsers(), fe.NumUsers(); got != want || want != 22 {
		t.Fatalf("replayed image counts %d users, the shard %d (want 22)", got, want)
	}
	if !reflect.DeepEqual(again.banned, fe.banned) {
		t.Fatalf("replayed bans %v, the shard's %v", again.banned, fe.banned)
	}
	again.mu.Lock()
	defer again.mu.Unlock()
	if !bytes.Equal(again.imageLocked(), image) {
		t.Fatal("the replayed image re-emits different bytes")
	}
}

// TestRegisterKeepsInProcessUser: registering the identifier an
// in-process user holds leaves her as she was — her client, her
// conversation and her count of one.
func TestRegisterKeepsInProcessUser(t *testing.T) {
	n := testNetwork(t, 6, 3)
	alice, bob := n.NewUser(), n.NewUser()
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	if err := alice.QueueMessage([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	users := n.NumUsers()
	if err := n.Register(alice.Mailbox()); err != nil {
		t.Fatal(err)
	}
	if got := n.NumUsers(); got != users {
		t.Fatalf("registering an in-process user's mailbox: %d users, want %d", got, users)
	}
	rep := runRound(t, n)
	if got := openAndFindPartnerBody(t, n, bob, rep.Round); string(got) != "still here" {
		t.Fatalf("bob received %q", got)
	}
}

// TestMailboxIdentifierLength: a registration or submission whose
// mailbox is not group.PointSize bytes is refused by its length, and
// the shard neither keeps nor logs anything of it; a log naming one
// does not replay.
func TestMailboxIdentifierLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := openShard(t, 1_000_000)
	if err := s.fe.Rebalance(0, 3); err != nil {
		t.Fatal(err)
	}
	logged := len(s.tap.records)
	for _, size := range []int{0, 16, group.PointSize + 1, 1 << 20} {
		mb := bytes.Repeat([]byte{2}, size)
		for what, err := range map[string]error{
			"register": s.fe.Register(mb),
			"submit":   s.fe.SubmitExternal(string(mb), testOutput(rng, 1, 3)),
		} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("is %d bytes", size)) {
				t.Fatalf("%s with a %d-byte mailbox: err = %v", what, size, err)
			}
		}
	}
	if s.fe.NumUsers() != 0 || len(s.fe.externals) != 0 || len(s.tap.records) != logged {
		t.Fatalf("refusals left %d users, %d externals, %d records", s.fe.NumUsers(), len(s.fe.externals), len(s.tap.records)-logged)
	}
	short := []byte("transport-user-1")
	for _, rec := range []store.Record{
		{Op: opRegister, Payload: short},
		{Op: opSubmit, Payload: encodeSubmit(string(short), testOutput(rng, 1, 3))},
	} {
		run := []store.Record{{Op: opWatermark, Payload: encodeWatermark(watermark{round: 1, numChains: 3})}, rec}
		if _, err := NewFrontend(FrontendConfig{Recovered: &store.Recovered{Records: run}}); err == nil || !strings.Contains(err.Error(), "is 16 bytes") {
			t.Fatalf("replaying op %d with a 16-byte mailbox: err = %v", rec.Op, err)
		}
	}
}

// TestRegistrationBytes pins what a registered-only user costs the
// gateway's heap: the identifier and a map slot, at most 64 bytes.
func TestRegistrationBytes(t *testing.T) {
	const n = 100_000
	ids := randomMailboxes(1, n)
	fe, err := NewFrontend(FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		if err := fe.Register(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ids)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.1f B per registration", per)
	if fe.NumUsers() != n || per > 64 {
		t.Fatalf("%d registrations cost %.1f B each, want ≤ 64", fe.NumUsers(), per)
	}
}

// BenchmarkRegister is one registration into a shard that already holds
// 100 000: ns, B and allocations per registered user. Every 100 000
// iterations it starts over on a fresh 100 000-entry shard, so the
// shard stays that size whatever b.N is.
func BenchmarkRegister(b *testing.B) {
	const base = 100_000
	ids := randomMailboxes(2, 2*base)
	var fe *Frontend
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%base == 0 {
			b.StopTimer()
			var err error
			if fe, err = NewFrontend(FrontendConfig{}); err != nil {
				b.Fatal(err)
			}
			for _, id := range ids[:base] {
				fe.Register(id)
			}
			b.StartTimer()
		}
		if err := fe.Register(ids[base+i%base]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotImage is the snapshot image of a shard holding
// 100 000 registrations.
func BenchmarkSnapshotImage(b *testing.B) {
	fe, err := NewFrontend(FrontendConfig{NumChains: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range randomMailboxes(3, 100_000) {
		if err := fe.Register(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.mu.Lock()
		fe.imageLocked()
		fe.mu.Unlock()
	}
}
