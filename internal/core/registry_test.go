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
	"sync"
	"sync/atomic"
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

// goldenImage reads a hex image from testdata.
func goldenImage(t testing.TB, name string) []byte {
	t.Helper()
	golden, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	image, err := hex.DecodeString(strings.TrimSpace(string(golden)))
	if err != nil {
		t.Fatal(err)
	}
	return image
}

// checkReplaysAs requires a frontend recovered from rec to hold the
// golden shard's users and bans and to re-emit image.
func checkReplaysAs(t *testing.T, rec *store.Recovered, fe *Frontend, image []byte) {
	t.Helper()
	again, err := NewFrontend(FrontendConfig{MailboxServers: 2, Recovered: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.NumUsers(), fe.NumUsers(); got != want || want != 22 {
		t.Fatalf("replay counts %d users, the shard %d (want 22)", got, want)
	}
	if !reflect.DeepEqual(again.banned, fe.banned) {
		t.Fatalf("replayed bans %v, the shard's %v", again.banned, fe.banned)
	}
	again.mu.Lock()
	defer again.mu.Unlock()
	if !bytes.Equal(again.imageLocked(), image) {
		t.Fatal("the replayed state re-emits different bytes")
	}
}

// TestImageGolden pins the snapshot image to bytes: a seeded shard
// emits exactly testdata/image.golden, whose registrations are one
// opRegister record of concatenated identifiers. The image replays to
// the same user count, bans and image.
func TestImageGolden(t *testing.T) {
	fe := goldenShard(t)
	fe.mu.Lock()
	image := fe.imageLocked()
	fe.mu.Unlock()
	if want := goldenImage(t, "image.golden"); !bytes.Equal(image, want) {
		t.Fatalf("image is %d bytes, the golden %d; they differ", len(image), len(want))
	}
	checkReplaysAs(t, &store.Recovered{Snapshot: image}, fe, image)
}

// TestPerIDImageReplays: testdata/image_per_id.golden is the same
// shard's image as written while an opRegister record carried one
// identifier (and a registration was still a registeredUser before
// that). As an image and as a WAL of those records it replays to the
// same users and bans, and the state re-emits image.golden.
func TestPerIDImageReplays(t *testing.T) {
	fe := goldenShard(t)
	old, image := goldenImage(t, "image_per_id.golden"), goldenImage(t, "image.golden")
	var recs []store.Record
	registers := 0
	for r := (&reader{b: old}); len(r.b) > 0; {
		rc, err := r.record()
		if err != nil {
			t.Fatal(err)
		}
		if rc.Op == opRegister {
			if len(rc.Payload) != group.PointSize {
				t.Fatalf("a per-identifier record of %d bytes", len(rc.Payload))
			}
			registers++
		}
		recs = append(recs, rc)
	}
	if registers != 22 {
		t.Fatalf("%d register records, want 22", registers)
	}
	checkReplaysAs(t, &store.Recovered{Snapshot: old}, fe, image)
	checkReplaysAs(t, &store.Recovered{Records: recs}, fe, image)
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

// TestRegisterBatchIsOneRecord: a register call logs its identifiers
// as one opRegister record per registerChunk, an in-process user's left
// out; a call holding one identifier it refuses (wrong length, banned,
// outside the range) registers and logs nothing; and the records replay
// to the same registrations.
func TestRegisterBatchIsOneRecord(t *testing.T) {
	s := openShard(t, 1_000_000)
	if err := s.fe.Rebalance(0, 3); err != nil {
		t.Fatal(err)
	}
	logged := func() (records, ids int) {
		for _, rec := range s.tap.records {
			if rec.Op == opRegister {
				records++
				ids += len(rec.Payload) / group.PointSize
			}
		}
		return records, ids
	}
	ids := randomMailboxes(8, registerChunk+3)
	if err := s.fe.Register(ids[:registerChunk]...); err != nil {
		t.Fatal(err)
	}
	if r, n := logged(); r != 1 || n != registerChunk {
		t.Fatalf("%d identifiers logged as %d records, want %d as 1", n, r, registerChunk)
	}
	u := s.fe.NewUser()
	if err := s.fe.Register(ids[registerChunk], u.Mailbox(), ids[registerChunk+1]); err != nil {
		t.Fatal(err)
	}
	if r, n := logged(); r != 2 || n != registerChunk+2 {
		t.Fatalf("a batch with an in-process user: %d records, %d identifiers logged; want 2, %d", r, n, registerChunk+2)
	}
	users := s.fe.NumUsers()
	if users != registerChunk+3 {
		t.Fatalf("%d users, want %d", users, registerChunk+3)
	}

	banned := ids[registerChunk+2]
	if _, err := s.fe.FinishRound(&FinishRound{Round: 1, Removed: []string{string(banned)}}); err != nil {
		t.Fatal(err)
	}
	fresh := randomMailboxes(9, 2)
	records := len(s.tap.records)
	for what, bad := range map[string][]byte{"is 16 bytes": make([]byte, 16), "removed for misbehaviour": banned} {
		if err := s.fe.Register(fresh[0], bad, fresh[1]); err == nil || !strings.Contains(err.Error(), what) {
			t.Fatalf("a batch holding a mailbox that %s: err = %v", what, err)
		}
	}
	if s.fe.NumUsers() != users || len(s.tap.records) != records {
		t.Fatalf("refused batches left %d users (want %d) and %d records", s.fe.NumUsers(), users, len(s.tap.records)-records)
	}

	tap := &tapStore{Store: store.Mem{}}
	half, err := NewFrontend(FrontendConfig{Range: ShardRange{Lo: 0, Hi: 32}, Store: tap})
	if err != nil {
		t.Fatal(err)
	}
	var owned, foreign []byte
	for _, id := range randomMailboxes(10, 64) {
		if half.Range().Owns(id) {
			owned = id
		} else {
			foreign = id
		}
	}
	if err := half.Register(owned, foreign); err == nil || !strings.Contains(err.Error(), "outside range") {
		t.Fatalf("a batch with a foreign mailbox: err = %v", err)
	}
	if half.NumUsers() != 0 || len(tap.records) != 0 {
		t.Fatalf("the refused batch left %d users and %d records", half.NumUsers(), len(tap.records))
	}

	s.crash()
	if got := s.fe.NumUsers(); got != users-1 {
		t.Fatalf("replay counts %d users, want the %d transport registrations", got, users-1)
	}
}

// TestRegisterBanRace: a ban that races a registration of the same
// mailbox leaves the user registered and then removed, or banned and
// refused, never banned and registered. Every identifier here is
// banned, so none may be counted. Run with -race.
func TestRegisterBanRace(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for attempt := int64(0); attempt < 3; attempt++ {
		fe, err := NewFrontend(FrontendConfig{SnapshotEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		ids := randomMailboxes(attempt, n)
		// reached is the index the registering goroutine has begun; the
		// banning one waits for it, so each ban lands while or just after
		// its registration runs.
		var reached atomic.Int64
		reached.Store(-1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, id := range ids {
				reached.Store(int64(i))
				fe.Register(id)
			}
		}()
		go func() {
			defer wg.Done()
			for i, id := range ids {
				for reached.Load() < int64(i) {
					runtime.Gosched()
				}
				if _, err := fe.FinishRound(&FinishRound{Round: uint64(i + 1), Removed: []string{string(id)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		if got := fe.NumUsers(); got != 0 {
			t.Fatalf("attempt %d: %d of %d banned users are registered", attempt, got, n)
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

// BenchmarkRegisterDurable is registration into a shard logging to a
// store.Durable: ns and allocations per registered user, at one
// identifier a call and at the batch of a client's register request.
// Every 100 000 registrations it starts over on a fresh shard and data
// directory.
func BenchmarkRegisterDurable(b *testing.B) {
	const base = 100_000
	ids := randomMailboxes(4, base)
	for _, batch := range []int{1, 10_000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var fe *Frontend
			b.ReportAllocs()
			for i := 0; i < b.N; i += batch {
				if i%base == 0 {
					b.StopTimer()
					if fe != nil {
						fe.Close()
					}
					dur, rec, err := store.Open(b.TempDir(), store.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if fe, err = NewFrontend(FrontendConfig{Store: dur, Recovered: rec}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				lo := i % base
				if err := fe.Register(ids[lo:min(lo+batch, lo+b.N-i)]...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			fe.Close()
		})
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
