package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/store"
)

// Tests for the one decoder: a shard's durable state is a log, a
// snapshot image is a compacted run of the same records, and
// replayOneLocked recovers both. They drive a Frontend directly — the
// coordinator's begin/finish sequence without chains — because the
// durable layer stores submissions and mail, it never opens them.

// tapStore records every record a shard appends through its store.
type tapStore struct {
	store.Store
	records []store.Record
}

func (s *tapStore) Append(op store.Op, payload []byte) error {
	s.records = append(s.records, store.Record{Op: op, Payload: bytes.Clone(payload)})
	return s.Store.Append(op, payload)
}

// durableShard is a shard process over a data directory that can be
// SIGKILLed and restarted.
type durableShard struct {
	t     testing.TB
	dir   string
	every int
	dur   *store.Durable
	tap   *tapStore
	fe    *Frontend
}

func openShard(t testing.TB, snapshotEvery int) *durableShard {
	s := &durableShard{t: t, dir: t.TempDir(), every: snapshotEvery}
	s.open()
	return s
}

func (s *durableShard) open() {
	s.t.Helper()
	dur, rec, err := store.Open(s.dir, store.Options{})
	if err != nil {
		s.t.Fatal(err)
	}
	s.dur, s.tap = dur, &tapStore{Store: dur}
	s.fe, err = NewFrontend(FrontendConfig{MailboxServers: 2, Store: s.tap, Recovered: rec, SnapshotEvery: s.every})
	if err != nil {
		s.t.Fatal(err)
	}
}

func (s *durableShard) crash() {
	s.dur.Crash()
	s.open()
}

func (s *durableShard) emit() []byte {
	s.fe.mu.Lock()
	defer s.fe.mu.Unlock()
	return s.fe.imageLocked()
}

// bareParams is a parameter snapshot of numChains chains with zero
// keys, for shards whose users all build their own onions.
func bareParams(round, epoch uint64, numChains int) RoundParams {
	return RoundParams{Round: round, Epoch: epoch, Cur: make([]mix.Params, numChains), Next: make([]mix.Params, numChains)}
}

// testMailbox is a mailbox identifier: any PointSize bytes route.
func testMailbox(i int) []byte {
	return bytes.Repeat([]byte{byte(i + 1)}, group.PointSize)
}

// testMail is a well-formed mailbox message for the recipient.
func testMail(rng *rand.Rand, rcpt []byte) []byte {
	m := make([]byte, onion.MailboxMessageSize)
	rng.Read(m[copy(m, rcpt):])
	return m
}

// testOutput is a submission the durable codec accepts: real group
// elements and proofs, arbitrary ciphertext.
func testOutput(rng *rand.Rand, round uint64, numChains int) *client.RoundOutput {
	lane := func() []client.ChainMessage {
		out := make([]client.ChainMessage, 2)
		for i := range out {
			x, v := group.NewScalar(rng.Int63()|1), group.MustRandomScalar()
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

// TestShardRetention: a shard keeps the last mailboxRetention rounds of
// mail and nothing older, with no coordinator telling it to prune —
// live, after replaying the bare log (the horizon is derived from the
// watermark, no prune record is written), and in every image, whose
// size therefore stops growing.
func TestShardRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	user := testMailbox(0)
	const rounds = 12
	for _, every := range []int{1, 1_000_000} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			s := openShard(t, every)
			var sizes []int
			for r := uint64(1); r <= rounds; r++ {
				fr := &FinishRound{Round: r, Delivered: [][]byte{testMail(rng, user), testMail(rng, user)}}
				if _, err := s.fe.FinishRound(fr); err != nil {
					t.Fatal(err)
				}
				sizes = append(sizes, len(s.emit()))
			}
			for _, rec := range s.tap.records {
				if rec.Op == opPrune {
					t.Fatal("retention logged a prune record; it is derived from the watermark")
				}
			}
			for r := 5; r < rounds; r++ {
				if sizes[r] != sizes[4] {
					t.Fatalf("image is %d bytes after round %d, %d after round 5: history accretes (%v)", sizes[r], r+1, sizes[4], sizes)
				}
			}
			check := func(when string) {
				for r := uint64(1); r <= rounds; r++ {
					want := 2
					if r+mailboxRetention <= rounds {
						want = 0
					}
					if got := len(s.fe.FetchMailbox(r, user)); got != want {
						t.Fatalf("%s: round %d holds %d messages, want %d", when, r, got, want)
					}
				}
			}
			check("live")
			s.crash()
			check("recovered")
		})
	}
}

// scheduleUsers is the population scheduleStep draws from.
const scheduleUsers = 10

// scheduleStep applies one seeded random operation to every shard and
// requires the same answer from each.
func scheduleStep(t testing.TB, rng *rand.Rand, shards []*durableShard, epoch *uint64, numChains *int) {
	t.Helper()
	each := func(what string, op func(fe *Frontend) any) {
		t.Helper()
		want := op(shards[0].fe)
		for _, s := range shards[1:] {
			if got := op(s.fe); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shards disagree: %v vs %v", what, got, want)
			}
		}
	}
	errText := func(err error) any {
		if err != nil {
			return err.Error()
		}
		return nil
	}
	round := shards[0].fe.Round()
	who := testMailbox(rng.Intn(scheduleUsers))
	switch p := rng.Intn(100); {
	case p < 10:
		batch := [][]byte{who}
		for i := rng.Intn(3); i > 0; i-- {
			batch = append(batch, testMailbox(rng.Intn(scheduleUsers)))
		}
		each("register", func(fe *Frontend) any { return errText(fe.Register(batch...)) })
	case p < 55:
		// Mostly the open round; sometimes the one before or after.
		target := round
		if d := rng.Intn(8); d < 2 {
			target += uint64(2*d) - 1
		}
		out := testOutput(rng, target, *numChains)
		each("submit", func(fe *Frontend) any { return errText(fe.SubmitExternal(string(who), out)) })
	case p < 70:
		br := &BeginRound{Round: round, Params: bareParams(round, *epoch, *numChains)}
		each("begin", func(fe *Frontend) any {
			build, err := fe.BeginRound(br)
			if err != nil {
				return err.Error()
			}
			sizes := []int{build.Covered}
			for _, b := range build.Batches {
				sizes = append(sizes, len(b.Subs))
			}
			return sizes
		})
		fr := &FinishRound{Round: round}
		for i := rng.Intn(4); i > 0; i-- {
			fr.Delivered = append(fr.Delivered, testMail(rng, testMailbox(rng.Intn(scheduleUsers))))
		}
		if rng.Intn(12) == 0 {
			fr.Removed = []string{string(who)}
		}
		each("finish", func(fe *Frontend) any {
			stats, err := fe.FinishRound(fr)
			return []any{stats, errText(err)}
		})
	case p < 80:
		r := round - min(round, uint64(rng.Intn(5)))
		each("ack", func(fe *Frontend) any { return fe.AckMailbox(r, who) })
	case p < 85:
		r := round - min(round, uint64(rng.Intn(4)))
		each("prune", func(fe *Frontend) any { fe.PruneBefore(r); return nil })
	case p < 90:
		*epoch++
		*numChains = 3 + 3*rng.Intn(2)
		each("rebalance", func(fe *Frontend) any { return errText(fe.Rebalance(*epoch, *numChains)) })
	default:
		for _, s := range shards {
			s.crash()
		}
	}
}

// TestImageIsTheLog is image ≡ log: the same seeded schedule of
// register / submit / begin / finish / ack / ban / prune / rebalance
// (and crashes) runs against a shard that compacts every other round
// and one that never does, so one recovers from image + tail and the
// other from the bare log. After a final crash both must re-emit
// byte-identical images and answer fetches and submissions alike; and
// the image is a fixed point — recovering from it alone re-emits it.
func TestImageIsTheLog(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			shards := []*durableShard{openShard(t, 2), openShard(t, 1_000_000)}
			epoch, numChains := uint64(0), 3
			for _, s := range shards {
				if err := s.fe.Rebalance(epoch, numChains); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i++ {
				scheduleStep(t, rng, shards, &epoch, &numChains)
			}
			for _, s := range shards {
				s.crash()
			}

			image := shards[0].emit()
			if other := shards[1].emit(); !bytes.Equal(image, other) {
				t.Fatalf("image+tail recovered to a %d-byte image, the bare log to %d bytes", len(image), len(other))
			}
			fixed, err := NewFrontend(FrontendConfig{MailboxServers: 2, Recovered: &store.Recovered{Snapshot: image}})
			if err != nil {
				t.Fatalf("recovering from the image alone: %v", err)
			}
			fixed.mu.Lock()
			again := fixed.imageLocked()
			fixed.mu.Unlock()
			if !bytes.Equal(again, image) {
				t.Fatalf("recover(image) re-emits %d bytes, the image was %d", len(again), len(image))
			}

			round := shards[0].fe.Round()
			for u := 0; u < scheduleUsers; u++ {
				for r := uint64(0); r <= round; r++ {
					a, b := shards[0].fe.FetchMailbox(r, testMailbox(u)), shards[1].fe.FetchMailbox(r, testMailbox(u))
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("user %d round %d: fetch answers differ (%d vs %d messages)", u, r, len(a), len(b))
					}
				}
				out := testOutput(rng, round, numChains)
				a, b := shards[0].fe.SubmitExternal(string(testMailbox(u)), out), shards[1].fe.SubmitExternal(string(testMailbox(u)), out)
				if fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("user %d: submit answers differ: %v vs %v", u, a, b)
				}
			}
		})
	}
}

// TestRecoverRefusesForeignImage: an image that does not open with a
// watermark — the versioned full-state layout of earlier builds began
// with a version varint — is refused by name, not half-read.
func TestRecoverRefusesForeignImage(t *testing.T) {
	for _, img := range [][]byte{{}, {1, 1, 0, 3, 0}} {
		_, err := NewFrontend(FrontendConfig{Recovered: &store.Recovered{Snapshot: img}})
		if !errors.Is(err, ErrImageFormat) {
			t.Fatalf("image %x: err = %v, want ErrImageFormat", img, err)
		}
	}
}

// TestCoverSurvivesRecovery: once a round's traffic is collected only
// next round's cover remains for the user (§5.3.3), and it must come
// back from the bare log — where the round's own watermark follows
// the submission, and replaying it used to re-adopt the plan and wipe
// every banked cover — and from an image, which says so with a
// submission record whose current lane is empty. Replaying that must
// leave the lane absent, as it is in the live shard: a present but
// empty current[ρ] would shadow a cover for ρ and refuse a
// resubmission for ρ as a duplicate.
func TestCoverSurvivesRecovery(t *testing.T) {
	for _, every := range []int{1, 1_000_000} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", every), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			s := openShard(t, every)
			if err := s.fe.Rebalance(0, 3); err != nil {
				t.Fatal(err)
			}
			who := string(testMailbox(0))
			if err := s.fe.SubmitExternal(who, testOutput(rng, 1, 3)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.fe.BeginRound(&BeginRound{Round: 1, Params: bareParams(1, 0, 3)}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.fe.FinishRound(&FinishRound{Round: 1}); err != nil {
				t.Fatal(err)
			}
			s.crash()
			eu := s.fe.bank[who]
			if eu == nil || len(eu.cover(2)) != 2 {
				t.Fatalf("round 2's cover did not survive recovery: %+v", eu)
			}
			if eu.current(1) != nil {
				t.Fatal("the consumed current lane came back")
			}
			// Round 2 runs on her cover.
			build, err := s.fe.BeginRound(&BeginRound{Round: 2, Params: bareParams(2, 0, 3)})
			if err != nil || build.Covered != 1 {
				t.Fatalf("round 2 covered %d users (err %v), want 1", build.Covered, err)
			}
		})
	}
}

// refusingStore refuses every record of one op.
type refusingStore struct {
	store.Store
	op store.Op
}

func (s refusingStore) Append(op store.Op, payload []byte) error {
	if op == s.op {
		return fmt.Errorf("store: op %d refused", op)
	}
	return s.Store.Append(op, payload)
}

// TestFinishRefusedAtPersistCommitsNothing: a store that refuses a
// round's deliveries or bans fails the commit, and the shard has
// delivered, banned and advanced nothing, so the round finishes again
// once the store takes it.
func TestFinishRefusedAtPersistCommitsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	who := testMailbox(0)
	for _, op := range []store.Op{opDeliver, opBan} {
		st := &refusingStore{Store: store.Mem{}, op: op}
		fe, err := NewFrontend(FrontendConfig{MailboxServers: 2, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.Register(who); err != nil {
			t.Fatal(err)
		}
		fr := &FinishRound{Round: 1, Delivered: [][]byte{testMail(rng, who)}, Removed: []string{string(testMailbox(1))}}
		if _, err := fe.FinishRound(fr); err == nil {
			t.Fatalf("op %d refused: the round committed", op)
		}
		if fe.Round() != 1 || len(fe.FetchMailbox(1, who)) != 0 || len(fe.banned) != 0 {
			t.Fatalf("op %d refused: round %d, %d messages, %d bans; want round 1 and nothing", op, fe.Round(), len(fe.FetchMailbox(1, who)), len(fe.banned))
		}
		st.op = 0
		if _, err := fe.FinishRound(fr); err != nil {
			t.Fatal(err)
		}
		if fe.Round() != 2 || len(fe.FetchMailbox(1, who)) != 1 || len(fe.banned) != 1 {
			t.Fatalf("op %d accepted again: round %d, %d messages, %d bans", op, fe.Round(), len(fe.FetchMailbox(1, who)), len(fe.banned))
		}
	}
}

// TestSplitDeliveriesReplay: a round's mail larger than three records'
// bound is logged as four or more opDeliver records, none over the
// bound, and the bare log and the image both replay it to identical
// mailboxes.
func TestSplitDeliveriesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := openShard(t, 1_000_000)
	fr := &FinishRound{Round: 1}
	for size := 0; size <= 3*deliverRecordBytes; {
		m := testMail(rng, testMailbox(rng.Intn(8)))
		fr.Delivered = append(fr.Delivered, m)
		size += len(m)
	}
	if _, err := s.fe.FinishRound(fr); err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, rec := range s.tap.records {
		if rec.Op == opDeliver {
			records++
			if len(rec.Payload) > deliverRecordBytes {
				t.Fatalf("a %d-byte deliver record, bound %d", len(rec.Payload), deliverRecordBytes)
			}
		}
	}
	if records < 4 {
		t.Fatalf("%d messages logged as %d deliver records, want 4 or more", len(fr.Delivered), records)
	}
	fetchAll := func(fe *Frontend) [][][]byte {
		var out [][][]byte
		for u := 0; u < 8; u++ {
			out = append(out, fe.FetchMailbox(1, testMailbox(u)))
		}
		return out
	}
	want, image := fetchAll(s.fe), s.emit()
	s.crash()
	if !reflect.DeepEqual(fetchAll(s.fe), want) {
		t.Fatal("the bare log replays to different mailboxes")
	}
	if !bytes.Equal(s.emit(), image) {
		t.Fatal("the bare log replays to a different image")
	}
	fe, err := NewFrontend(FrontendConfig{MailboxServers: 2, Recovered: &store.Recovered{Snapshot: image}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fetchAll(fe), want) {
		t.Fatal("the image replays to different mailboxes")
	}
}

// FuzzDurableReplay feeds the one decoder arbitrary record runs, as an
// image and as a WAL tail. Recovery may refuse them; a shard it does
// hand back must begin and finish a round and emit an image, which
// must itself recover, without panicking.
func FuzzDurableReplay(f *testing.F) {
	// Seeds: what a real shard wrote, whole and cut short.
	rng := rand.New(rand.NewSource(3))
	s := openShard(f, 3)
	epoch, numChains := uint64(0), 3
	if err := s.fe.Rebalance(epoch, numChains); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		scheduleStep(f, rng, []*durableShard{s}, &epoch, &numChains)
	}
	var run []byte
	for _, rec := range s.tap.records {
		run = appendRecord(run, rec.Op, rec.Payload)
	}
	f.Add(run)
	f.Add(run[:len(run)/2])
	f.Add(s.emit())
	// Three identifiers in one register record, and the same cut one
	// byte short; one round's mail as two deliver records.
	wm := appendRecord(nil, opWatermark, encodeWatermark(watermark{round: 2, numChains: 3}))
	ids := bytes.Join([][]byte{testMailbox(1), testMailbox(2), testMailbox(3)}, nil)
	f.Add(appendRecord(wm, opRegister, ids))
	f.Add(appendRecord(wm, opRegister, ids[:len(ids)-1]))
	mail := [][]byte{testMail(rng, testMailbox(1)), testMail(rng, testMailbox(2)), testMail(rng, testMailbox(1))}
	f.Add(appendRecord(appendRecord(wm, opDeliver, encodeDeliver(1, mail[:1])), opDeliver, encodeDeliver(1, mail[1:])))
	f.Add([]byte{byte(opWatermark), 4, 0, 0, 0, 0})
	f.Add([]byte{byte(opAck), 1, 9})
	f.Add([]byte{byte(opPrune), 2, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []store.Record
		for r := (&reader{b: data}); len(r.b) > 0; {
			rc, err := r.record()
			if err != nil {
				break
			}
			recs = append(recs, rc)
		}
		for _, rec := range []*store.Recovered{{Records: recs}, {Snapshot: data}} {
			fe, err := NewFrontend(FrontendConfig{Workers: 1, Recovered: rec})
			if err != nil {
				continue
			}
			numChains := 3
			if plan := fe.Plan(); plan != nil {
				numChains = plan.NumChains
			}
			if numChains > 64 {
				continue // a plan this wide is slow to build, not wrong
			}
			br := &BeginRound{Round: fe.Round(), Params: bareParams(fe.Round(), fe.Epoch(), numChains)}
			if _, err := fe.BeginRound(br); err != nil {
				t.Fatalf("begin on a recovered shard: %v", err)
			}
			if _, err := fe.FinishRound(&FinishRound{Round: br.Round}); err != nil {
				t.Fatalf("finish on a recovered shard: %v", err)
			}
			fe.mu.Lock()
			image := fe.imageLocked()
			fe.mu.Unlock()
			if _, err := NewFrontend(FrontendConfig{Recovered: &store.Recovered{Snapshot: image}}); err != nil {
				t.Fatalf("a shard's own image does not recover: %v", err)
			}
		}
	})
}
