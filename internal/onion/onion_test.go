package onion

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/kdf"
)

var scheme = aead.ChaCha20Poly1305()

func testKey() kdf.Key {
	var s [32]byte
	copy(s[:], []byte("test-conversation-shared-secret!"))
	return kdf.ConversationKey(s, []byte("recipient"))
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindLoopback, KindConversation, KindOffline} {
		p := Payload{Kind: kind, Body: []byte("hello, Bob")}
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != PlaintextSize {
			t.Fatalf("marshalled size %d, want %d", len(b), PlaintextSize)
		}
		got, err := ParsePayload(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != kind || !bytes.Equal(got.Body, p.Body) {
			t.Fatalf("round trip: got %+v", got)
		}
	}
}

func TestPayloadEmptyAndFull(t *testing.T) {
	for _, n := range []int{0, 1, BodySize} {
		p := Payload{Kind: KindConversation, Body: bytes.Repeat([]byte{0xAB}, n)}
		b, err := p.Marshal()
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		got, err := ParsePayload(b)
		if err != nil || len(got.Body) != n {
			t.Fatalf("size %d: %v, body %d", n, err, len(got.Body))
		}
	}
}

func TestPayloadTooLong(t *testing.T) {
	p := Payload{Body: make([]byte, BodySize+1)}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("oversized body accepted")
	}
}

func TestParsePayloadRejectsBadLength(t *testing.T) {
	if _, err := ParsePayload(make([]byte, PlaintextSize-1)); err == nil {
		t.Fatal("short plaintext accepted")
	}
	b := make([]byte, PlaintextSize)
	b[1], b[2] = 0xFF, 0xFF // body length 65535
	if _, err := ParsePayload(b); err == nil {
		t.Fatal("absurd body length accepted")
	}
}

// TestParsePayloadRejectsPadding: Marshal pads with zeros, so a byte
// set after the body is not a plaintext Marshal made.
func TestParsePayloadRejectsPadding(t *testing.T) {
	b, err := Payload{Kind: KindConversation, Body: []byte("hi")}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] = 1
	if _, err := ParsePayload(b); err == nil {
		t.Fatal("non-zero padding accepted")
	}
}

// FuzzParsePayload: an accepted plaintext marshals back to the same
// bytes — one payload, one encoding.
func FuzzParsePayload(f *testing.F) {
	for _, p := range []Payload{{}, {Kind: KindConversation, Body: []byte("hello")}, {Kind: KindOffline, Body: bytes.Repeat([]byte{0xAB}, BodySize)}} {
		b, err := p.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		tail := bytes.Clone(b)
		tail[len(tail)-1] ^= 1
		f.Add(tail)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePayload(data)
		if err != nil {
			return
		}
		enc, err := p.Marshal()
		if err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, marshals as %x (%v)", data, enc, err)
		}
	})
}

func TestMailboxMessageRoundTrip(t *testing.T) {
	recipient := group.GenerateBaseKeyPair()
	key := testKey()
	nonce := aead.RoundNonce(3, 0)
	p := Payload{Kind: KindConversation, Body: []byte("see you at the crossroads")}
	msg, err := SealMailboxMessage(scheme, key, nonce, recipient.Public, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg) != MailboxMessageSize {
		t.Fatalf("mailbox message size %d, want %d", len(msg), MailboxMessageSize)
	}
	rcpt, err := Recipient(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rcpt, recipient.Public.Bytes()) {
		t.Fatal("recipient extraction failed")
	}
	got, err := OpenMailboxMessage(scheme, key, nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindConversation || !bytes.Equal(got.Body, p.Body) {
		t.Fatalf("round trip: got %+v", got)
	}
}

func TestMailboxMessageWrongKeyOrRound(t *testing.T) {
	recipient := group.GenerateBaseKeyPair()
	nonce := aead.RoundNonce(3, 0)
	msg, err := SealMailboxMessage(scheme, testKey(), nonce, recipient.Public, Payload{Kind: KindLoopback})
	if err != nil {
		t.Fatal(err)
	}
	var other [32]byte
	other[0] = 9
	if _, err := OpenMailboxMessage(scheme, kdf.ConversationKey(other, nil), nonce, msg); err == nil {
		t.Fatal("wrong key accepted")
	}
	if _, err := OpenMailboxMessage(scheme, testKey(), aead.RoundNonce(4, 0), msg); err == nil {
		t.Fatal("cross-round replay accepted")
	}
}

func testMailboxMsg(t *testing.T, nonce [aead.NonceSize]byte) []byte {
	t.Helper()
	recipient := group.GenerateBaseKeyPair()
	msg, err := SealMailboxMessage(scheme, testKey(), nonce, recipient.Public, Payload{Kind: KindLoopback})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// aggInner builds the aggregate inner key and its secret sum as the
// chain does at setup.
func aggInner(k int) (group.Point, group.Scalar) {
	sum := group.NewScalar(0)
	agg := group.Identity()
	for i := 0; i < k; i++ {
		kp := group.GenerateBaseKeyPair()
		sum = sum.Add(kp.Private)
		agg = agg.Add(kp.Public)
	}
	return agg, sum
}

// ahsBlindingChain generates AHS key material: blinding and mixing
// keys chained per §6.1.
func ahsBlindingChain(k int) (bsk, msk []group.Scalar, bpk, mpk []group.Point) {
	base := group.Generator()
	for i := 0; i < k; i++ {
		b := group.MustRandomScalar()
		m := group.MustRandomScalar()
		bsk = append(bsk, b)
		msk = append(msk, m)
		bpk = append(bpk, base.Mul(b))
		mpk = append(mpk, base.Mul(m))
		base = bpk[i]
	}
	return
}

func TestAHSFullPath(t *testing.T) {
	const k = 4
	const round = 9
	const chain = 2
	nonce := aead.RoundNonce(round, 0)
	bsk, msk, _, mpk := ahsBlindingChain(k)
	innerAgg, innerSum := aggInner(k)
	mailbox := testMailboxMsg(t, nonce)

	sub, err := WrapAHS(scheme, innerAgg, mpk, round, chain, nonce, mailbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Ct) != AHSCiphertextSize(k) {
		t.Fatalf("AHS ciphertext size %d, want %d", len(sub.Ct), AHSCiphertextSize(k))
	}
	if err := VerifySubmission(sub, round, chain); err != nil {
		t.Fatalf("valid submission rejected: %v", err)
	}

	// Each server peels one layer and blinds the DH key.
	env := sub.Envelope
	for i := 0; i < k; i++ {
		next, err := PeelAHS(scheme, msk[i], nonce, env)
		if err != nil {
			t.Fatalf("server %d peel: %v", i, err)
		}
		env = Envelope{DHKey: env.DHKey.Mul(bsk[i]), Ct: next}
	}
	got, err := OpenInner(scheme, innerSum, nonce, env.Ct)
	if err != nil {
		t.Fatalf("inner open: %v", err)
	}
	if !bytes.Equal(got, mailbox) {
		t.Fatal("AHS did not deliver the mailbox message")
	}
}

// TestWrapAHSBatchJobsAreIndependent builds onions for chains of
// different lengths (one with no mix server at all), rounds, and key
// kinds — tabled and bare — in one batch, and peels each with its own
// chain's secrets: sharing the exponentiation batches must not leak one
// job's keys, scalars or buffers into another's. A malformed job
// refuses the whole batch.
func TestWrapAHSBatchJobsAreIndependent(t *testing.T) {
	type chainSecrets struct {
		bsk, msk []group.Scalar
		innerSum group.Scalar
	}
	var jobs []WrapJob
	var keys []chainSecrets
	for i, k := range []int{4, 0, 7, 1, 4} {
		bsk, msk, _, mpk := ahsBlindingChain(k)
		innerAgg, innerSum := aggInner(max(k, 1))
		if i%2 == 0 {
			innerAgg = innerAgg.Precomputed()
			for j := range mpk {
				mpk[j] = mpk[j].Precomputed()
			}
		}
		round := uint64(9 + i%2)
		nonce := aead.RoundNonce(round, 0)
		jobs = append(jobs, WrapJob{innerAgg, mpk, round, i, nonce, testMailboxMsg(t, nonce)})
		keys = append(keys, chainSecrets{bsk, msk, innerSum})
	}
	subs, err := WrapAHSBatch(scheme, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for j, sub := range subs {
		job, k := jobs[j], len(jobs[j].MixKeys)
		if len(sub.Ct) != AHSCiphertextSize(k) {
			t.Fatalf("job %d: ciphertext size %d, want %d", j, len(sub.Ct), AHSCiphertextSize(k))
		}
		if err := VerifySubmission(sub, job.Round, job.Chain); err != nil {
			t.Fatalf("job %d: valid submission rejected: %v", j, err)
		}
		env := sub.Envelope
		for i := 0; i < k; i++ {
			next, err := PeelAHS(scheme, keys[j].msk[i], job.Nonce, env)
			if err != nil {
				t.Fatalf("job %d server %d peel: %v", j, i, err)
			}
			env = Envelope{DHKey: env.DHKey.Mul(keys[j].bsk[i]), Ct: next}
		}
		got, err := OpenInner(scheme, keys[j].innerSum, job.Nonce, env.Ct)
		if err != nil {
			t.Fatalf("job %d inner open: %v", j, err)
		}
		if !bytes.Equal(got, job.MailboxMsg) {
			t.Fatalf("job %d did not deliver its mailbox message", j)
		}
		for i := 0; i < j; i++ {
			if subs[i].DHKey.Equal(sub.DHKey) {
				t.Fatalf("jobs %d and %d share a DH key", i, j)
			}
		}
	}
	jobs[2].MailboxMsg = jobs[2].MailboxMsg[1:]
	if _, err := WrapAHSBatch(scheme, jobs); !errors.Is(err, ErrFormat) {
		t.Fatalf("a short mailbox message gave %v, want ErrFormat", err)
	}
	if subs, err := WrapAHSBatch(scheme, nil); err != nil || len(subs) != 0 {
		t.Fatalf("the empty batch gave %d submissions, %v", len(subs), err)
	}
}

func TestAHSSubmissionReplayRejected(t *testing.T) {
	const k = 3
	nonce := aead.RoundNonce(5, 0)
	_, _, _, mpk := ahsBlindingChain(k)
	innerAgg, _ := aggInner(k)
	sub, err := WrapAHS(scheme, innerAgg, mpk, 5, 1, nonce, testMailboxMsg(t, nonce))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySubmission(sub, 6, 1); err == nil {
		t.Fatal("submission replayed into another round")
	}
	if err := VerifySubmission(sub, 5, 2); err == nil {
		t.Fatal("submission replayed into another chain")
	}
}

func TestAHSTamperedCiphertextFailsAuth(t *testing.T) {
	const k = 3
	nonce := aead.RoundNonce(5, 0)
	_, msk, _, mpk := ahsBlindingChain(k)
	innerAgg, _ := aggInner(k)
	sub, err := WrapAHS(scheme, innerAgg, mpk, 5, 0, nonce, testMailboxMsg(t, nonce))
	if err != nil {
		t.Fatal(err)
	}
	bad := sub.Envelope.Clone()
	bad.Ct[10] ^= 1
	if _, err := PeelAHS(scheme, msk[0], nonce, bad); err == nil {
		t.Fatal("tampered AHS layer decrypted")
	}
}

// TestAHSRevealedKeyDecryption mirrors the blame protocol's step 2:
// decryption with the revealed exchanged key must agree with the
// server's own decryption.
func TestAHSRevealedKeyDecryption(t *testing.T) {
	const k = 2
	nonce := aead.RoundNonce(5, 0)
	_, msk, _, mpk := ahsBlindingChain(k)
	innerAgg, _ := aggInner(k)
	sub, err := WrapAHS(scheme, innerAgg, mpk, 5, 0, nonce, testMailboxMsg(t, nonce))
	if err != nil {
		t.Fatal(err)
	}
	own, err := PeelAHS(scheme, msk[0], nonce, sub.Envelope)
	if err != nil {
		t.Fatal(err)
	}
	revealed := sub.DHKey.Mul(msk[0])
	viaReveal, err := OpenWithRevealedKey(scheme, revealed, nonce, sub.Ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own, viaReveal) {
		t.Fatal("revealed-key decryption disagrees with server decryption")
	}
}

func TestOpenInnerWrongSum(t *testing.T) {
	const k = 2
	nonce := aead.RoundNonce(5, 0)
	bsk, msk, _, mpk := ahsBlindingChain(k)
	innerAgg, innerSum := aggInner(k)
	sub, err := WrapAHS(scheme, innerAgg, mpk, 5, 0, nonce, testMailboxMsg(t, nonce))
	if err != nil {
		t.Fatal(err)
	}
	env := sub.Envelope
	for i := 0; i < k; i++ {
		next, err := PeelAHS(scheme, msk[i], nonce, env)
		if err != nil {
			t.Fatal(err)
		}
		env = Envelope{DHKey: env.DHKey.Mul(bsk[i]), Ct: next}
	}
	badSum := innerSum.Add(group.NewScalar(1))
	if _, err := OpenInner(scheme, badSum, nonce, env.Ct); err == nil {
		t.Fatal("inner envelope opened with wrong inner-key sum")
	}
}

// TestWireSizes records the sizes that feed the Figure 2 bandwidth
// model and ensures they only change deliberately.
func TestWireSizes(t *testing.T) {
	if MailboxMessageSize != 33+259+16 {
		t.Fatalf("MailboxMessageSize = %d", MailboxMessageSize)
	}
	if got := AHSCiphertextSize(32); got != 33+308+16+32*16 {
		t.Fatalf("AHSCiphertextSize(32) = %d", got)
	}
}

// benchWrapAHS times WrapAHS against a k-server chain whose keys are
// bare points (the stdlib exponentiation per key) or carry fixed-key
// tables, already built (what every user after a chain's first pays).
func benchWrapAHS(b *testing.B, k int, precomputed bool) {
	nonce := aead.RoundNonce(1, 0)
	_, _, _, mpk := ahsBlindingChain(k)
	innerAgg, _ := aggInner(k)
	if precomputed {
		innerAgg = innerAgg.Precomputed()
		for i := range mpk {
			mpk[i] = mpk[i].Precomputed()
		}
	}
	recipient := group.GenerateBaseKeyPair()
	msg, err := SealMailboxMessage(scheme, testKey(), nonce, recipient.Public, Payload{Kind: KindLoopback})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := WrapAHS(scheme, innerAgg, mpk, 1, 0, nonce, msg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WrapAHS(scheme, innerAgg, mpk, 1, 0, nonce, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrapAHS32Layers(b *testing.B) { benchWrapAHS(b, 32, false) }

// BenchmarkWrapAHSPrecomputed is the build side as deployments run it:
// keys from mix.Chain, a shard's snapshot or rpc.Client carry tables.
// bare/k=… is the same onion against bare points, for the ratio.
func BenchmarkWrapAHSPrecomputed(b *testing.B) {
	for _, k := range []int{2, 6, 32} {
		b.Run(fmt.Sprintf("bare/k=%d", k), func(b *testing.B) { benchWrapAHS(b, k, false) })
		b.Run(fmt.Sprintf("tabled/k=%d", k), func(b *testing.B) { benchWrapAHS(b, k, true) })
	}
}

func BenchmarkPeelAHS(b *testing.B) {
	const k = 32
	nonce := aead.RoundNonce(1, 0)
	_, msk, _, mpk := ahsBlindingChain(k)
	innerAgg, _ := aggInner(k)
	recipient := group.GenerateBaseKeyPair()
	msg, _ := SealMailboxMessage(scheme, testKey(), nonce, recipient.Public, Payload{Kind: KindLoopback})
	sub, err := WrapAHS(scheme, innerAgg, mpk, 1, 0, nonce, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PeelAHS(scheme, msk[0], nonce, sub.Envelope); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQuickAHSRoundTrip is a property test over random bodies and
// rounds: a full wrap -> peel×k -> blind×k -> inner-open cycle always
// recovers the original mailbox message.
func TestQuickAHSRoundTrip(t *testing.T) {
	const k = 3
	bsk, msk, _, mpk := ahsBlindingChain(k)
	innerAgg, innerSum := aggInner(k)
	f := func(round uint64, body []byte) bool {
		if len(body) > BodySize {
			body = body[:BodySize]
		}
		nonce := aead.RoundNonce(round, 0)
		recipient := group.GenerateBaseKeyPair()
		key := kdf.ConversationKey([32]byte{1}, recipient.Public.Bytes())
		msg, err := SealMailboxMessage(scheme, key, nonce, recipient.Public,
			Payload{Kind: KindConversation, Body: body})
		if err != nil {
			return false
		}
		sub, err := WrapAHS(scheme, innerAgg, mpk, round, 0, nonce, msg)
		if err != nil {
			return false
		}
		if VerifySubmission(sub, round, 0) != nil {
			return false
		}
		env := sub.Envelope
		for i := 0; i < k; i++ {
			next, err := PeelAHS(scheme, msk[i], nonce, env)
			if err != nil {
				return false
			}
			env = Envelope{DHKey: env.DHKey.Mul(bsk[i]), Ct: next}
		}
		got, err := OpenInner(scheme, innerSum, nonce, env.Ct)
		if err != nil {
			return false
		}
		p, err := OpenMailboxMessage(scheme, key, nonce, got)
		return err == nil && bytes.Equal(p.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
