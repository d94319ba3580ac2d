package mix

import (
	"bytes"
	"encoding/gob"
	"sort"
	"testing"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/onion"
)

var scheme = aead.ChaCha20Poly1305()

// testChain builds a k-server chain with fresh round 1 keys.
func testChain(t testing.TB, k int) *Chain {
	t.Helper()
	c, err := NewChain(0, k, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(1); err != nil {
		t.Fatal(err)
	}
	return c
}

// honestSubmission builds a valid submission carrying a recognizable
// body addressed to a fresh recipient, returning the submission and
// the expected mailbox message.
func honestSubmission(t testing.TB, c *Chain, tag byte) (onion.Submission, []byte) {
	t.Helper()
	p := c.Params()
	nonce := aead.RoundNonce(p.Round, 0)
	recipient := group.GenerateBaseKeyPair()
	var secret [32]byte
	secret[0] = tag
	key := kdf.ConversationKey(secret, recipient.Public.Bytes())
	msg, err := onion.SealMailboxMessage(scheme, key, nonce, recipient.Public,
		onion.Payload{Kind: onion.KindConversation, Body: []byte{tag}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := onion.WrapAHS(scheme, p.InnerAggregate, p.MixKeys, p.Round, p.ChainID, nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	return sub, msg
}

func submitMany(t testing.TB, c *Chain, n int) ([]onion.Submission, map[string]bool) {
	t.Helper()
	subs := make([]onion.Submission, n)
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		sub, msg := honestSubmission(t, c, byte(i))
		subs[i] = sub
		want[string(msg)] = true
	}
	return subs, want
}

func TestHonestRoundDeliversAll(t *testing.T) {
	c := testChain(t, 4)
	subs, want := submitMany(t, c, 12)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedServers) != 0 || len(res.BlamedUsers) != 0 {
		t.Fatalf("honest round reported misbehaviour: %+v", res)
	}
	if len(res.Delivered) != len(subs) {
		t.Fatalf("delivered %d of %d", len(res.Delivered), len(subs))
	}
	for _, m := range res.Delivered {
		if !want[string(m)] {
			t.Fatal("delivered message not among submissions")
		}
		delete(want, string(m))
	}
}

func TestRoundRejectsWrongRound(t *testing.T) {
	c := testChain(t, 3)
	subs, _ := submitMany(t, c, 2)
	if _, err := c.RunRound(2, 0, subs); err == nil {
		t.Fatal("round with stale keys accepted")
	}
}

// TestOutputIsShuffled checks the permutation is applied: running the
// same submissions through the same round twice must yield different
// delivery orders (the permutation is fresh per run; a collision over
// 32 messages has probability 1/32!).
func TestOutputIsShuffled(t *testing.T) {
	c := testChain(t, 3)
	const n = 32
	subs, _ := submitMany(t, c, n)
	res1, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Delivered) != n || len(res2.Delivered) != n {
		t.Fatalf("delivered %d and %d of %d", len(res1.Delivered), len(res2.Delivered), n)
	}
	same := true
	for i := range res1.Delivered {
		if !bytes.Equal(res1.Delivered[i], res2.Delivered[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two shuffles produced the identical order")
	}
}

// TestMaliciousUserInvalidProof: submissions with broken PoKs are
// rejected before mixing and their senders identified (§6.4).
func TestMaliciousUserInvalidProof(t *testing.T) {
	c := testChain(t, 3)
	subs, _ := submitMany(t, c, 5)
	bad, err := InvalidProofSubmission(scheme, c.Params(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	subs = append(subs, bad)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("chain halted for a user-only attack")
	}
	if len(res.BlamedUsers) != 1 || res.BlamedUsers[0] != 5 {
		t.Fatalf("blamed users = %v, want [5]", res.BlamedUsers)
	}
	if len(res.Delivered) != 5 {
		t.Fatalf("delivered %d of 5 honest messages", len(res.Delivered))
	}
	// The round's input digest covers what was accepted, not what was
	// submitted.
	if res.InputDigest != InputDigest(1, c.ID, subs[:5]) || res.InputDigest == InputDigest(1, c.ID, subs) {
		t.Fatal("RoundResult.InputDigest is not the digest of the five accepted submissions")
	}
}

// TestMaliciousUserMisauthenticatedCiphertext: a user whose onion
// fails at an interior server is convicted by the blame protocol and
// removed; honest messages still flow (§6.4).
func TestMaliciousUserMisauthenticatedCiphertext(t *testing.T) {
	for _, badLayer := range []int{0, 1, 3} {
		c := testChain(t, 4)
		subs, want := submitMany(t, c, 6)
		bad, err := MaliciousSubmission(scheme, c.Params(), 1, 0, badLayer)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, bad)
		res, err := c.RunRound(1, 0, subs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Halted || len(res.BlamedServers) != 0 {
			t.Fatalf("badLayer=%d: servers blamed for a user attack: %+v", badLayer, res)
		}
		if len(res.BlamedUsers) != 1 || res.BlamedUsers[0] != 6 {
			t.Fatalf("badLayer=%d: blamed users = %v, want [6]", badLayer, res.BlamedUsers)
		}
		if res.BlameRounds == 0 {
			t.Fatalf("badLayer=%d: blame protocol did not run", badLayer)
		}
		if len(res.Delivered) != 6 {
			t.Fatalf("badLayer=%d: delivered %d of 6", badLayer, len(res.Delivered))
		}
		for _, m := range res.Delivered {
			if !want[string(m)] {
				t.Fatalf("badLayer=%d: unexpected delivery", badLayer)
			}
		}
	}
}

// TestManyMaliciousUsers: multiple misauthenticated ciphertexts are
// all attributed in one blame round (Figure 7's scenario).
func TestManyMaliciousUsers(t *testing.T) {
	c := testChain(t, 3)
	subs, _ := submitMany(t, c, 8)
	params := c.Params()
	wantBlamed := map[int]bool{}
	for i := 0; i < 4; i++ {
		bad, err := MaliciousSubmission(scheme, params, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, bad)
		wantBlamed[8+i] = true
	}
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("halted on user-only attack")
	}
	if len(res.BlamedUsers) != 4 {
		t.Fatalf("blamed %v, want 4 users", res.BlamedUsers)
	}
	for _, u := range res.BlamedUsers {
		if !wantBlamed[u] {
			t.Fatalf("blamed honest user %d", u)
		}
	}
	if len(res.Delivered) != 8 {
		t.Fatalf("delivered %d of 8", len(res.Delivered))
	}
}

// TestServerTamperPairDetected: the product-preserving key tamper
// passes the shuffle certificate but is convicted by the blame
// protocol at the next server, and the chain halts with no delivery
// (Appendix A's game).
func TestServerTamperPairDetected(t *testing.T) {
	c := testChain(t, 4)
	c.Servers[1].Corruption = &Corruption{TamperPairs: [][2]int{{0, 1}}}
	subs, _ := submitMany(t, c, 6)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("tampering did not halt the chain")
	}
	if len(res.Delivered) != 0 {
		t.Fatal("messages delivered despite tampering")
	}
	if len(res.BlamedServers) != 1 || res.BlamedServers[0] != 1 {
		t.Fatalf("blamed servers = %v, want [1]", res.BlamedServers)
	}
	if len(res.BlamedUsers) != 0 {
		t.Fatalf("honest users blamed: %v", res.BlamedUsers)
	}
}

// TestServerReplaceEnvelopeDetected: wholesale substitution (§4.1's
// attack) breaks the key product and fails the shuffle certificate
// immediately.
func TestServerReplaceEnvelopeDetected(t *testing.T) {
	c := testChain(t, 4)
	target := group.GenerateBaseKeyPair()
	crafted, err := CraftValidOnion(scheme, c.Params(), 1, 0, target.Public)
	if err != nil {
		t.Fatal(err)
	}
	// The substituted envelope must look like a position-1 envelope;
	// using the fresh submission envelope suffices for the test since
	// detection happens before any decryption of it.
	c.Servers[1].Corruption = &Corruption{ReplaceOutput: map[int]onion.Envelope{2: crafted.Envelope}}
	subs, _ := submitMany(t, c, 6)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Delivered) != 0 {
		t.Fatal("substitution not detected")
	}
	if len(res.BlamedServers) != 1 || res.BlamedServers[0] != 1 {
		t.Fatalf("blamed servers = %v, want [1]", res.BlamedServers)
	}
}

// TestServerGarbleCiphertextDetected: garbling a ciphertext while
// leaving keys intact is convicted by the blame replay (step 3b).
func TestServerGarbleCiphertextDetected(t *testing.T) {
	c := testChain(t, 4)
	c.Servers[0].Corruption = &Corruption{GarbleCiphertext: []int{3}}
	subs, _ := submitMany(t, c, 6)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Delivered) != 0 {
		t.Fatal("garbling not detected")
	}
	if len(res.BlamedServers) != 1 || res.BlamedServers[0] != 0 {
		t.Fatalf("blamed servers = %v, want [0]", res.BlamedServers)
	}
	if len(res.BlamedUsers) != 0 {
		t.Fatalf("honest users blamed: %v", res.BlamedUsers)
	}
}

// TestServerDropMessageDetected: dropping a message changes the count
// and every verifier notices.
func TestServerDropMessageDetected(t *testing.T) {
	c := testChain(t, 3)
	drop := 2
	c.Servers[1].Corruption = &Corruption{DropOutput: &drop}
	subs, _ := submitMany(t, c, 5)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.BlamedServers) != 1 || res.BlamedServers[0] != 1 {
		t.Fatalf("drop not detected: %+v", res)
	}
}

// TestServerBadProofDetected: an invalid shuffle certificate halts
// the round at once.
func TestServerBadProofDetected(t *testing.T) {
	c := testChain(t, 3)
	c.Servers[2].Corruption = &Corruption{BadMixProof: true}
	subs, _ := submitMany(t, c, 4)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.BlamedServers) != 1 || res.BlamedServers[0] != 2 {
		t.Fatalf("bad proof not detected: %+v", res)
	}
}

// TestFalseAccusationConvictsAccuser: a server that accuses an honest
// message is itself blamed when the revealed key decrypts the
// ciphertext successfully (§6.4 analysis), and no honest user is
// convicted.
func TestFalseAccusationConvictsAccuser(t *testing.T) {
	c := testChain(t, 4)
	c.Servers[2].Corruption = &Corruption{FalselyAccuse: []int{1}}
	subs, _ := submitMany(t, c, 5)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("false accusation did not halt the round")
	}
	if len(res.BlamedUsers) != 0 {
		t.Fatalf("honest users convicted by false accusation: %v", res.BlamedUsers)
	}
	if len(res.BlamedServers) != 1 || res.BlamedServers[0] != 2 {
		t.Fatalf("blamed servers = %v, want [2]", res.BlamedServers)
	}
}

// TestWithheldInnerKeyHaltsWithoutDelivery: refusing the inner key
// reveal denies service but reveals nothing.
func TestWithheldInnerKeyHaltsWithoutDelivery(t *testing.T) {
	c := testChain(t, 3)
	c.Servers[1].Corruption = &Corruption{WithholdInnerKey: true}
	subs, _ := submitMany(t, c, 4)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Delivered) != 0 {
		t.Fatal("withheld inner key did not halt delivery")
	}
	if len(res.BlamedServers) != 1 || res.BlamedServers[0] != 1 {
		t.Fatalf("blamed servers = %v, want [1]", res.BlamedServers)
	}
}

// TestMalformedInnerEnvelopeDropped: garbage below the outer layers
// (valid outer onion, broken inner envelope) survives mixing and is
// dropped at inner decryption without affecting others.
func TestMalformedInnerEnvelopeDropped(t *testing.T) {
	c := testChain(t, 3)
	subs, _ := submitMany(t, c, 4)
	p := c.Params()
	nonce := aead.RoundNonce(1, 0)
	garbage := make([]byte, onion.AHSCiphertextSize(len(p.MixKeys))-len(p.MixKeys)*aead.Overhead)
	for i := range garbage {
		garbage[i] = byte(i * 7)
	}
	bad, err := onion.WrapPartialAHS(scheme, p.MixKeys, 1, p.ChainID, nonce, garbage)
	if err != nil {
		t.Fatal(err)
	}
	subs = append(subs, bad)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedServers) != 0 || len(res.BlamedUsers) != 0 {
		t.Fatalf("unexpected blame: %+v", res)
	}
	if res.DroppedInner != 1 {
		t.Fatalf("DroppedInner = %d, want 1", res.DroppedInner)
	}
	if len(res.Delivered) != 4 {
		t.Fatalf("delivered %d of 4", len(res.Delivered))
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	c := testChain(t, 4)
	p := c.Params()
	nonce := aead.RoundNonce(1, 0)
	const n = 10
	cts := make([][]byte, n)
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		recipient := group.GenerateBaseKeyPair()
		var secret [32]byte
		secret[0] = byte(i)
		key := kdf.ConversationKey(secret, recipient.Public.Bytes())
		msg, err := onion.SealMailboxMessage(scheme, key, nonce, recipient.Public,
			onion.Payload{Kind: onion.KindLoopback})
		if err != nil {
			t.Fatal(err)
		}
		want[string(msg)] = true
		ct, err := onion.WrapBaseline(scheme, p.BaselineKeys, nonce, msg)
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	out, err := c.RunRoundBaseline(1, 0, cts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("baseline delivered %d of %d", len(out), n)
	}
	for _, m := range out {
		if !want[string(m)] {
			t.Fatal("baseline delivered unexpected message")
		}
	}
}

// TestBaselineSilentlyDropsTampered documents why AHS exists: the
// baseline cannot attribute or even reliably detect tampering.
func TestBaselineSilentlyDropsTampered(t *testing.T) {
	c := testChain(t, 3)
	p := c.Params()
	nonce := aead.RoundNonce(1, 0)
	recipient := group.GenerateBaseKeyPair()
	var secret [32]byte
	key := kdf.ConversationKey(secret, recipient.Public.Bytes())
	msg, err := onion.SealMailboxMessage(scheme, key, nonce, recipient.Public, onion.Payload{Kind: onion.KindLoopback})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := onion.WrapBaseline(scheme, p.BaselineKeys, nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	ct[40] ^= 1
	out, err := c.RunRoundBaseline(1, 0, [][]byte{ct})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("tampered baseline message was delivered")
	}
}

func TestChainRejectsZeroServers(t *testing.T) {
	if _, err := NewChain(0, 0, scheme); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestEmptyRound(t *testing.T) {
	c := testChain(t, 3)
	res, err := c.RunRound(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.Delivered) != 0 {
		t.Fatalf("empty round misbehaved: %+v", res)
	}
}

func TestMultipleRoundsRotateInnerKeys(t *testing.T) {
	c := testChain(t, 3)
	agg1 := c.Params().InnerAggregate
	subs, _ := submitMany(t, c, 3)
	if _, err := c.RunRound(1, 0, subs); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(2); err != nil {
		t.Fatal(err)
	}
	agg2 := c.Params().InnerAggregate
	if agg1.Equal(agg2) {
		t.Fatal("inner aggregate did not rotate between rounds")
	}
	subs2, _ := submitMany(t, c, 3)
	res, err := c.RunRound(2, 0, subs2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 3 {
		t.Fatalf("round 2 delivered %d of 3", len(res.Delivered))
	}
}

func BenchmarkChainRound32Servers100Msgs(b *testing.B) {
	c := testChain(b, 32)
	subs := make([]onion.Submission, 100)
	for i := range subs {
		sub, _ := honestSubmission(b, c, byte(i))
		subs[i] = sub
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.RunRound(1, 0, subs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Delivered) != len(subs) {
			b.Fatalf("delivered %d", len(res.Delivered))
		}
	}
}

// TestBlameRemovesAllMessages: when every message in a batch is
// malicious, blame convicts them all and the round ends empty without
// falsely accusing any server (the empty-product edge case after
// removal).
func TestBlameRemovesAllMessages(t *testing.T) {
	c := testChain(t, 3)
	params := c.Params()
	var subs []onion.Submission
	for i := 0; i < 2; i++ {
		bad, err := MaliciousSubmission(scheme, params, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, bad)
	}
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedServers) != 0 {
		t.Fatalf("servers blamed for an all-malicious batch: %+v", res)
	}
	if len(res.BlamedUsers) != 2 {
		t.Fatalf("blamed users = %v, want both", res.BlamedUsers)
	}
	if len(res.Delivered) != 0 {
		t.Fatalf("delivered %d from an all-malicious batch", len(res.Delivered))
	}
}

// TestBlameAtFirstServerOnly: a single malicious message that is the
// entire batch, failing at layer 0.
func TestBlameAtFirstServerOnly(t *testing.T) {
	c := testChain(t, 3)
	bad, err := MaliciousSubmission(scheme, c.Params(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunRound(1, 0, []onion.Submission{bad})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedServers) != 0 || len(res.BlamedUsers) != 1 {
		t.Fatalf("res: %+v", res)
	}
}

// TestMaliciousUsersAtDifferentLayers: failures surfacing at two
// different servers trigger two blame executions, both attributed to
// users, and honest traffic flows.
func TestMaliciousUsersAtDifferentLayers(t *testing.T) {
	c := testChain(t, 4)
	subs, _ := submitMany(t, c, 5)
	params := c.Params()
	for _, layer := range []int{1, 3} {
		bad, err := MaliciousSubmission(scheme, params, 1, 0, layer)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, bad)
	}
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedServers) != 0 {
		t.Fatalf("servers blamed: %+v", res)
	}
	if len(res.BlamedUsers) != 2 {
		t.Fatalf("blamed = %v, want 2 users", res.BlamedUsers)
	}
	if res.BlameRounds != 2 {
		t.Fatalf("blame rounds = %d, want 2", res.BlameRounds)
	}
	if len(res.Delivered) != 5 {
		t.Fatalf("delivered %d of 5", len(res.Delivered))
	}
}

// TestLastServerGarbleDropsInner exercises §6's central observation:
// tampering downstream of the honest shuffler gains the adversary
// nothing. Garbling the LAST server's output corrupts only inner
// envelopes whose origins are already hidden; the messages drop at
// inner decryption and no blame is needed for privacy.
func TestLastServerGarbleDropsInner(t *testing.T) {
	c := testChain(t, 3)
	c.Servers[2].Corruption = &Corruption{GarbleCiphertext: []int{0}}
	subs, _ := submitMany(t, c, 4)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	// The key product is untouched, so the certificate verifies; the
	// garbled inner envelope fails to open and is dropped.
	if res.Halted {
		t.Fatalf("halted: %+v", res)
	}
	if res.DroppedInner != 1 || len(res.Delivered) != 3 {
		t.Fatalf("dropped=%d delivered=%d, want 1/3", res.DroppedInner, len(res.Delivered))
	}
}

// TestTwoCorruptServers: colluding tamperers at different positions
// are still caught — the first decryption failure downstream of the
// earliest tamper triggers blame against it.
func TestTwoCorruptServers(t *testing.T) {
	c := testChain(t, 4)
	c.Servers[0].Corruption = &Corruption{TamperPairs: [][2]int{{0, 1}}}
	c.Servers[2].Corruption = &Corruption{TamperPairs: [][2]int{{2, 3}}}
	subs, _ := submitMany(t, c, 6)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Delivered) != 0 {
		t.Fatal("collusion not detected")
	}
	if len(res.BlamedServers) == 0 || res.BlamedServers[0] != 0 {
		t.Fatalf("blamed servers = %v, want the earliest tamperer first", res.BlamedServers)
	}
	if len(res.BlamedUsers) != 0 {
		t.Fatalf("honest users blamed: %v", res.BlamedUsers)
	}
}

// TestMixedUserAndServerMisbehaviour: a malicious user and a
// tampering server in the same round; the server conviction halts the
// chain and the honest users stay unconvicted.
func TestMixedUserAndServerMisbehaviour(t *testing.T) {
	c := testChain(t, 4)
	c.Servers[2].Corruption = &Corruption{GarbleCiphertext: []int{1}}
	subs, _ := submitMany(t, c, 5)
	bad, err := MaliciousSubmission(scheme, c.Params(), 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	subs = append(subs, bad)
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("server tamper not detected")
	}
	for _, u := range res.BlamedUsers {
		if u != 5 {
			t.Fatalf("honest user %d blamed", u)
		}
	}
	if len(res.BlamedServers) != 1 || res.BlamedServers[0] != 2 {
		t.Fatalf("blamed servers = %v, want [2]", res.BlamedServers)
	}
}

// TestBatchBlamePathMatchesSerial pins the tentpole contract of
// batched submission verification end to end through RunRound: the
// chain blames exactly the same user indices a serial per-proof sweep
// identifies, plus the same deep failures the blame protocol finds.
// (The walk and the chunking above it are pinned at size by
// TestDefectWalkMatchesSweep.)
func TestBatchBlamePathMatchesSerial(t *testing.T) {
	c := testChain(t, 3)
	params := c.Params()
	subs, _ := submitMany(t, c, 40)

	// Invalid knowledge proofs scattered across the batch, including
	// both ends (bisection boundaries).
	badProof := map[int]bool{}
	for _, i := range []int{0, 13, 27, 39} {
		bad, err := InvalidProofSubmission(scheme, params, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = bad
		badProof[i] = true
	}
	// One submission with a valid proof that fails deep in the chain:
	// the blame protocol, not proof verification, must catch it.
	deep, err := MaliciousSubmission(scheme, params, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	deepIdx := len(subs)
	subs = append(subs, deep)

	// The serial reference: exactly what the seed's per-proof loop
	// would have blamed at submission time.
	var serial []int
	for i, sub := range subs {
		if onion.VerifySubmission(sub, 1, 0) != nil {
			serial = append(serial, i)
		}
	}
	for _, i := range serial {
		if !badProof[i] {
			t.Fatalf("serial sweep blamed unexpected index %d", i)
		}
	}
	if len(serial) != len(badProof) {
		t.Fatalf("serial sweep found %d bad proofs, want %d", len(serial), len(badProof))
	}
	if got := VerifySubmissionProofs(subs, 1, 0); !equalInts(got, serial) {
		t.Fatalf("batch verification blamed %v, serial %v", got, serial)
	}

	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedServers) != 0 {
		t.Fatalf("servers blamed: %+v", res)
	}
	wantBlamed := append(append([]int(nil), serial...), deepIdx)
	gotBlamed := append([]int(nil), res.BlamedUsers...)
	sort.Ints(gotBlamed)
	if !equalInts(gotBlamed, wantBlamed) {
		t.Fatalf("round blamed %v, want %v", gotBlamed, wantBlamed)
	}
	if len(res.Delivered) != 36 {
		t.Fatalf("delivered %d of 36 honest messages", len(res.Delivered))
	}
}

// TestVerifySubmissionProofsAllBad drives the bisection to its floor:
// every proof invalid.
func TestVerifySubmissionProofsAllBad(t *testing.T) {
	c := testChain(t, 2)
	params := c.Params()
	const n = 20
	subs := make([]onion.Submission, n)
	for i := range subs {
		bad, err := InvalidProofSubmission(scheme, params, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = bad
	}
	got := VerifySubmissionProofs(subs, 1, 0)
	if len(got) != n {
		t.Fatalf("blamed %d of %d invalid proofs", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("blamed indices %v not ascending and complete", got)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInnerAggPruning pins the fix for the unbounded innerAggs map: a
// long-running chain keeps aggregates only for a bounded window of
// recent rounds — three, because a depth-2 pipeline announces round
// ρ+2 while round ρ is still mixing and must later reveal — so
// parameters for anything older are gone (and so is the memory).
func TestInnerAggPruning(t *testing.T) {
	c := testChain(t, 2)
	for r := uint64(2); r <= 6; r++ {
		if err := c.BeginRound(r); err != nil {
			t.Fatal(err)
		}
	}
	c.keyMu.RLock()
	kept := len(c.innerAggs)
	c.keyMu.RUnlock()
	if kept != 3 {
		t.Fatalf("innerAggs holds %d rounds, want 3 (mixing, current, next)", kept)
	}
	for r := uint64(1); r <= 3; r++ {
		if _, err := c.ParamsFor(r); err == nil {
			t.Fatalf("parameters for pruned round %d still served", r)
		}
	}
	for r := uint64(4); r <= 6; r++ {
		if _, err := c.ParamsFor(r); err != nil {
			t.Fatalf("parameters for live round %d unavailable: %v", r, err)
		}
	}
	// Re-announcing an already-live round must not prune it.
	if err := c.BeginRound(6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ParamsFor(4); err != nil {
		t.Fatalf("idempotent BeginRound pruned the oldest live round: %v", err)
	}
	// The servers' own inner-key maps must be bounded too: a halted
	// or skipped chain never reaches RevealInnerKey's pruning, so
	// BeginRound is the backstop.
	for _, s := range c.Servers {
		if len(s.innerKeys) != 3 {
			t.Fatalf("server %d holds %d inner keys, want 3", s.Index, len(s.innerKeys))
		}
		if _, ok := s.InnerPublicKey(5); !ok {
			t.Fatalf("server %d lost the current round's inner key", s.Index)
		}
	}
}

// TestParamsTablesStayOffTheWire: a Chain's Params carry fixed-key
// tables (group.Point.Precomputed); a gob round trip — what every
// remote client and gateway shard receives — yields the same elements
// in the same number of bytes, bare, and they can be precomputed again.
// Onions wrapped against all three forms of the same keys travel the
// chain and open.
func TestParamsTablesStayOffTheWire(t *testing.T) {
	c := testChain(t, 3)
	tabled := c.Params()

	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(tabled); err != nil {
		t.Fatal(err)
	}
	wireLen := wire.Len()
	var bare Params
	if err := gob.NewDecoder(&wire).Decode(&bare); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := gob.NewEncoder(&again).Encode(bare); err != nil {
		t.Fatal(err)
	}
	if again.Len() != wireLen {
		t.Fatalf("precomputed params encode to %d bytes, bare ones to %d", wireLen, again.Len())
	}
	if !bare.InnerAggregate.Equal(tabled.InnerAggregate) || len(bare.MixKeys) != len(tabled.MixKeys) {
		t.Fatal("decoded params differ")
	}
	for i := range bare.MixKeys {
		if !bare.MixKeys[i].Equal(tabled.MixKeys[i]) {
			t.Fatalf("decoded mix key %d differs", i)
		}
	}
	retabled := bare.Precomputed(Params{})
	if &retabled.MixKeys[0] == &bare.MixKeys[0] {
		t.Fatal("Params.Precomputed wrote into its receiver's slice")
	}
	// Keys equal to prev's are taken from prev, whatever else changed.
	next := bare
	next.InnerAggregate = group.Base(group.MustRandomScalar())
	shared := next.Precomputed(retabled)
	if !shared.InnerAggregate.Equal(next.InnerAggregate) || !shared.MixKeys[2].Equal(bare.MixKeys[2]) {
		t.Fatal("Params.Precomputed changed an element")
	}

	var subs []onion.Submission
	want := make(map[string]bool)
	for i, p := range []Params{tabled, bare, retabled, tabled, bare, retabled} {
		nonce := aead.RoundNonce(p.Round, 0)
		recipient := group.GenerateBaseKeyPair()
		msg, err := onion.SealMailboxMessage(scheme, kdf.Key{byte(i)}, nonce, recipient.Public,
			onion.Payload{Kind: onion.KindConversation, Body: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := onion.WrapAHS(scheme, p.InnerAggregate, p.MixKeys, p.Round, p.ChainID, nonce, msg)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		want[string(msg)] = true
	}
	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted || len(res.BlamedUsers) != 0 || res.DroppedInner != 0 || len(res.Delivered) != len(subs) {
		t.Fatalf("round over mixed key forms misbehaved: %+v", res)
	}
	for _, m := range res.Delivered {
		if !want[string(m)] {
			t.Fatal("delivered message not among submissions")
		}
	}
}
