package rpc

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// offCurve, offCurveXY and overOrder are what a hostile peer puts where
// a point (compressed, or x‖y inside an onion.Batch) or a scalar
// belongs: right length, no such group element.
var (
	offCurve   = bytes.Repeat([]byte{0xFF}, group.PointSize)
	offCurveXY = bytes.Repeat([]byte{0xFF}, group.UncompressedSize)
	overOrder  = bytes.Repeat([]byte{0xFF}, group.ScalarSize)
)

// forge builds the frame for head and v — a request under its method
// name, or a reply under "" — and overwrites the first occurrence of
// good, the encoding of one of its points or scalars, which gob
// carries verbatim, with bad, of the same length so the framing around
// it stays valid.
func forge(t testing.TB, head string, v any, good, bad []byte) *bytes.Buffer {
	t.Helper()
	frame, err := encodeFrame(head, v)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(frame.Bytes(), good)
	if len(good) != len(bad) || i < 0 {
		t.Fatalf("%T: encoding does not carry %x", v, good)
	}
	copy(frame.Bytes()[i:], bad)
	return frame
}

// replyError dispatches a request frame straight into an endpoint's
// method table and returns the reply's error string.
func replyError(t testing.TB, lc *listenerCore, frame *bytes.Buffer) string {
	t.Helper()
	reply, err := lc.dispatch(frame.Bytes()[prefixLen:])
	if err != nil {
		t.Fatal(err)
	}
	errText, _, err := openFrame(reply.Bytes()[prefixLen:])
	if err != nil {
		t.Fatal(err)
	}
	return errText
}

// elements collects the encoding of every non-zero group.Point and
// group.Scalar reachable from v, proofs' included — as the message
// carries it: x‖y for the keys of an onion.Batch, compressed elsewhere.
func elements(v reflect.Value, out *[][]byte) {
	switch x := v.Interface().(type) {
	case onion.Batch:
		for _, env := range x {
			*out = append(*out, env.DHKey.AppendUncompressed(nil))
		}
		return
	case group.Point:
		if !x.IsIdentity() {
			*out = append(*out, x.Bytes())
		}
		return
	case group.Scalar:
		if !x.IsZero() {
			*out = append(*out, x.Bytes())
		}
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			elements(v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			elements(v.Index(i), out)
		}
	}
}

// TestCorruptElementFailsDecode is the one place the "validated on
// arrival" decision is checked for every method at once: whichever
// point or scalar of a request is replaced by a non-element, the reply
// is the decode error, so no handler ever saw the request.
func TestCorruptElementFailsDecode(t *testing.T) {
	e := startEndpoints(t)
	samples := sampleRequests(e)
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	carrying := 0
	for _, name := range names {
		var elems [][]byte
		elements(reflect.ValueOf(samples[name]), &elems)
		if len(elems) > 0 {
			carrying++
		}
		for i, good := range elems {
			bad := offCurve
			switch len(good) {
			case group.ScalarSize:
				bad = overOrder
			case group.UncompressedSize:
				bad = offCurveXY
			}
			frame := forge(t, name, samples[name], good, bad)
			for _, lc := range e.tables() {
				if lc.methods[name] == nil {
					continue
				}
				got := replyError(t, lc, frame)
				if !strings.HasPrefix(got, "rpc: decoding") || !strings.Contains(got, "group: invalid") {
					t.Errorf("%s with element %d of %d corrupted: reply %q, want the decode error", name, i, len(elems), got)
				}
			}
		}
	}
	// submit, hop.init, hop.mix, hop.accuse, shard.init/begin/finish.
	if carrying != 7 {
		t.Errorf("%d sample requests carry group elements, want 7", carrying)
	}
}

// TestAbsentPointIsIdentity: gob leaves a zero field out, so a request
// may now arrive with a point missing where the old byte-slice field
// would have failed its length check. It decodes as the identity —
// exactly what the explicit 33 zero bytes always decoded to — which
// the hop treats as the same binding and the nizk verifiers refuse as
// a base, so omission opens nothing the explicit encoding did not.
func TestAbsentPointIsIdentity(t *testing.T) {
	hs := startHopFleet(t, 1)[0]
	hc := DialHop(hs.Addr(), hs.ClientTLS())
	defer hc.Close()

	absent, err := encodeFrame("hop.init", HopInitRequest{Chain: 0, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	explicit := forge(t, "hop.init", HopInitRequest{Chain: 0, Index: 0, Base: group.Generator()},
		group.Generator().Bytes(), make([]byte, group.PointSize))
	if explicit.Len()-absent.Len() < group.PointSize {
		t.Fatalf("absent-base request has %d bytes, explicit-identity %d: the field was not omitted", absent.Len(), explicit.Len())
	}
	var a, b mix.HopKeys
	if err := hc.send("hop.init", absent, &a); err != nil {
		t.Fatal(err)
	}
	// Same epoch, so this is answered only if it is the same binding.
	if err := hc.send("hop.init", explicit, &b); err != nil {
		t.Fatalf("explicit identity base is a different binding from the absent one: %v", err)
	}
	if !a.Bpk.Equal(b.Bpk) || !a.BpkPrev.IsIdentity() || !b.BpkPrev.IsIdentity() {
		t.Fatal("absent and explicit identity bases produced different keys")
	}
	for _, k := range []mix.HopKeys{a, b} {
		if err := mix.VerifyHopKeys(k); !errors.Is(err, nizk.ErrInvalidProof) {
			t.Fatalf("keys chained off the identity verified: %v", err)
		}
	}
}

// TestHostileHopReplies: what a hop answers is validated as it
// decodes, and the one field of mix.HopKeys that is the orchestrator's
// to choose is not taken from the hop. The hostile hop here generates
// keys with valid proofs over a base of its own; InitEpoch must hand
// back keys whose BpkPrev is the base it sent, so verification and
// chain assembly fail on the proofs exactly as they did when BpkPrev
// never crossed the wire.
func TestHostileHopReplies(t *testing.T) {
	evil := mix.NewChainServer(0, 0, group.Base(group.MustRandomScalar()), nil)
	ipk, proof := evil.BeginRound(1)
	evilKeys, err := encodeFrame("", evil.Keys())
	if err != nil {
		t.Fatal(err)
	}
	replies := map[string]*bytes.Buffer{
		"hop.init":   evilKeys,
		"hop.begin":  forge(t, "", HopBeginResponse{Ipk: ipk, Proof: proof}, ipk.Bytes(), offCurve),
		"hop.reveal": forge(t, "", HopRevealResponse{Isk: group.NewScalar(5)}, group.NewScalar(5).Bytes(), overOrder),
	}
	ep, _ := startFakeGateway(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			payload, err := ReadFrame(conn)
			if err != nil {
				return
			}
			method, _, err := openFrame(payload)
			if err != nil || WriteFrame(conn, replies[method]) != nil {
				return
			}
		}
	})
	hc := DialHop(ep.Addr, ep.TLS)
	defer hc.Close()

	keys, err := hc.Init(0, 0, group.Generator())
	if err != nil {
		t.Fatal(err)
	}
	if !keys.BpkPrev.Equal(group.Generator()) {
		t.Fatal("InitEpoch took the key base from the hop instead of the one it sent")
	}
	if err := mix.VerifyHopKeys(keys); !errors.Is(err, nizk.ErrInvalidProof) {
		t.Fatalf("keys proved over another base verified against ours: %v", err)
	}
	if _, err := mix.NewChainFromHops(0, []mix.Hop{hc}, nil); !errors.Is(err, nizk.ErrInvalidProof) {
		t.Fatalf("chain assembled over a hop keyed off another base: %v", err)
	}
	if _, _, err := hc.BeginRound(1); !errors.Is(err, group.ErrInvalidPoint) {
		t.Fatalf("off-curve inner key in hop.begin reply: %v", err)
	}
	if _, err := hc.RevealInnerKey(1); !errors.Is(err, group.ErrInvalidScalar) {
		t.Fatalf("non-canonical inner secret in hop.reveal reply: %v", err)
	}
}

// serve replaces one method of a running endpoint, under the lock
// the accept loop takes before it starts a connection's goroutine.
func serve(lc *listenerCore, method string, fn handler) {
	lc.mu.Lock()
	lc.methods[method] = fn
	lc.mu.Unlock()
}

// TestHostileMixReplyHaltsChain: hop.mix's reply is a whole
// mix.MixResult on a peer's word, and nothing at the transport bounds
// its output by its input any more. The chain does: a position that
// answers with more envelopes than it was sent fails the count check
// ahead of the shuffle certificate, halts its chain and is blamed,
// with nothing delivered.
func TestHostileMixReplyHaltsChain(t *testing.T) {
	fleet := startHopFleet(t, 3)
	hs := fleet[1]
	serve(hs.listenerCore, "hop.mix", bound(hs, func(srv *mix.Server, req *HopMixRequest) (*mix.MixResult, error) {
		mr, err := srv.Mix(req.Round, req.Nonce, req.Envelopes)
		if err == nil {
			mr.Out = append(mr.Out, mr.Out[0])
			mr.Out2In = append(mr.Out2In, len(mr.Out2In))
		}
		return mr, err
	}))
	dist := distributedNetwork(t, fleet)
	alice, _ := converse(t, dist)
	if err := alice.u.QueueMessage([]byte("padded")); err != nil {
		t.Fatal(err)
	}
	rep, err := dist.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HaltedChains) != 1 || rep.Delivered != 0 {
		t.Fatalf("chain ran on past a padded batch: %+v", rep)
	}
	if len(rep.BlamedServers) != 1 || rep.BlamedServers[0] != [2]int{0, 1} {
		t.Fatalf("blamed %v, want chain 0 position 1", rep.BlamedServers)
	}
}

// TestHostileShardBuildRefused: shard.begin's reply is a whole
// core.ShardBuild on a peer's word. One whose submissions and
// submitters are not index-aligned is refused at the merge — the shard
// is dead for the round, the other shard's round runs — instead of
// indexing past the shorter slice.
func TestHostileShardBuildRefused(t *testing.T) {
	n, _, servers := newShardedDeployment(t)
	front := shardedFront(t, servers)
	alice, bob := crossShardPair(t, n, front)
	for _, u := range []*client.User{alice, bob} {
		out, err := u.BuildRound(n.Round(), front)
		if err != nil {
			t.Fatal(err)
		}
		if err := front.Submit(u.Mailbox(), out); err != nil {
			t.Fatal(err)
		}
	}
	evil := servers[0]
	serve(evil.listenerCore, "shard.begin", typed(func(br *core.BeginRound) (*core.ShardBuild, error) {
		build, err := evil.fe.BeginRound(br)
		if err == nil {
			for c := range build.Batches {
				build.Batches[c].Submitters = build.Batches[c].Submitters[:0]
			}
		}
		return build, err
	}))
	rep, err := n.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DeadShards) != 1 || rep.DeadShards[0] != 0 {
		t.Fatalf("dead shards %v, want [0]", rep.DeadShards)
	}
	if rep.Delivered == 0 {
		t.Fatalf("the honest shard's round did not run: %+v", rep)
	}
}

// TestWireSizes pins what the messages that dominate the traffic
// cost on the wire, payload bytes per frame. Lengths depend only on
// the shapes: points, scalars and ciphertexts have fixed sizes and
// every integer here fits one byte, so the pins are exact and a change
// to the envelope or to a message type shows up here as a number.
// DESIGN.md's Transport section tabulates them against the sizes
// before a hop batch crossed as one block with x‖y keys (6b140db), at
// the commit before the envelope stopped double-wrapping (747a665) and
// against the hand-written byte-slice DTOs before that (b19402d).
func TestWireSizes(t *testing.T) {
	const k, l = 6, 4 // the benchmark's chains: 8 of length 6, so ℓ = 4
	pt := func() group.Point { return group.Base(group.MustRandomScalar()) }
	pts := func(n int) []group.Point {
		out := make([]group.Point, n)
		for i := range out {
			out[i] = pt()
		}
		return out
	}
	size := func(head string, v any) int {
		t.Helper()
		frame, err := encodeFrame(head, v)
		if err != nil {
			t.Fatal(err)
		}
		return frame.Len() - prefixLen
	}
	submit := func(n int) int {
		req := SubmitRequest{Round: 7, Mailbox: make([]byte, group.PointSize)}
		for c := 0; c < n; c++ {
			cm := client.ChainMessage{Chain: c, Sub: onion.Submission{
				Envelope: onion.Envelope{DHKey: pt(), Ct: make([]byte, onion.AHSCiphertextSize(k))},
				Proof:    nizk.DlogProof{T: pt(), S: group.MustRandomScalar()},
			}}
			req.Current = append(req.Current, cm)
			req.Cover = append(req.Cover, cm)
		}
		return size("submit", req)
	}

	envs := make([]onion.Envelope, 512)
	for i := range envs {
		envs[i] = onion.Envelope{DHKey: pt(), Ct: make([]byte, onion.AHSCiphertextSize(k))}
	}
	params := mix.Params{ChainID: 3, Round: 7, MixKeys: pts(k), BlindKeys: pts(k), BaselineKeys: pts(k), InnerAggregate: pt()}
	small, large := submit(l), submit(2*l)
	perSub := (large - small) / (2 * l)
	for _, tc := range []struct {
		name      string
		got, want int
	}{
		// The benchmark's per-chain batch into one position: the
		// frame that dominates rpc.hop_bytes_out. One onion.Batch
		// block — 9 bytes of header, then 512 × (64-byte x‖y key +
		// 453-byte ciphertext) = 264 713 — inside 206 bytes of gob
		// (method name, type descriptors, round, nonce). While the
		// keys crossed compressed, one reflected struct per envelope,
		// it was 252 635 = 512 × (33 + 453 + 7 of gob) + 219: 517 B
		// an envelope against 493, +4.9 %. Its reply, a
		// mix.MixResult, is the same block plus a proof and a
		// permutation.
		{"hop.mix request, 512 envelopes", size("hop.mix", HopMixRequest{Round: 7, Nonce: aead.RoundNonce(7, client.LaneCurrent), Envelopes: envs}), 264919},
		// What every user fetches 2ℓ times a round: 3k+1 points.
		{"params reply, k=6", size("", params), 823},
		// A user's upload, ℓ current + ℓ cover submissions, and what
		// each further submission adds to it.
		{"submit, 2ℓ = 8", small, 4936},
		{"submit, per submission", perSub, 570},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: %d bytes, pinned at %d", tc.name, tc.got, tc.want)
		}
	}
}
