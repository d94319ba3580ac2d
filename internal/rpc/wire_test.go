package rpc

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// offCurve and overOrder are what a hostile peer puts where a point
// or a scalar belongs: right length, no such group element.
var (
	offCurve  = bytes.Repeat([]byte{0xFF}, group.PointSize)
	overOrder = bytes.Repeat([]byte{0xFF}, group.ScalarSize)
)

// forge encodes req for link.callBody and overwrites the first occurrence of good — the
// encoding of one of its points or scalars, which gob carries verbatim
// — with bad, of the same length so the framing around it stays valid.
func forge(t testing.TB, req any, good, bad []byte) []byte {
	t.Helper()
	body, err := encode(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != len(bad) || !bytes.Contains(body, good) {
		t.Fatalf("%T: encoding does not carry %x", req, good)
	}
	return bytes.Replace(body, good, bad, 1)
}

// elements collects the encoding of every non-zero group.Point and
// group.Scalar reachable from v, proofs' included.
func elements(v reflect.Value, out *[][]byte) {
	switch x := v.Interface().(type) {
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
			if len(good) == group.ScalarSize {
				bad = overOrder
			}
			body := forge(t, samples[name], good, bad)
			for _, lc := range e.tables() {
				if lc.methods[name] == nil {
					continue
				}
				resp := lc.dispatch(request{Method: name, Body: body})
				if !strings.HasPrefix(resp.Err, "rpc: decoding") || !strings.Contains(resp.Err, "group: invalid") {
					t.Errorf("%s with element %d of %d corrupted: reply %q, want the decode error", name, i, len(elems), resp.Err)
				}
			}
		}
	}
	// submit, hop.init, hop.batch, hop.accuse, shard.init/begin/finish.
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

	absent, err := encode(HopInitRequest{Chain: 0, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	explicit := forge(t, HopInitRequest{Chain: 0, Index: 0, Base: group.Generator()},
		group.Generator().Bytes(), make([]byte, group.PointSize))
	if len(explicit)-len(absent) < group.PointSize {
		t.Fatalf("absent-base request has %d bytes, explicit-identity %d: the field was not omitted", len(absent), len(explicit))
	}
	var a, b mix.HopKeys
	if err := hc.callBody("hop.init", absent, &a); err != nil {
		t.Fatal(err)
	}
	// Same epoch, so this is answered only if it is the same binding.
	if err := hc.callBody("hop.init", explicit, &b); err != nil {
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
	begin := forge(t, HopBeginResponse{Ipk: ipk, Proof: proof}, ipk.Bytes(), offCurve)
	reveal := forge(t, HopRevealResponse{Isk: group.NewScalar(5)}, group.NewScalar(5).Bytes(), overOrder)
	ep, _ := startFakeGateway(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			frame, err := ReadFrame(conn)
			if err != nil {
				return
			}
			var req request
			if decode(frame, &req) != nil {
				return
			}
			var resp response
			switch req.Method {
			case "hop.init":
				resp.Body, _ = encode(evil.Keys())
			case "hop.begin":
				resp.Body = begin
			case "hop.reveal":
				resp.Body = reveal
			}
			out, _ := encode(resp)
			if WriteFrame(conn, out) != nil {
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

// TestWireSizes pins what the domain-typed messages cost on the wire
// against the frame lengths the hand-written byte-slice DTOs had at
// the commit before they were deleted (b19402d, same shapes, measured
// there). Lengths depend only on the shapes: points, scalars and
// ciphertexts have fixed sizes and every integer here fits one byte.
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
	frame := func(wrap func(body []byte) any, v any) int {
		t.Helper()
		body, err := encode(v)
		if err != nil {
			t.Fatal(err)
		}
		f, err := encode(wrap(body))
		if err != nil {
			t.Fatal(err)
		}
		return len(f)
	}
	asRequest := func(method string) func([]byte) any {
		return func(b []byte) any { return request{Method: method, Body: b} }
	}
	asReply := func(b []byte) any { return response{Body: b} }
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
		return frame(asRequest("submit"), req)
	}

	envs := make([]onion.Envelope, 512)
	for i := range envs {
		envs[i] = onion.Envelope{DHKey: pt(), Ct: make([]byte, onion.AHSCiphertextSize(k))}
	}
	params := mix.Params{ChainID: 3, Round: 7, MixKeys: pts(k), BlindKeys: pts(k), BaselineKeys: pts(k), InnerAggregate: pt()}
	for _, tc := range []struct {
		name        string
		got, parent int
	}{
		// One full hop.batch chunk of the benchmark's per-chain batch:
		// the frame that dominates rpc.hop_bytes_out/in. 512 × (33-byte
		// key + 448-byte ciphertext) and 12 bytes of gob per envelope.
		{"hop.batch, 512 envelopes", frame(asRequest("hop.batch"), HopBatchRequest{Round: 7, Envelopes: envs}), 252634},
		// What every user fetches 2ℓ times a round: 3k+1 points.
		{"params reply, k=6", frame(asReply, params), 853},
	} {
		if limit := tc.parent + tc.parent/50; tc.got > limit {
			t.Errorf("%s: %d bytes, more than 2%% over the %d of the byte-slice DTOs", tc.name, tc.got, tc.parent)
		}
		t.Logf("%s: %d bytes (was %d)", tc.name, tc.got, tc.parent)
	}

	// A user's upload, ℓ current + ℓ cover submissions: 4775 bytes as
	// DTOs at ℓ = 4, 9271 at ℓ = 8, i.e. 562 a submission and 279 a
	// frame. The nested domain types cost a few bytes of struct
	// framing per submission, held to the same 2 %, and their five
	// extra gob type descriptors once per frame (+147 bytes measured),
	// which no per-message price counts but which is why the whole
	// ℓ = 4 frame is 4.4 % over and is pinned on its own.
	const parentPerSub, parentFixed = 562, 279
	small, large := submit(l), submit(2*l)
	perSub := (large - small) / (2 * l)
	fixed := small - 2*l*perSub
	if limit := parentPerSub + parentPerSub/50; perSub > limit {
		t.Errorf("submit: %d bytes per submission, more than 2%% over the %d of the byte-slice DTOs", perSub, parentPerSub)
	}
	if fixed > parentFixed+160 {
		t.Errorf("submit: %d bytes per frame besides the submissions, was %d", fixed, parentFixed)
	}
	t.Logf("submit, 2ℓ=%d: %d bytes (was 4775): %d per submission (was %d) + %d per frame (was %d)", 2*l, small, perSub, parentPerSub, fixed, parentFixed)
}
