package rpc

import (
	"crypto/tls"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
)

// dialRaw opens a bare TLS connection to a hop endpoint, bypassing
// the client's framing discipline.
func dialRaw(hs *HopServer) (net.Conn, error) {
	return tls.Dial("tcp", hs.Addr(), hs.ClientTLS())
}

// startHop launches one hop endpoint plus a client bound to chain 0
// position 0.
func startHop(t *testing.T) (*HopServer, *HopClient) {
	t.Helper()
	fleet := startHopFleet(t, 1)
	hc := DialHop(fleet[0].Addr(), fleet[0].ClientTLS())
	t.Cleanup(func() { hc.Close() })
	if _, err := hc.Init(0, 0, group.Generator()); err != nil {
		t.Fatal(err)
	}
	return fleet[0], hc
}

func TestPackBoolsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		bs := make([]bool, n)
		for i := range bs {
			bs[i] = i%3 == 0
		}
		got, err := unpackBools(packBools(bs), n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bs {
			if got[i] != bs[i] {
				t.Fatalf("n=%d: bit %d flipped", n, i)
			}
		}
	}
	if _, err := unpackBools([]byte{0xFF}, 100); err == nil {
		t.Fatal("bitmap length mismatch accepted")
	}
	if _, err := unpackBools(nil, -1); err == nil {
		t.Fatal("negative bit count accepted")
	}
}

// TestHopRejectsBadNonce: the nonce is a fixed-size array on the
// wire, so one of any other length — or a byte slice — is a decode
// error: the handler, and the mix server behind it, never see the
// request.
func TestHopRejectsBadNonce(t *testing.T) {
	_, hc := startHop(t)
	envs := []onion.Envelope{{DHKey: group.Generator(), Ct: []byte("x")}}
	type shortNonce struct {
		Round     uint64
		Nonce     [3]byte
		Envelopes []onion.Envelope
	}
	type sliceNonce struct {
		Round     uint64
		Nonce     []byte
		Envelopes []onion.Envelope
	}
	var mr mix.MixResult
	for _, req := range []any{
		shortNonce{Round: 1, Nonce: [3]byte{1, 2, 3}, Envelopes: envs},
		sliceNonce{Round: 1, Nonce: make([]byte, aead.NonceSize), Envelopes: envs},
	} {
		err := hc.call("hop.mix", req, &mr)
		if err == nil || !strings.Contains(err.Error(), "rpc: decoding") {
			t.Fatalf("%T: %v, want the decode error", req, err)
		}
	}
	if err := hc.call("hop.mix", HopMixRequest{Round: 1, Nonce: [aead.NonceSize]byte{1, 2, 3}, Envelopes: envs}, &mr); err != nil {
		t.Fatalf("well-formed request refused after the malformed ones: %v", err)
	}
}

// TestHealthInfoDuringMix: the admin health endpoint is what an
// operator polls to see why a round is slow, so it must answer while
// the hop is busy mixing — not queue behind the handler lock.
func TestHealthInfoDuringMix(t *testing.T) {
	hs, hc := startHop(t)
	if _, _, err := hc.BeginRound(7); err != nil {
		t.Fatal(err)
	}
	envs := make([]onion.Envelope, 4096)
	for i := range envs {
		envs[i] = onion.Envelope{DHKey: group.Base(group.NewScalar(int64(i + 2))), Ct: []byte("not an onion")}
	}
	mixed := make(chan error, 1)
	go func() {
		_, err := hc.Mix(7, [aead.NonceSize]byte{}, envs)
		mixed <- err
	}()
	// The handler holds hs.mu for the whole mixing step.
	for hs.mu.TryLock() {
		hs.mu.Unlock()
		select {
		case err := <-mixed:
			t.Fatalf("hop.mix returned before it was seen in flight: %v", err)
		default:
			runtime.Gosched()
		}
	}
	start := time.Now()
	bound, _, chain, index, round := hs.HealthInfo()
	waited := time.Since(start)
	select {
	case err := <-mixed:
		t.Fatalf("hop.mix finished (%v) before HealthInfo could overlap it; the batch is too small for this machine", err)
	default:
	}
	if waited > 20*time.Millisecond {
		t.Fatalf("HealthInfo took %v with a hop.mix in flight", waited)
	}
	if !bound || chain != 0 || index != 0 || round != 7 {
		t.Fatalf("HealthInfo = bound %v chain %d index %d round %d", bound, chain, index, round)
	}
	if err := <-mixed; err != nil {
		t.Fatal(err)
	}
}

func TestHopBlameOutOfRangeRejected(t *testing.T) {
	_, hc := startHop(t)
	if _, err := hc.BlameReveal(1, 0, 99); err == nil {
		t.Fatal("blame reveal for nonexistent position accepted")
	}
	if _, err := hc.BlameReveal(1, 0, -1); err == nil {
		t.Fatal("blame reveal for negative position accepted")
	}
}

// TestHopBlameWrongRoundRejected: a position answers blame reveals
// and re-certification over the batch it mixed last, so a request
// naming another round is an error on the wire — not a panic, not
// material bound to that round's context — and the connection keeps
// serving. Once the round's inner key is revealed the batch is gone,
// and its own round is refused the same way.
func TestHopBlameWrongRoundRejected(t *testing.T) {
	_, hc := startHop(t)
	chain, err := mix.NewChainFromHops(0, []mix.Hop{hc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.BeginRound(7); err != nil {
		t.Fatal(err)
	}
	params, err := chain.ParamsFor(7)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]onion.Envelope, 3)
	for i := range in {
		sub, err := mix.CraftValidOnion(aead.ChaCha20Poly1305(), params, 7, 0, group.Generator())
		if err != nil {
			t.Fatal(err)
		}
		in[i] = sub.Envelope
	}
	if mr, err := hc.Mix(7, aead.RoundNonce(7, 0), in); err != nil || len(mr.Failed) != 0 {
		t.Fatalf("mix: %v", err)
	}
	keep := []bool{true, false, true}
	for _, round := range []uint64{6, 8} {
		if _, err := hc.BlameReveal(round, 0, 1); err == nil || !strings.Contains(err.Error(), "last mixed round 7") {
			t.Fatalf("blame reveal for round %d over round 7's batch: %v", round, err)
		}
		if _, err := hc.ReProveSubset(round, 1, keep); err == nil || !strings.Contains(err.Error(), "last mixed round 7") {
			t.Fatalf("re-certification for round %d over round 7's batch: %v", round, err)
		}
	}
	if rev, err := hc.BlameReveal(7, 0, 1); err != nil || !rev.Xin.Equal(in[1].DHKey) {
		t.Fatalf("blame reveal for the mixed round: %v", err)
	}
	if _, err := hc.ReProveSubset(7, 1, keep); err != nil {
		t.Fatal(err)
	}
	// The reveal ends the batch: the same requests are now as wrong as
	// another round's.
	if _, err := hc.RevealInnerKey(7); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.BlameReveal(7, 0, 1); err == nil || !strings.Contains(err.Error(), "last mixed round 7") {
		t.Fatalf("blame reveal after the inner key was revealed: %v", err)
	}
	if _, err := hc.ReProveSubset(7, 1, keep); err == nil || !strings.Contains(err.Error(), "last mixed round 7") {
		t.Fatalf("re-certification after the inner key was revealed: %v", err)
	}
}

func TestHopAccuseRejectsOffCurveKey(t *testing.T) {
	_, hc := startHop(t)
	var resp mix.AccuseReveal
	req := HopAccuseRequest{Round: 1, Msg: 0, Key: group.Generator()}
	err := hc.send("hop.accuse", forge(t, "hop.accuse", req, group.Generator().Bytes(), offCurve), &resp)
	if err == nil || !strings.Contains(err.Error(), "point") {
		t.Fatalf("off-curve accused key accepted: %v", err)
	}
}

func TestHopMethodsBeforeInitRejected(t *testing.T) {
	fleet := startHopFleet(t, 1)
	hc := DialHop(fleet[0].Addr(), fleet[0].ClientTLS())
	defer hc.Close()
	if _, _, err := hc.BeginRound(1); err == nil {
		t.Fatal("hop.begin before init accepted")
	}
	if _, err := hc.RevealInnerKey(1); err == nil {
		t.Fatal("hop.reveal before init accepted")
	}
}

func TestHopInitIdempotentAndExclusive(t *testing.T) {
	fleet := startHopFleet(t, 1)
	hc := DialHop(fleet[0].Addr(), fleet[0].ClientTLS())
	defer hc.Close()
	k1, err := hc.Init(0, 0, group.Generator())
	if err != nil {
		t.Fatal(err)
	}
	// Same binding again: same keys (a restarted gateway re-runs
	// setup).
	k2, err := hc.Init(0, 0, group.Generator())
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Bpk.Equal(k2.Bpk) || !k1.Mpk.Equal(k2.Mpk) {
		t.Fatal("re-init changed the hop's keys")
	}
	// A different binding is refused.
	if _, err := hc.Init(0, 1, group.Generator()); err == nil {
		t.Fatal("conflicting re-binding accepted")
	}
}

func TestHopInitRejectsOffCurveBase(t *testing.T) {
	fleet := startHopFleet(t, 1)
	hc := DialHop(fleet[0].Addr(), fleet[0].ClientTLS())
	defer hc.Close()
	var resp mix.HopKeys
	req := HopInitRequest{Chain: 0, Index: 0, Base: group.Generator()}
	err := hc.send("hop.init", forge(t, "hop.init", req, group.Generator().Bytes(), offCurve), &resp)
	if err == nil || !strings.Contains(err.Error(), "point") {
		t.Fatalf("off-curve base accepted: %v", err)
	}
}

// TestHopUnknownMethodRejected mirrors the gateway's unknown-method
// test for the hop dispatch table.
func TestHopUnknownMethodRejected(t *testing.T) {
	_, hc := startHop(t)
	var out struct{}
	if err := hc.call("hop.nonsense", struct{}{}, &out); err == nil {
		t.Fatal("unknown hop method accepted")
	}
}

// TestHopGarbageFrameDoesNotPanic feeds a structurally valid frame
// holding undecodable bytes straight at a hop endpoint; the server
// must drop the connection without panicking, and fresh connections
// must still be served.
func TestHopGarbageFrameDoesNotPanic(t *testing.T) {
	fleet := startHopFleet(t, 1)
	conn, err := dialRaw(fleet[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, rawFrame([]byte("this is not gob"))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(conn); err == nil {
		t.Fatal("garbage frame got a response")
	}
	conn.Close()
	// The endpoint survives and serves a real client.
	hc := DialHop(fleet[0].Addr(), fleet[0].ClientTLS())
	defer hc.Close()
	if _, err := hc.Init(0, 0, group.Generator()); err != nil {
		t.Fatal(err)
	}
}
