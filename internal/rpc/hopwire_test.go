package rpc

import (
	"crypto/tls"
	"net"
	"strings"
	"testing"

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

// TestHopRejectsOversizedChunk: a chunk above MaxHopChunkEnvelopes is
// refused with an error and the connection stays usable.
func TestHopRejectsOversizedChunk(t *testing.T) {
	_, hc := startHop(t)
	big := make([]onion.Envelope, MaxHopChunkEnvelopes+1)
	for i := range big {
		big[i] = onion.Envelope{DHKey: group.Generator()}
	}
	var resp HopBatchResponse
	err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0, Envelopes: big}, &resp)
	if err == nil || !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("oversized chunk accepted: %v", err)
	}
	// The rejection was an application error, not a poisoned stream:
	// the same client keeps working.
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0, Envelopes: big[:1]}, &resp); err != nil {
		t.Fatalf("connection unusable after rejection: %v", err)
	}
}

func TestHopRejectsEmptyChunk(t *testing.T) {
	_, hc := startHop(t)
	var resp HopBatchResponse
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0}, &resp); err == nil {
		t.Fatal("empty chunk accepted")
	}
}

func TestHopRejectsOutOfOrderChunks(t *testing.T) {
	_, hc := startHop(t)
	chunk := []onion.Envelope{{DHKey: group.Generator(), Ct: []byte("x")}}
	var resp HopBatchResponse
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 2, Envelopes: chunk}, &resp); err == nil {
		t.Fatal("chunk starting at seq 2 accepted")
	}
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0, Envelopes: chunk}, &resp); err != nil {
		t.Fatal(err)
	}
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 5, Envelopes: chunk}, &resp); err == nil {
		t.Fatal("seq jump accepted")
	}
}

func TestHopRejectsCountMismatch(t *testing.T) {
	_, hc := startHop(t)
	chunk := []onion.Envelope{{DHKey: group.Generator(), Ct: []byte("x")}}
	var ack HopBatchResponse
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0, Envelopes: chunk}, &ack); err != nil {
		t.Fatal(err)
	}
	var mr HopMixResponse
	err := hc.call("hop.mix", HopMixRequest{Round: 1, Nonce: make([]byte, 12), Count: 2}, &mr)
	if err == nil {
		t.Fatal("staged/announced count mismatch accepted")
	}
}

func TestHopRejectsBadNonce(t *testing.T) {
	_, hc := startHop(t)
	chunk := []onion.Envelope{{DHKey: group.Generator(), Ct: []byte("x")}}
	var ack HopBatchResponse
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0, Envelopes: chunk}, &ack); err != nil {
		t.Fatal(err)
	}
	var mr HopMixResponse
	if err := hc.call("hop.mix", HopMixRequest{Round: 1, Nonce: []byte{1, 2, 3}, Count: 1}, &mr); err == nil {
		t.Fatal("short nonce accepted")
	}
}

// TestHopPullHugeSeqRejected: a pull sequence number big enough to
// overflow the chunk-offset arithmetic must get an error, not a
// negative slice index panic.
func TestHopPullHugeSeqRejected(t *testing.T) {
	_, hc := startHop(t)
	chunk := []onion.Envelope{{DHKey: group.Generator(), Ct: []byte("not an onion")}}
	var ack HopBatchResponse
	if err := hc.call("hop.batch", HopBatchRequest{Round: 1, Seq: 0, Envelopes: chunk}, &ack); err != nil {
		t.Fatal(err)
	}
	var mr HopMixResponse
	if err := hc.call("hop.mix", HopMixRequest{Round: 1, Nonce: make([]byte, 12), Count: 1}, &mr); err != nil {
		t.Fatal(err)
	}
	// Garbage ct fails decryption, so there is no output; restage a
	// parseable batch through a 1-element valid onion is overkill —
	// what matters is that pull with absurd Seq values errors whether
	// or not output exists, on a live endpoint.
	for _, seq := range []int{1 << 61, -(1 << 61), -1} {
		var pr HopPullResponse
		if err := hc.call("hop.pull", HopPullRequest{Round: 1, Seq: seq}, &pr); err == nil {
			t.Fatalf("seq %d accepted", seq)
		}
	}
}

func TestHopPullBeforeMixRejected(t *testing.T) {
	_, hc := startHop(t)
	var pr HopPullResponse
	if err := hc.call("hop.pull", HopPullRequest{Round: 1, Seq: 0}, &pr); err == nil {
		t.Fatal("pull with no mixed output accepted")
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

func TestHopAccuseRejectsOffCurveKey(t *testing.T) {
	_, hc := startHop(t)
	var resp mix.AccuseReveal
	req := HopAccuseRequest{Round: 1, Msg: 0, Key: group.Generator()}
	err := hc.callBody("hop.accuse", forge(t, req, group.Generator().Bytes(), offCurve), &resp)
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
	err := hc.callBody("hop.init", forge(t, req, group.Generator().Bytes(), offCurve), &resp)
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
	if err := WriteFrame(conn, []byte("this is not gob")); err != nil {
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
