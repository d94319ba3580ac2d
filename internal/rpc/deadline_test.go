package rpc

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"os"
	"testing"
	"time"
)

// Deadline tests: a peer that connects and goes quiet — or stalls
// mid-frame — must be shed by the endpoint's idle deadline instead of
// pinning a handler goroutine, and real traffic through the same
// endpoint must keep flowing.

// shortIdleFleet launches hop endpoints whose idle deadline is tight
// enough for a test to watch a misbehaving connection get shed. The
// write happens under the endpoint's lock, the same one the accept
// loop snapshots the deadlines under.
func shortIdleFleet(t *testing.T, k int, idle time.Duration) []*HopServer {
	t.Helper()
	fleet := startHopFleet(t, k)
	for _, hs := range fleet {
		hs.listenerCore.mu.Lock()
		hs.IdleTimeout = idle
		hs.listenerCore.mu.Unlock()
	}
	return fleet
}

// assertReaped reads on the abusive connection and demands the error
// be the server closing it (EOF/reset), not the client's own safety
// deadline expiring.
func assertReaped(t *testing.T, conn *tls.Conn, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s connection not reaped by the server: %v", what, err)
	}
}

// waitNoConns polls until the endpoint tracks zero live connections.
func waitNoConns(t *testing.T, hs *HopServer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		hs.listenerCore.mu.Lock()
		n := len(hs.listenerCore.conns)
		hs.listenerCore.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("abusive connection still tracked by the endpoint")
}

// TestSlowReaderConnReaped connects to a hop endpoint and sends
// nothing. The idle deadline must close the connection server-side,
// and a fresh deployment over the same fleet must then complete a
// delivering round — the recovering round.
func TestSlowReaderConnReaped(t *testing.T) {
	fleet := shortIdleFleet(t, 3, 250*time.Millisecond)

	conn, err := tls.Dial("tcp", fleet[1].Addr(), fleet[1].ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Handshake(); err != nil {
		t.Fatal(err)
	}
	assertReaped(t, conn, "silent")
	waitNoConns(t, fleet[1])

	dist, distFE := distributedNetwork(t, fleet)
	alice, bob := converse(t, distFE)
	if err := alice.u.QueueMessage([]byte("after the reap")); err != nil {
		t.Fatal(err)
	}
	rep, err := dist.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HaltedChains) != 0 || rep.Delivered == 0 {
		t.Fatalf("recovering round misbehaved: %+v", rep)
	}
	if got := bob.read(t, rep.Round); string(got) != "after the reap" {
		t.Fatalf("bob read %q after the reap", got)
	}
}

// TestStalledWriterConnReaped announces a large frame, delivers a few
// bytes, and stalls. The endpoint is mid-ReadFrame on that
// connection, yet the concurrent round must complete (per-connection
// goroutines) and the stalled connection must be shed once the idle
// deadline covers the gap.
func TestStalledWriterConnReaped(t *testing.T) {
	fleet := shortIdleFleet(t, 3, 500*time.Millisecond)
	dist, distFE := distributedNetwork(t, fleet)
	alice, bob := converse(t, distFE)

	conn, err := tls.Dial("tcp", fleet[0].Addr(), fleet[0].ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}

	if err := alice.u.QueueMessage([]byte("despite the stall")); err != nil {
		t.Fatal(err)
	}
	rep, err := dist.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HaltedChains) != 0 || rep.Delivered == 0 {
		t.Fatalf("round alongside a stalled writer misbehaved: %+v", rep)
	}
	if got := bob.read(t, rep.Round); string(got) != "despite the stall" {
		t.Fatalf("bob read %q alongside the stall", got)
	}
	assertReaped(t, conn, "mid-frame stalled")
}
