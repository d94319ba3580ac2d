package rpc

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// Failover tests: a gateway that is slow (its backend wedged, so it
// relays deadline errors, or it simply never answers) and then dead
// (listener gone) must not strand a MultiClient while a healthy peer
// can serve the request.

// fakeTimeout is a net.Error timeout whose message deliberately avoids
// the "deadline"/"timeout" spellings, so matching it proves the
// net.Error branch of retriable rather than the string fallback.
type fakeTimeout struct{}

func (fakeTimeout) Error() string   { return "operation stalled" }
func (fakeTimeout) Timeout() bool   { return true }
func (fakeTimeout) Temporary() bool { return false }

func TestRetriableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport", &TransportError{Op: "dialing", Err: errors.New("connection refused")}, true},
		{"context deadline", context.DeadlineExceeded, true},
		{"os deadline", os.ErrDeadlineExceeded, true},
		{"wrapped deadline", fmt.Errorf("triggering round: %w", context.DeadlineExceeded), true},
		{"net.Error timeout", fakeTimeout{}, true},
		{"wrapped net.Error timeout", fmt.Errorf("hop 2: %w", fakeTimeout{}), true},
		// Server-relayed errors cross the wire flattened to strings
		// (the reply's error string); the pre-failover client treated these as
		// authoritative application errors and gave up.
		{"relayed deadline string", errors.New("core: awaiting chain keys: context deadline exceeded"), true},
		{"relayed i/o timeout string", errors.New("read tcp 10.0.0.7:443: i/o timeout"), true},
		{"application rejection", errors.New("core: round 7 is already mixing; submissions are closed"), false},
		{"ban rejection", errors.New("core: user was removed for misbehaviour; submissions are refused"), false},
	}
	for _, tc := range cases {
		if got := retriable(tc.err); got != tc.want {
			t.Errorf("retriable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBackoffSleepBounds(t *testing.T) {
	b := Backoff{Base: 40 * time.Millisecond, Max: 160 * time.Millisecond}
	for a := 1; a <= 6; a++ {
		want := b.Base << (a - 1)
		if want > b.Max {
			want = b.Max
		}
		for i := 0; i < 64; i++ {
			d := b.sleep(a)
			if d < want/2 || d > want {
				t.Fatalf("sleep(%d) = %v outside [%v, %v]", a, d, want/2, want)
			}
		}
	}
	// The zero value must still produce a sane schedule.
	var zero Backoff
	if zero.attempts() != 3 {
		t.Fatalf("zero Backoff attempts = %d", zero.attempts())
	}
	if d := zero.sleep(1); d < 25*time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("zero Backoff sleep(1) = %v", d)
	}
}

// startFakeGateway runs a TLS listener that hands each accepted
// connection to handle. It returns the endpoint and a stop function
// that kills the listener outright — the "then dead" half of a
// slow-then-dead gateway.
func startFakeGateway(t testing.TB, handle func(net.Conn)) (Endpoint, func()) {
	t.Helper()
	srvCfg, cliCfg, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	var stopped atomic.Bool
	stop := func() {
		if stopped.CompareAndSwap(false, true) {
			ln.Close()
		}
	}
	t.Cleanup(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(conn)
		}
	}()
	return Endpoint{Addr: ln.Addr().String(), TLS: cliCfg}, stop
}

// wedgedHandler mimics a gateway that is up while its backend is
// stuck: every request is answered with a relayed deadline error, the
// flattened string form such errors take on the wire.
func wedgedHandler(conn net.Conn) {
	defer conn.Close()
	for {
		if _, err := ReadFrame(conn); err != nil {
			return
		}
		reply, err := encodeFrame("core: awaiting chain keys: context deadline exceeded", nil)
		if err != nil {
			return
		}
		if err := WriteFrame(conn, reply); err != nil {
			return
		}
	}
}

// stalledHandler mimics a gateway that accepts and then goes silent,
// so the caller's own deadline has to fire.
func stalledHandler(conn net.Conn) {
	defer conn.Close()
	ReadFrame(conn)
	time.Sleep(30 * time.Second)
}

// TestFailoverOnRelayedDeadline pins the regression: a gateway
// relaying deadline errors as application strings must be failed
// over, not believed. Then the slow gateway dies completely and the
// next call must still land on the healthy peer.
func TestFailoverOnRelayedDeadline(t *testing.T) {
	n, srv := newDeployment(t)
	slow, stopSlow := startFakeGateway(t, wedgedHandler)

	m, err := NewMultiClient([]Endpoint{slow, {Addr: srv.Addr(), TLS: srv.ClientTLS()}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Backoff = Backoff{Attempts: 1} // failover within the cycle; no sleeps

	st, err := m.Status()
	if err != nil {
		t.Fatalf("status did not fail over past the wedged gateway: %v", err)
	}
	if st.Round != n.Round() {
		t.Fatalf("status came from nowhere: %+v", st)
	}

	// Slow, then dead: the first endpoint now refuses connections
	// entirely, which must surface as a TransportError and fail over
	// just the same.
	stopSlow()
	if _, err := m.Status(); err != nil {
		t.Fatalf("status did not fail over past the dead gateway: %v", err)
	}
}

// TestFailoverOnStalledGateway covers the other slow shape: the
// gateway accepts and never answers, so the client's call deadline
// expires locally and the next gateway must be tried.
func TestFailoverOnStalledGateway(t *testing.T) {
	_, srv := newDeployment(t)
	slow, stopSlow := startFakeGateway(t, stalledHandler)

	m, err := NewMultiClient([]Endpoint{slow, {Addr: srv.Addr(), TLS: srv.ClientTLS()}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Backoff = Backoff{Attempts: 1}
	for _, c := range m.Clients() {
		c.Timeout = 300 * time.Millisecond
	}

	start := time.Now()
	if _, err := m.Status(); err != nil {
		t.Fatalf("status did not fail over past the stalled gateway: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("failover took %v; the stall leaked past the call deadline", waited)
	}
	stopSlow()
}
