package rpc

import (
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Client-side defaults. One ordinary exchange with a gateway is bounded
// by DefaultCallTimeout (round triggering waits for the whole round to
// execute, so it is generous), one with a mix position by
// DefaultHopCallTimeout; hop.mix waits for the remote to mix the whole
// batch and every coordinator→shard exchange may cover the shard's
// whole build phase (every owned user's onion construction), so those
// get their own, much larger bounds.
const (
	DefaultCallTimeout      = 3 * time.Minute
	DefaultHopCallTimeout   = time.Minute
	DefaultHopMixTimeout    = 10 * time.Minute
	DefaultShardCallTimeout = 10 * time.Minute
	// maxIdleConns bounds a link's pool; connections beyond it are
	// closed on release rather than cached.
	maxIdleConns = 4
	// maxConnIdle is how long a pooled connection may sit unused
	// before the pool discards it instead of handing it out. It must
	// stay safely below the server side's DefaultIdleTimeout:
	// otherwise the pool would return connections the endpoint has
	// already shed, the call would fail spuriously, and a chain would
	// blame a perfectly healthy position.
	maxConnIdle = time.Minute
)

// TransportError marks a connection-level failure — dial, write,
// read, deadline — as opposed to an application error returned by the
// server. The distinction drives failover: a gateway that answered
// "round closed" is healthy and retrying elsewhere is pointless,
// while one that cannot be reached may have died and its peers can
// still take the traffic (see MultiClient).
type TransportError struct {
	Op  string
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("rpc: %s: %v", e.Op, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransportError reports whether err (or anything it wraps) is a
// connection-level failure.
func IsTransportError(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// deadlineClass names which of the caller's configured bounds covers
// an exchange.
type deadlineClass int

const (
	classCall  deadlineClass = iota // one ordinary request/response
	classMix                        // the remote mixes a whole batch
	classBuild                      // coordinator→shard; may span a shard's build phase
)

// policy is how the client side treats one method.
type policy struct {
	class deadlineClass
	// retry re-asks once on a freshly dialed connection after a
	// transport failure — how the coordinator reattaches to a gateway
	// that crashed and restarted between rounds instead of declaring
	// it dead for a round on a stale connection. It may be set only
	// where re-asking is harmless at the server.
	retry bool
}

// policies is the client half of the method table (the server halves
// are the handler tables in server.go, shardserver.go and
// hopserver.go; TestMethodTablesAgree keeps the two from drifting). A
// method without an entry gets the zero policy — call deadline, no
// retry — which is the safe one.
var policies = map[string]policy{
	// User → gateway. Not retried here: MultiClient fails over across
	// gateways, with backoff, one layer up.
	"params":   {},
	"submit":   {},
	"register": {},
	"fetch":    {},
	"ack":      {},
	"status":   {},
	"runround": {},

	// Coordinator → mix position. Never retried: a position that
	// misses its deadline is the chain's to blame, not the transport's
	// to mask.
	"hop.init":    {},
	"hop.begin":   {},
	"hop.reveal":  {},
	"hop.mix":     {class: classMix},
	"hop.certify": {},
	"hop.blame":   {},
	"hop.accuse":  {},

	// Coordinator → gateway shard. Begin, init and rebalance are
	// idempotent at the shard: a re-begun round collects the same
	// banked traffic, its users' builds and remote submissions alike.
	// shard.finish must NOT be retried: it commits the round, and a
	// commit processed but unacknowledged would deliver twice.
	"shard.init":      {class: classBuild, retry: true},
	"shard.begin":     {class: classBuild, retry: true},
	"shard.finish":    {class: classBuild},
	"shard.rebalance": {class: classBuild, retry: true},
}

// link is the dialing half of the transport, shared by every client
// type: a small pool of TLS connections to one endpoint and the single
// request/response exchange over them. Concurrent calls each get their
// own connection (the frame protocol is strictly alternating per
// connection) and up to maxIdleConns are kept warm between calls.
//
// The link heals itself: a transport-level failure (timeout, endpoint
// shedding an idle connection, network blip) poisons the connection it
// happened on — its framing state is unknown, and reusing it would
// pair the next request with a stale response — and the next call
// dials a fresh one.
type link struct {
	addr   string
	tlsCfg *tls.Config
	// timeout resolves a deadline class to the owner's bound, read per
	// call because owners expose their bounds as plain fields that may
	// be tuned after construction. Zero disables the deadline.
	timeout func(deadlineClass) time.Duration
	// dials and idleReaps are the process-wide counters for this kind
	// of link.
	dials, idleReaps *obs.Counter
	// metrics is a hop link's per-position metric set, installed when
	// the binding is known and swapped atomically on re-binding; nil
	// on other links and before the first bind.
	metrics atomic.Pointer[hopMetrics]

	mu     sync.Mutex
	closed bool
	wrap   func(net.Conn) net.Conn
	free   []pooledConn
}

type pooledConn struct {
	conn  net.Conn
	since time.Time
}

// call performs one request/response exchange under the method's
// policy. An application-level error (the reply's error string) comes
// back as a plain error; connection-level failures as *TransportError.
func (l *link) call(method string, reqBody, respBody any) error {
	frame, err := encodeFrame(method, reqBody)
	if err != nil {
		return err
	}
	return l.send(method, frame, respBody)
}

// send is call for a request frame that is already built.
func (l *link) send(method string, frame *bytes.Buffer, respBody any) error {
	pol := policies[method]
	timeout := l.timeout(pol.class)
	reply, err := l.exchange(method, frame, timeout, false)
	if pol.retry && IsTransportError(err) {
		obsShardRetries.Inc()
		reply, err = l.exchange(method, frame, timeout, true)
	}
	if err != nil {
		return err
	}
	errText, body, err := openFrame(reply)
	if err != nil {
		return err
	}
	if errText != "" {
		return errors.New(errText)
	}
	return decodeBody(body, respBody)
}

// exchange writes one request frame and reads the reply's payload on
// a pooled connection (a freshly dialed one when fresh is set). The
// timeout covers the whole exchange so a stalled or dead endpoint
// surfaces as an error instead of wedging the caller forever. Only a
// connection that completed the exchange cleanly goes back to the
// pool.
func (l *link) exchange(method string, frame *bytes.Buffer, timeout time.Duration, fresh bool) ([]byte, error) {
	m := l.metrics.Load()
	fail := func(op string, err error) ([]byte, error) {
		obsClientTransportErrors.Inc()
		if m != nil {
			m.errors.Inc()
		}
		return nil, &TransportError{Op: op, Err: err}
	}
	conn, err := l.get(fresh)
	if err != nil {
		return fail("dialing "+l.addr+" for "+method, err)
	}
	start := time.Now()
	if timeout > 0 {
		conn.SetDeadline(start.Add(timeout))
	}
	if err := WriteFrame(conn, frame); err != nil {
		conn.Close()
		return fail("sending "+method, err)
	}
	reply, err := readFrame(conn, MaxFrameSize)
	if err != nil {
		conn.Close()
		return fail("reading "+method+" response", err)
	}
	if m != nil {
		m.bytesOut.Add(uint64(frame.Len() - prefixLen))
		m.bytesIn.Add(uint64(len(reply)))
		if lat := m.latency[method]; lat != nil {
			lat.ObserveDuration(time.Since(start))
		}
	}
	if timeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	l.put(conn)
	return reply, nil
}

// get checks a connection out of the pool, or dials when the pool is
// empty or a fresh connection is demanded. Connections idle past
// maxConnIdle are discarded — the serving side sheds idle connections
// too, and handing out one it already closed would surface as a
// spurious transport failure.
func (l *link) get(fresh bool) (net.Conn, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, errors.New("rpc: client closed")
	}
	var stale []net.Conn
	var pooled net.Conn
	for n := len(l.free); n > 0 && !fresh && pooled == nil; n-- {
		pc := l.free[n-1]
		l.free = l.free[:n-1]
		if time.Since(pc.since) > maxConnIdle {
			stale = append(stale, pc.conn)
		} else {
			pooled = pc.conn
		}
	}
	wrap := l.wrap
	l.mu.Unlock()
	l.idleReaps.Add(uint64(len(stale)))
	for _, c := range stale {
		c.Close()
	}
	if pooled != nil {
		return pooled, nil
	}
	l.dials.Inc()
	c, err := tls.Dial("tcp", l.addr, l.tlsCfg)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		return wrap(c), nil
	}
	return c, nil
}

func (l *link) put(conn net.Conn) {
	l.mu.Lock()
	if l.closed || len(l.free) >= maxIdleConns {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.free = append(l.free, pooledConn{conn: conn, since: time.Now()})
	l.mu.Unlock()
}

// close releases all pooled connections; subsequent calls fail.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	free := l.free
	l.free = nil
	l.mu.Unlock()
	for _, pc := range free {
		pc.conn.Close()
	}
}
