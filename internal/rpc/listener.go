package rpc

import (
	"bytes"
	"crypto/tls"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"
)

// Connection deadline defaults. Without deadlines an idle or stalled
// peer pins a handler goroutine (and its connection) forever; every
// conn this package owns gets a read deadline covering the gap
// between frames and a write deadline per response. Both are
// configurable on the owning Server/HopServer/Client.
const (
	// DefaultIdleTimeout is how long a server connection may sit
	// between request frames before it is dropped. It also covers
	// reading one frame, round-sized bodies included.
	DefaultIdleTimeout = 3 * time.Minute
	// DefaultWriteTimeout bounds writing one response frame. A reply
	// may be round-sized (hop.mix's output, shard.begin's build), so
	// this is the time a peer has to drain a whole batch, not a few
	// hundred KB: a minute for the 145 MB batch MaxFrameSize is sized
	// from asks the peer for ≈ 2.4 MB/s.
	DefaultWriteTimeout = time.Minute
)

// handler serves one method: a decoder positioned at the request body
// in, the finished reply frame out.
type handler func(body *gob.Decoder) (*bytes.Buffer, error)

// typed adapts a handler written against its request and response
// types to the wire: it owns the body's decode and the reply's encode,
// so a malformed body is an error response before fn ever runs.
func typed[Req, Resp any](fn func(*Req) (Resp, error)) handler {
	return func(body *gob.Decoder) (*bytes.Buffer, error) {
		var req Req
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
		resp, err := fn(&req)
		if err != nil {
			return nil, err
		}
		return encodeFrame("", resp)
	}
}

// listenerCore is the serving half of the transport: TLS listener,
// connection tracking, the per-connection frame loop with idle/write
// deadlines, dispatch by method name, and shutdown. Server, ShardServer
// and HopServer are each a listenerCore plus a method table.
type listenerCore struct {
	ln net.Listener

	serverTLS *tls.Config
	clientTLS *tls.Config

	// IdleTimeout and WriteTimeout guard the frame loop; zero
	// disables the respective deadline. Set before serving traffic.
	IdleTimeout  time.Duration
	WriteTimeout time.Duration

	// Logf receives connection-level errors; defaults to log.Printf.
	Logf func(format string, args ...any)

	// methods is the endpoint's method table, fixed at construction.
	methods map[string]handler

	mu       sync.Mutex
	closed   bool
	wrapConn func(net.Conn) net.Conn
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
}

// SetConnWrapper installs a wrapper applied to every subsequently
// accepted connection — the fault-injection hook (a
// faults.Injector.Wrapper value). nil removes the wrapper.
func (s *listenerCore) SetConnWrapper(w func(net.Conn) net.Conn) {
	s.mu.Lock()
	s.wrapConn = w
	s.mu.Unlock()
}

// newListenerCore starts a TLS listener on addr serving methods and
// begins accepting connections. A nil serverTLS generates a fresh
// self-signed pinned certificate; a caller-supplied identity is how a
// durable endpoint presents the same pinned certificate across
// restarts (see LoadOrCreateTLSIdentity).
func newListenerCore(addr string, serverTLS, clientTLS *tls.Config, methods map[string]handler) (*listenerCore, error) {
	if serverTLS == nil {
		host, _, err := net.SplitHostPort(addr)
		if err != nil || host == "" {
			host = "127.0.0.1"
		}
		if serverTLS, clientTLS, err = SelfSignedTLS(host); err != nil {
			return nil, err
		}
	}
	ln, err := tls.Listen("tcp", addr, serverTLS)
	if err != nil {
		return nil, fmt.Errorf("rpc: listening on %s: %w", addr, err)
	}
	s := &listenerCore{
		ln:           ln,
		serverTLS:    serverTLS,
		clientTLS:    clientTLS,
		IdleTimeout:  DefaultIdleTimeout,
		WriteTimeout: DefaultWriteTimeout,
		Logf:         log.Printf,
		methods:      methods,
		conns:        make(map[net.Conn]bool),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *listenerCore) Addr() string { return s.ln.Addr().String() }

// ClientTLS returns a TLS config that trusts this endpoint's
// ephemeral certificate (how the PKI of §3.1 is modelled; see
// SelfSignedTLS).
func (s *listenerCore) ClientTLS() *tls.Config { return s.clientTLS.Clone() }

// CertificatePEM returns the endpoint certificate for out-of-band
// distribution to peer processes.
func (s *listenerCore) CertificatePEM() ([]byte, error) { return CertificatePEM(s.serverTLS) }

// Close stops the listener and all connections.
func (s *listenerCore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *listenerCore) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.wrapConn != nil {
			conn = s.wrapConn(conn)
		}
		s.conns[conn] = true
		// Snapshot the deadlines under mu: writers (tests tightening
		// them) synchronize on the same lock.
		idle, write := s.IdleTimeout, s.WriteTimeout
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn, idle, write)
		}()
	}
}

func (s *listenerCore) serveConn(conn net.Conn, idle, write time.Duration) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		// The read deadline spans the idle gap between frames: a peer
		// that connects and goes silent is shed instead of holding
		// this goroutine for the life of the process.
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		frame, err := ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				s.Logf("rpc: connection %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		obsServerRequests.Inc()
		obsServerBytesIn.Add(uint64(len(frame)))
		handleStart := time.Now()
		reply, err := s.dispatch(frame)
		if err != nil {
			s.Logf("rpc: bad request from %s: %v", conn.RemoteAddr(), err)
			return
		}
		obsServerHandleSeconds.ObserveDuration(time.Since(handleStart))
		obsServerBytesOut.Add(uint64(reply.Len() - prefixLen))
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		}
		if err := WriteFrame(conn, reply); err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				s.Logf("rpc: reply to %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// dispatch answers one request payload with its reply frame. A
// handler's failure is an error reply; only a payload whose method
// name does not decode is an error here, and costs the peer its
// connection.
func (s *listenerCore) dispatch(payload []byte) (*bytes.Buffer, error) {
	method, body, err := openFrame(payload)
	if err != nil {
		obsServerErrors.Inc()
		return nil, err
	}
	fn := s.methods[method]
	if fn == nil {
		fn = func(*gob.Decoder) (*bytes.Buffer, error) { return nil, fmt.Errorf("rpc: unknown method %q", method) }
	}
	reply, err := fn(body)
	if err != nil {
		obsServerErrors.Inc()
		return encodeFrame(err.Error(), nil)
	}
	return reply, nil
}
