package rpc

import (
	"crypto/tls"
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
	// between request frames before it is dropped.
	DefaultIdleTimeout = 3 * time.Minute
	// DefaultWriteTimeout bounds writing one response frame.
	DefaultWriteTimeout = time.Minute
)

// handler serves one method: request body in, response body out.
type handler func(body []byte) ([]byte, error)

// typed adapts a handler written against its request and response
// types to the wire: it owns the body's decode and the reply's encode,
// so a malformed body is an error response before fn ever runs.
func typed[Req, Resp any](fn func(*Req) (Resp, error)) handler {
	return func(body []byte) ([]byte, error) {
		var req Req
		if err := decode(body, &req); err != nil {
			return nil, err
		}
		resp, err := fn(&req)
		if err != nil {
			return nil, err
		}
		return encode(resp)
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
		var req request
		if err := decode(frame, &req); err != nil {
			obsServerErrors.Inc()
			s.Logf("rpc: bad request from %s: %v", conn.RemoteAddr(), err)
			return
		}
		handleStart := time.Now()
		resp := s.dispatch(req)
		obsServerHandleSeconds.ObserveDuration(time.Since(handleStart))
		out, err := encode(resp)
		if err != nil {
			s.Logf("rpc: encoding response: %v", err)
			return
		}
		obsServerBytesOut.Add(uint64(len(out)))
		if write > 0 {
			conn.SetWriteDeadline(time.Now().Add(write))
		}
		if err := WriteFrame(conn, out); err != nil {
			return
		}
	}
}

func (s *listenerCore) dispatch(req request) response {
	fn := s.methods[req.Method]
	if fn == nil {
		fn = func([]byte) ([]byte, error) { return nil, fmt.Errorf("rpc: unknown method %q", req.Method) }
	}
	body, err := fn(req.Body)
	if err != nil {
		obsServerErrors.Inc()
		return response{Err: err.Error()}
	}
	return response{Body: body}
}
