// Package faults is a deterministic fault-injection layer for the
// rpc transport: an injectable net.Conn / net.Listener wrapper that
// can drop, delay, corrupt, partition, or blackhole specific
// connections mid-round.
//
// The chaos and adversary scenarios the paper's security argument
// assumes (§5.2.3, §6.3: halted chains, crashed and byzantine
// servers) need reproducible network misbehaviour. An Injector holds
// a rule set; every rule names a connection label pattern (hop
// clients are labelled per target server, hop endpoints per listener)
// and an operation. Whether a rule fires on a given I/O operation is
// a pure function of the injector seed and the rule's own operation
// counter — never of wall-clock time or goroutine scheduling — so a
// failing scenario replays exactly under `-race`, in CI, and across
// machines.
//
// Rules are armed and disarmed at runtime: scenario tables flip them
// between rounds (internal/core's chaos tests). No shipped binary
// links this package; a multi-process deployment is faulted from
// outside, by killing its processes (scripts/chaos_e2e.sh).
package faults

import (
	"errors"
	"net"
	"os"
	"path"
	"sync"
	"sync/atomic"
	"time"
)

// Op is the kind of fault a rule injects.
type Op int

const (
	// Drop closes the connection at the triggering operation: the
	// abrupt process death of a hop (§5.2.3's server crash, observed
	// mid-round).
	Drop Op = iota
	// Delay sleeps before the triggering operation: a slow peer whose
	// responses arrive after the caller's rpc deadline.
	Delay
	// Corrupt flips a byte of the transferred data: a byzantine peer
	// whose frames no longer parse (caught by re-validation, converted
	// to blame).
	Corrupt
	// Blackhole makes reads hang until the deadline and silently
	// discards writes: a one-way partition where packets vanish but
	// the socket stays up.
	Blackhole
	// Partition refuses all traffic on matching connections while the
	// rule is armed: a full network partition between the two ends.
	Partition
)

// Injection errors. Drop and Partition surface as transport errors so
// the chain orchestrator cannot distinguish them from a genuinely
// crashed or unreachable peer — which is the point.
var (
	ErrDropped     = errors.New("faults: connection dropped by injected fault")
	ErrPartitioned = errors.New("faults: connection partitioned by injected fault")
)

// Rule is one injected fault. A rule matches I/O operations on
// connections whose label matches Target; it skips the first After
// matched operations, then fires — gated by Prob — at most Count
// times (0 = unlimited).
type Rule struct {
	// Target is a path.Match pattern over connection labels
	// ("srv1", "srv*", "mix@*"); empty matches every label.
	Target string
	// Op is the fault to inject.
	Op Op
	// Delay is the added latency per firing (Delay op only).
	Delay time.Duration
	// After skips the first After matched I/O operations, so a fault
	// can hit mid-round: after the key announcement exchanges, say,
	// but before the mixing step completes.
	After int
	// Count bounds the number of firings; 0 means every match fires.
	Count int
	// Prob gates each firing on a deterministic per-operation coin in
	// [0,1]; 0 and 1 both mean "always fire". The coin depends only
	// on the injector seed, the rule, and the operation ordinal.
	Prob float64

	off   atomic.Bool
	ops   atomic.Int64
	fired atomic.Int64
}

// Disarm stops the rule from firing until Arm. Counters keep their
// values, so a re-armed Count-limited rule does not fire again once
// exhausted.
func (r *Rule) Disarm() { r.off.Store(true) }

// Arm re-enables a disarmed rule.
func (r *Rule) Arm() { r.off.Store(false) }

// Fired returns how many times the rule has fired, for scenario
// assertions ("the partition actually bit").
func (r *Rule) Fired() int { return int(r.fired.Load()) }

// matches reports whether the rule applies to a connection label.
func (r *Rule) matches(label string) bool {
	if r.off.Load() {
		return false
	}
	if r.Target == "" || r.Target == "*" {
		return true
	}
	ok, err := path.Match(r.Target, label)
	return err == nil && ok
}

// Injector applies a rule set to wrapped connections. The zero value
// is unusable; construct with New.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	rules []*Rule
}

// New returns an injector with the given determinism seed and initial
// rules. Two injectors with equal seeds and rule sets make identical
// decisions on identical operation sequences.
func New(seed int64, rules ...*Rule) *Injector {
	in := &Injector{seed: uint64(seed)}
	for _, r := range rules {
		in.Add(r)
	}
	return in
}

// Add installs a rule and returns it (for later Disarm/Fired use).
func (in *Injector) Add(r *Rule) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, r)
	return r
}

// decide returns the rule that fires for one I/O operation on a
// labelled connection, or nil. The first matching armed rule that
// passes its After/Count/Prob gates wins.
func (in *Injector) decide(label string) *Rule {
	in.mu.Lock()
	rules := in.rules
	in.mu.Unlock()
	for i, r := range rules {
		if !r.matches(label) {
			continue
		}
		n := r.ops.Add(1)
		if n <= int64(r.After) {
			continue
		}
		if r.Count > 0 && r.fired.Load() >= int64(r.Count) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.coin(uint64(i), uint64(n)) >= r.Prob {
			continue
		}
		r.fired.Add(1)
		return r
	}
	return nil
}

// coin derives a deterministic uniform value in [0,1) from the seed,
// the rule ordinal, and the operation ordinal (splitmix64 finalizer).
func (in *Injector) coin(rule, n uint64) float64 {
	x := in.seed ^ rule*0x9E3779B97F4A7C15 ^ n*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// WrapConn applies the injector's rules to a connection under the
// given label. A nil injector returns the connection unchanged, so
// call sites can wrap unconditionally.
func (in *Injector) WrapConn(label string, c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	return &faultConn{Conn: c, in: in, label: label, closed: make(chan struct{})}
}

// Wrapper returns a conn-wrapping closure for the label, matching the
// hook signatures of rpc endpoints and clients. A nil injector yields
// nil — the "no faults" hook value.
func (in *Injector) Wrapper(label string) func(net.Conn) net.Conn {
	if in == nil {
		return nil
	}
	return func(c net.Conn) net.Conn { return in.WrapConn(label, c) }
}

// faultConn injects the matching rules into every Read and Write. It
// tracks deadlines itself so a blackholed read can honour them
// without ever touching the underlying socket.
type faultConn struct {
	net.Conn
	in    *Injector
	label string

	mu            sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) Read(b []byte) (int, error) {
	r := c.in.decide(c.label)
	if r == nil {
		return c.Conn.Read(b)
	}
	switch r.Op {
	case Drop:
		c.Close()
		return 0, ErrDropped
	case Partition:
		c.Close()
		return 0, ErrPartitioned
	case Delay:
		c.sleep(r.Delay, c.deadline(&c.readDeadline))
		return c.Conn.Read(b)
	case Corrupt:
		n, err := c.Conn.Read(b)
		if n > 0 {
			b[n/2] ^= 0x40
		}
		return n, err
	case Blackhole:
		return 0, c.hang(c.deadline(&c.readDeadline))
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	r := c.in.decide(c.label)
	if r == nil {
		return c.Conn.Write(b)
	}
	switch r.Op {
	case Drop:
		c.Close()
		return 0, ErrDropped
	case Partition:
		c.Close()
		return 0, ErrPartitioned
	case Delay:
		c.sleep(r.Delay, c.deadline(&c.writeDeadline))
		return c.Conn.Write(b)
	case Corrupt:
		mangled := append([]byte(nil), b...)
		if len(mangled) > 0 {
			mangled[len(mangled)/2] ^= 0x40
		}
		return c.Conn.Write(mangled)
	case Blackhole:
		// Pretend success; the bytes vanish and the peer's idle
		// deadline eventually reaps its half of the connection.
		return len(b), nil
	}
	return c.Conn.Write(b)
}

func (c *faultConn) deadline(field *time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return *field
}

// sleep pauses for d but never (much) past the deadline: the
// operation proceeds and the underlying socket then reports the
// deadline violation exactly as a genuinely slow peer would cause.
func (c *faultConn) sleep(d time.Duration, deadline time.Time) {
	if !deadline.IsZero() {
		if until := time.Until(deadline) + 10*time.Millisecond; until < d {
			d = until
		}
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closed:
	}
}

// hang blocks until the read deadline (or close) and reports it
// exceeded, without consuming socket data.
func (c *faultConn) hang(deadline time.Time) error {
	if deadline.IsZero() {
		<-c.closed
		return net.ErrClosed
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-t.C:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	}
}
