package rpc

import (
	"context"
	"crypto/sha256"
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
)

// Endpoint names one gateway a MultiClient may talk to.
type Endpoint struct {
	Addr string
	TLS  *tls.Config
}

// ParseEndpoints builds the user-facing gateway set from the xrd-*
// commands' flags: the -gateways list ("addr=certfile,...", each
// certfile the pinned certificate that gateway wrote) when given, else
// the coordinator itself, which serves the users of its one in-process
// gateway shard.
func ParseEndpoints(coordAddr, coordCert, gateways string) ([]Endpoint, error) {
	specs := [][]string{{coordAddr, coordCert}}
	if strings.TrimSpace(gateways) != "" {
		specs = nil
		for _, entry := range strings.Split(gateways, ",") {
			parts := strings.Split(strings.TrimSpace(entry), "=")
			if len(parts) != 2 {
				return nil, fmt.Errorf(`-gateways entry %q: want "addr=certfile"`, entry)
			}
			specs = append(specs, parts)
		}
	}
	var eps []Endpoint
	for _, s := range specs {
		tlsCfg, err := ClientTLSFromFile(s[1])
		if err != nil {
			return nil, err
		}
		eps = append(eps, Endpoint{Addr: s[0], TLS: tlsCfg})
	}
	return eps, nil
}

// MultiClient's retry schedule. One "attempt" is a full failover cycle
// over every gateway; between attempts the client sleeps an
// exponentially growing, jittered interval — long enough for a
// crashed gateway to restart and replay its WAL, spread out so a fleet
// of clients does not stampede it the moment it returns. The first
// sleep is about backoffBase, doubling per cycle up to backoffMax.
const (
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// backoffSleep returns the jittered pause before retry cycle a
// (a ≥ 1): half the exponential interval fixed plus half uniformly
// random.
func backoffSleep(a int) time.Duration {
	d := backoffBase << (a - 1)
	if d > backoffMax || d <= 0 { // <= 0 guards shift overflow
		d = backoffMax
	}
	return d/2 + rand.N(d/2+1)
}

// retriable reports whether an error justifies trying another gateway
// (or the same set again after a pause). Transport-level failures
// obviously do; so do deadline expiries in every shape they reach us:
// a local net.Conn deadline surfaces as a net.Error timeout inside a
// TransportError, but a gateway that is up while its backend is
// wedged relays the deadline as a flattened application-error string,
// which the pre-failover client treated as authoritative and gave up
// on. An application-level rejection ("round closed", "banned") stays
// final.
func retriable(err error) bool {
	if err == nil {
		return false
	}
	if IsTransportError(err) {
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	// Server-relayed errors cross the wire as strings (response.Err);
	// match the two spellings Go's deadline machinery produces.
	msg := err.Error()
	return strings.Contains(msg, "deadline exceeded") || strings.Contains(msg, "i/o timeout")
}

// dedupWindow is how many rounds a fetched message's digest is
// remembered for duplicate suppression. Redelivery after a gateway
// restart lands within a round or two; 8 leaves slack for retried
// rounds without growing the set unboundedly.
const dedupWindow = 8

// fetchDigest names a fetched message in the dedup window: the first
// half of its SHA-256. At 128 bits a chance collision among the
// window's ≈ 10⁵ digests has probability ≈ 2⁻⁹⁵, and making a message
// collide with another user's takes a second preimage; the half-size
// key halves what the window holds.
type fetchDigest [16]byte

// MultiClient is a user's view of a sharded gateway front end: a set
// of gateways, the shard ranges they own (discovered from their
// status endpoints), and failover. Operations that any gateway can
// serve — parameter fetches, submissions — prefer the gateway owning
// the user's mailbox and retry the others on a transport-level
// failure; operations bound to mailbox storage (fetch, register) must
// reach the owner. It implements client.ParamsSource, so a
// client.User builds rounds against a sharded deployment exactly as
// against a single gateway.
type MultiClient struct {
	clients []*Client
	// Attempts is the number of failover cycles; zero means 3. A
	// one-cycle client never sleeps, which keeps FuzzReply's
	// executions off the sleep schedule. Set before concurrent use.
	Attempts int

	mu sync.Mutex
	// ranges[i] is clients[i]'s discovered shard range; the zero value
	// means unknown (not yet refreshed, or a coordinator serving the
	// full space — which FullRange covers either way).
	ranges []core.ShardRange
	// seen holds the digests of fetched messages, one set per fetch
	// round that first returned them, suppressing duplicates when a
	// restarted gateway redelivers unacked mail (at-least-once
	// downstream, exactly-once at the application). Pruned to
	// dedupWindow rounds once per round, when a fetch names a round past
	// pruned, by dropping whole sets: the held digests are never walked,
	// and what a round's set took is freed with it (a map never shrinks,
	// so one set for the whole window would keep its largest size).
	seen   map[uint64]map[fetchDigest]struct{}
	pruned uint64
}

var _ client.ParamsSource = (*MultiClient)(nil)

// NewMultiClient creates a client over the given gateways without
// connecting; Refresh (or the first call) dials.
func NewMultiClient(endpoints []Endpoint) (*MultiClient, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("rpc: no gateway endpoints")
	}
	m := &MultiClient{
		ranges: make([]core.ShardRange, len(endpoints)),
		seen:   make(map[uint64]map[fetchDigest]struct{}),
	}
	for _, ep := range endpoints {
		m.clients = append(m.clients, NewClient(ep.Addr, ep.TLS))
	}
	return m, nil
}

// Clients exposes the per-gateway clients in endpoint order.
func (m *MultiClient) Clients() []*Client { return m.clients }

// Close closes every connection.
func (m *MultiClient) Close() {
	for _, c := range m.clients {
		c.Close()
	}
}

// Refresh queries every gateway's status and records the shard range
// each owns. Unreachable gateways keep their previous (possibly
// unknown) range; at least one must answer.
func (m *MultiClient) Refresh() error {
	var lastErr error
	ok := false
	for i, c := range m.clients {
		st, err := c.Status()
		if err != nil {
			lastErr = err
			continue
		}
		ok = true
		m.mu.Lock()
		if st.ShardHi > st.ShardLo {
			m.ranges[i] = core.ShardRange{Lo: st.ShardLo, Hi: st.ShardHi}
		} else {
			m.ranges[i] = core.FullRange()
		}
		m.mu.Unlock()
	}
	if !ok {
		return fmt.Errorf("rpc: no gateway reachable: %w", lastErr)
	}
	return nil
}

// ownerIdx returns the index of the gateway owning a mailbox, falling
// back to the first gateway when no discovered range covers it
// (correct for a coordinator serving its one full-range shard; an
// application error from a shard that does not own the mailbox
// otherwise).
func (m *MultiClient) ownerIdx(mailbox []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ownerIn(m.ranges, core.OwnerShard(mailbox))
}

// ownerIn is ownerIdx for a registry shard over given ranges.
func ownerIn(ranges []core.ShardRange, shard int) int {
	for i, r := range ranges {
		if r.Width() > 0 && r.Contains(shard) {
			return i
		}
	}
	return 0
}

// ClientFor returns the gateway owning a mailbox (see ownerIdx).
func (m *MultiClient) ClientFor(mailbox []byte) *Client { return m.clients[m.ownerIdx(mailbox)] }

// tryEach runs op against width gateways starting from preferred
// (every gateway for operations any of them can serve, just the owner
// for ones bound to its storage), failing over to the next on
// retriable errors (transport failures and deadline expiries — see
// retriable); an application-level rejection is authoritative and
// returned as is. When a whole cycle fails it backs off (bounded
// exponential with jitter) and runs another, up to Attempts cycles —
// covering the window in which a crashed gateway restarts and replays
// its data directory.
func (m *MultiClient) tryEach(preferred, width int, op func(*Client) error) error {
	var lastErr error
	attempts := m.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	for a := 0; a < attempts; a++ {
		if a > 0 {
			obsRetryCycles.Inc()
			d := backoffSleep(a)
			obsBackoffSeconds.ObserveDuration(d)
			time.Sleep(d)
		}
		for k := 0; k < width; k++ {
			c := m.clients[(preferred+k)%len(m.clients)]
			err := op(c)
			if err == nil || !retriable(err) {
				return err
			}
			lastErr = err
			obsFailovers.Inc()
		}
	}
	return lastErr
}

// ChainParams implements client.ParamsSource with failover: chain
// parameters are public and identical on every gateway.
func (m *MultiClient) ChainParams(chain int, round uint64) (mix.Params, error) {
	var p mix.Params
	err := m.tryEach(0, len(m.clients), func(c *Client) error {
		var err error
		p, err = c.ChainParams(chain, round)
		return err
	})
	return p, err
}

// Status returns the first reachable gateway's status. A new epoch
// there drops every gateway client's cached parameters (see
// Client.Status), since ChainParams may fail over to any of them.
func (m *MultiClient) Status() (StatusResponse, error) {
	var st StatusResponse
	err := m.tryEach(0, len(m.clients), func(c *Client) error {
		var err error
		st, err = c.Status()
		return err
	})
	if err == nil {
		for _, c := range m.clients {
			c.noteEpoch(st.Epoch)
		}
	}
	return st, err
}

// Submit uploads a round output, preferring the mailbox's owner but
// accepting any reachable gateway: submissions feed the global chain
// batches, so a user whose own gateway is briefly unreachable still
// makes her round through a peer.
func (m *MultiClient) Submit(mailbox []byte, out *client.RoundOutput) error {
	return m.tryEach(m.ownerIdx(mailbox), len(m.clients), func(c *Client) error {
		return c.Submit(mailbox, out)
	})
}

// Fetch downloads a mailbox from its owning gateway — mailbox storage
// is not replicated, so there is no failover target; instead the
// owner is retried with backoff, covering a crashed gateway's
// restart-and-replay window.
//
// Fetched messages are deduplicated against recent fetches: a
// restarted gateway redelivers everything unacked (at-least-once),
// and the digest set turns that into exactly-once for the caller.
func (m *MultiClient) Fetch(round uint64, mailbox []byte) ([][]byte, error) {
	var msgs [][]byte
	err := m.tryEach(m.ownerIdx(mailbox), 1, func(c *Client) error {
		var err error
		msgs, err = c.Fetch(round, mailbox)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m.dedupFetched(round, msgs), nil
}

// dedupFetched filters out messages whose digest an earlier fetch
// already returned, records the survivors in their round's set, and
// drops the sets of rounds older than dedupWindow. The prune runs once
// a round — the first time a fetch names a later round than any before
// — not once a fetch; a set recorded afterwards for a round already
// outside the window goes at the next prune.
func (m *MultiClient) dedupFetched(round uint64, msgs [][]byte) [][]byte {
	if len(msgs) == 0 {
		return msgs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]byte, 0, len(msgs))
	for _, msg := range msgs {
		sum := sha256.Sum256(msg)
		h := fetchDigest(sum[:len(fetchDigest{})])
		if m.fetchedBefore(h) {
			continue
		}
		set := m.seen[round]
		if set == nil {
			set = make(map[fetchDigest]struct{})
			m.seen[round] = set
		}
		set[h] = struct{}{}
		out = append(out, msg)
	}
	if round > m.pruned {
		m.pruned = round
		for r := range m.seen {
			if r+dedupWindow <= round {
				delete(m.seen, r)
			}
		}
	}
	return out
}

// fetchedBefore reports whether any held round's set has h.
func (m *MultiClient) fetchedBefore(h fetchDigest) bool {
	for _, set := range m.seen {
		if _, dup := set[h]; dup {
			return true
		}
	}
	return false
}

// Ack confirms receipt of a round's mailbox contents with the owning
// gateway so it can prune (and eventually compact) them. Best-effort:
// losing an ack only means redelivery, which dedup absorbs.
func (m *MultiClient) Ack(round uint64, mailbox []byte) (int, error) {
	return m.ClientFor(mailbox).Ack(round, mailbox)
}

// Register records mailbox identifiers, each owning gateway's share as
// one batch, the gateways' batches concurrently. It returns how many
// the gateways accepted and the lowest-indexed gateway's error.
func (m *MultiClient) Register(mailboxes [][]byte) (int, error) {
	m.mu.Lock()
	ranges := slices.Clone(m.ranges)
	m.mu.Unlock()
	buckets := make([][][]byte, len(m.clients))
	for _, mb := range mailboxes {
		i := ownerIn(ranges, core.OwnerShard(mb))
		buckets[i] = append(buckets[i], mb)
	}
	counts := make([]int, len(buckets))
	errs := make([]error, len(buckets))
	var wg sync.WaitGroup
	for i, batch := range buckets {
		if len(batch) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i], errs[i] = m.clients[i].Register(batch)
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Play runs one round for remote users: one Status call, then for
// each user, whatever another's result, Rebalance onto the plan of a
// new epoch, Settle with the served outcomes, BuildRound and Submit. It
// returns the round built and the users' errors joined. A round whose
// build fails or whose submission a gateway refuses (an error retriable
// rejects) left nothing at the gateway, so it is withdrawn and its
// bodies go next round. A transport failure that outlasts Attempts is
// ambiguous, since a gateway may have banked the submission; its
// records stay for Settle, which restores by the round's outcome.
func (m *MultiClient) Play(users ...*client.User) (uint64, error) {
	st, err := m.Status()
	if err != nil {
		return 0, err
	}
	moved := func(u *client.User) bool { return u.Epoch() != st.Epoch }
	var plan *chainsel.Plan
	if slices.ContainsFunc(users, moved) {
		if plan, err = chainsel.NewPlan(st.NumChains); err != nil {
			return st.Round, err
		}
	}
	var errs []error
	for _, u := range users {
		if moved(u) {
			u.Rebalance(plan, st.Epoch)
		}
		u.Settle(st.Outcomes)
		out, err := u.BuildRound(st.Round, m)
		if err == nil {
			err = m.Submit(u.Mailbox(), out)
		}
		if err != nil && (out == nil || !retriable(err)) {
			u.Withdraw(st.Round)
		}
		errs = append(errs, err)
	}
	return st.Round, errors.Join(errs...)
}

// Receive fetches u's mailbox for round and opens it. A message none
// of her keys opens is an error: an honest deployment delivers none.
func (m *MultiClient) Receive(round uint64, u *client.User) ([]client.Received, error) {
	msgs, err := m.Fetch(round, u.Mailbox())
	if err != nil {
		return nil, err
	}
	recv, bad := u.OpenMailbox(round, msgs)
	if bad != 0 {
		return recv, fmt.Errorf("rpc: round %d: %d undecryptable messages", round, bad)
	}
	return recv, nil
}
