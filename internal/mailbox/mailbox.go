// Package mailbox implements XRD's mailbox servers (§5.1).
//
// Every user has a mailbox publicly associated with her, identified
// by her public key. Mailbox servers expose put and get and are
// trusted only for availability, never for privacy: by the time a
// message reaches a mailbox its origin has been hidden by a mix chain
// and its content is encrypted for the mailbox owner.
//
// A Cluster shards mailboxes across several servers by hashing the
// mailbox identifier, like different users having different e-mail
// providers.
package mailbox

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/onion"
)

// Process-wide mailbox metrics: the gauge tracks messages currently
// retained across every Server in the process (the gateway role's
// mailbox depth at a glance); the counters the flows that change it.
var (
	obsStored      = obs.GetOrCreateGauge("xrd_mailbox_messages")
	obsDeliveredIn = obs.GetOrCreateCounter("xrd_mailbox_put_total")
	obsDropped     = obs.GetOrCreateCounter("xrd_mailbox_dropped_total")
	obsAcked       = obs.GetOrCreateCounter("xrd_mailbox_acked_total")
	obsPruned      = obs.GetOrCreateCounter("xrd_mailbox_pruned_total")
)

// Server is a single mailbox server holding per-round message
// buckets for the mailboxes it manages.
type Server struct {
	mu sync.RWMutex
	// boxes[round][mailbox] is the list of messages delivered to the
	// mailbox in that round.
	boxes map[uint64]map[string][][]byte
	// depth[mailbox] counts that mailbox's messages across every
	// retained round, enforcing maxDepth.
	depth map[string]int
	// maxDepth caps a mailbox's retained messages; 0 means unlimited.
	// Past the cap the OLDEST messages are evicted first — a user who
	// stops fetching loses history, not fresh mail.
	maxDepth int
}

// NewServer returns an empty mailbox server with unbounded mailboxes.
func NewServer() *Server { return NewServerLimited(0) }

// NewServerLimited returns an empty mailbox server whose mailboxes
// each retain at most maxDepth messages (0 = unlimited).
func NewServerLimited(maxDepth int) *Server {
	return &Server{
		boxes:    make(map[uint64]map[string][][]byte),
		depth:    make(map[string]int),
		maxDepth: maxDepth,
	}
}

// Put appends a message to a mailbox for a round, returning how many
// old messages the depth cap evicted. The message is stored as given;
// mailbox servers never inspect contents.
func (s *Server) Put(round uint64, mailbox []byte, msg []byte) (dropped int) {
	return s.PutBatch(round, []Delivery{{Mailbox: mailbox, Msg: msg}})
}

// Delivery is one routed message: a mailbox identifier and the
// opaque message bytes destined for it.
type Delivery struct {
	Mailbox []byte
	Msg     []byte
}

// PutBatch appends a batch of messages to their mailboxes for a
// round under a single lock acquisition — the bulk path mix chains
// use when a whole round's output lands at once. The return value is
// the number of old messages evicted by the depth cap.
func (s *Server) PutBatch(round uint64, items []Delivery) (dropped int) {
	if len(items) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rb, ok := s.boxes[round]
	if !ok {
		rb = make(map[string][][]byte)
		s.boxes[round] = rb
	}
	for _, it := range items {
		mb := string(it.Mailbox)
		rb[mb] = append(rb[mb], append([]byte(nil), it.Msg...))
		s.depth[mb]++
		for s.maxDepth > 0 && s.depth[mb] > s.maxDepth {
			s.evictOldestLocked(mb)
			dropped++
		}
	}
	obsDeliveredIn.Add(uint64(len(items)))
	obsStored.Add(int64(len(items) - dropped))
	if dropped > 0 {
		obsDropped.Add(uint64(dropped))
	}
	return dropped
}

// evictOldestLocked removes mailbox mb's single oldest message: the
// first entry of its earliest retained round. Callers hold s.mu and
// guarantee depth[mb] > 0.
func (s *Server) evictOldestLocked(mb string) {
	oldest := uint64(0)
	found := false
	for r, rb := range s.boxes {
		if len(rb[mb]) == 0 {
			continue
		}
		if !found || r < oldest {
			oldest, found = r, true
		}
	}
	if !found {
		return
	}
	msgs := s.boxes[oldest][mb]
	if len(msgs) == 1 {
		delete(s.boxes[oldest], mb)
	} else {
		s.boxes[oldest][mb] = msgs[1:]
	}
	s.depth[mb]--
	if s.depth[mb] == 0 {
		delete(s.depth, mb)
	}
}

// Ack removes a mailbox's messages for a round after the owner has
// confirmed receipt, so delivered mail never accretes (and, under a
// durable store, is compacted out at the next snapshot). Returns how
// many messages were pruned.
func (s *Server) Ack(round uint64, mailbox []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	mb := string(mailbox)
	n := len(s.boxes[round][mb])
	if n == 0 {
		return 0
	}
	delete(s.boxes[round], mb)
	s.depth[mb] -= n
	if s.depth[mb] <= 0 {
		delete(s.depth, mb)
	}
	obsAcked.Add(uint64(n))
	obsStored.Add(int64(-n))
	return n
}

// Get returns all messages delivered to a mailbox in a round; the
// owner downloads all of them at the end of the round (§4 step 4).
func (s *Server) Get(round uint64, mailbox []byte) [][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	msgs := s.boxes[round][string(mailbox)]
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = append([]byte(nil), m...)
	}
	return out
}

// CountForRound returns the total number of messages stored for a
// round, for capacity accounting and tests.
func (s *Server) CountForRound(round uint64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, msgs := range s.boxes[round] {
		n += len(msgs)
	}
	return n
}

// PruneBefore drops all rounds older than the given round, bounding
// memory across a long-running deployment.
func (s *Server) PruneBefore(round uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pruned := 0
	for r, rb := range s.boxes {
		if r < round {
			for mb, msgs := range rb {
				pruned += len(msgs)
				s.depth[mb] -= len(msgs)
				if s.depth[mb] <= 0 {
					delete(s.depth, mb)
				}
			}
			delete(s.boxes, r)
		}
	}
	if pruned > 0 {
		obsPruned.Add(uint64(pruned))
		obsStored.Add(int64(-pruned))
	}
}

// Cluster shards mailboxes over several servers by identifier hash,
// mirroring "different users' mailboxes can be maintained by
// different servers" (§5.1).
type Cluster struct {
	servers []*Server
}

// NewCluster creates a cluster of n fresh mailbox servers with
// unbounded mailboxes.
func NewCluster(n int) (*Cluster, error) { return NewClusterLimited(n, 0) }

// NewClusterLimited creates a cluster of n fresh mailbox servers,
// each capping mailboxes at maxDepth retained messages (0 =
// unlimited, oldest evicted first past the cap).
func NewClusterLimited(n, maxDepth int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("mailbox: cluster needs at least one server, got %d", n)
	}
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.servers = append(c.servers, NewServerLimited(maxDepth))
	}
	return c, nil
}

// NumServers returns the cluster size.
func (c *Cluster) NumServers() int { return len(c.servers) }

// serverIndex routes a mailbox identifier to its home server's index.
func (c *Cluster) serverIndex(mailbox []byte) int {
	h := sha256.Sum256(mailbox)
	return int(binary.BigEndian.Uint64(h[:8]) % uint64(len(c.servers)))
}

// serverFor routes a mailbox identifier to its home server.
func (c *Cluster) serverFor(mailbox []byte) *Server {
	return c.servers[c.serverIndex(mailbox)]
}

// deliverConcurrencyThreshold is the batch size below which Deliver
// stays serial: spawning goroutines costs more than a handful of map
// appends.
const deliverConcurrencyThreshold = 64

// Deliver routes a batch of mix-chain output messages to their
// mailboxes (Algorithm 1 step 2b: "send the message to the mailbox
// server that manages mailbox pk_u"). Malformed messages are counted
// and dropped; mix chains only emit well-formed ones. dropped counts
// old messages the per-mailbox depth cap evicted to make room.
//
// The batch is bucketed by home server first and each server's bucket
// lands through one PutBatch — one lock acquisition per server rather
// than one per message — with the per-server stores written
// concurrently for large batches. Deliver is safe to call
// concurrently (the round pipeline delivers every chain's output in
// parallel); cross-server sharding keeps those writers off each
// other's locks.
func (c *Cluster) Deliver(round uint64, msgs [][]byte) (delivered, malformed, dropped int) {
	buckets := make([][]Delivery, len(c.servers))
	for _, m := range msgs {
		rcpt, err := onion.Recipient(m)
		if err != nil {
			malformed++
			continue
		}
		i := c.serverIndex(rcpt)
		buckets[i] = append(buckets[i], Delivery{Mailbox: rcpt, Msg: m})
		delivered++
	}
	if delivered < deliverConcurrencyThreshold || len(c.servers) == 1 {
		for i, b := range buckets {
			dropped += c.servers[i].PutBatch(round, b)
		}
		return delivered, malformed, dropped
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		dropTot int
	)
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *Server, items []Delivery) {
			defer wg.Done()
			n := s.PutBatch(round, items)
			if n > 0 {
				mu.Lock()
				dropTot += n
				mu.Unlock()
			}
		}(c.servers[i], b)
	}
	wg.Wait()
	return delivered, malformed, dropped + dropTot
}

// Fetch returns the round's messages for a mailbox from its home
// server.
func (c *Cluster) Fetch(round uint64, mailbox []byte) [][]byte {
	return c.serverFor(mailbox).Get(round, mailbox)
}

// Ack prunes a mailbox's messages for a round once the owner has
// acknowledged receipt, returning the number removed.
func (c *Cluster) Ack(round uint64, mailbox []byte) int {
	return c.serverFor(mailbox).Ack(round, mailbox)
}

// RoundMail is one round's retained messages.
type RoundMail struct {
	Round uint64
	Msgs  [][]byte
}

// Export returns the cluster's retained mail as the shortest sequence
// of deliveries that reproduces it: one RoundMail per retained round,
// rounds ascending, and within a round each mailbox's messages in
// arrival order, mailboxes sorted — so equal clusters export equal
// sequences, and Deliver-ing each element to an empty cluster yields
// an equal one. Stored messages are never written after Put, so the
// result aliases them; callers must not modify the bytes.
func (c *Cluster) Export() []RoundMail {
	type box struct {
		round   uint64
		mailbox string
		msgs    [][]byte
	}
	var boxes []box
	for _, s := range c.servers {
		s.mu.RLock()
		for r, rb := range s.boxes {
			for mb, msgs := range rb {
				boxes = append(boxes, box{r, mb, msgs})
			}
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(boxes, func(a, b box) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.mailbox, b.mailbox))
	})
	var out []RoundMail
	for _, b := range boxes {
		if len(out) == 0 || out[len(out)-1].Round != b.round {
			out = append(out, RoundMail{Round: b.round})
		}
		last := &out[len(out)-1]
		last.Msgs = append(last.Msgs, b.msgs...)
	}
	return out
}

// TotalForRound sums stored messages across all servers for a round.
func (c *Cluster) TotalForRound(round uint64) int {
	n := 0
	for _, s := range c.servers {
		n += s.CountForRound(round)
	}
	return n
}

// PruneBefore prunes old rounds on every server.
func (c *Cluster) PruneBefore(round uint64) {
	for _, s := range c.servers {
		s.PruneBefore(round)
	}
}
