package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aead"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/store"
)

// Tracing lives entirely in the benchmark: spans are recorded by
// decorators around the program's three public seams (mix.Hop,
// core.GatewayShard, store.Store) and by counting net.Conn wrappers,
// never from inside the program. An untraced run installs none of
// them.

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the recorder's epoch. Chain, Pos and Shard are -1
// where they do not apply; Count is the span's work (messages in a
// batch, users built). Parent is filled in by the analysis: decorators
// cannot know which round called them, the time containment does.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Round  uint64 `json:"round"`
	Chain  int    `json:"chain"`
	Pos    int    `json:"pos"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Count  int    `json:"count"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It records only
// while on, so one deployment can alternate traced and untraced rounds
// and the difference between them is the tracing overhead.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	// batches and delivered capture what crossed the shard seam in the
	// most recent traced round, for the verify and mailbox probes.
	batches   map[int][]core.ChainBatch
	delivered map[int][][]byte
}

func newRecorder() *recorder {
	return &recorder{
		epoch:     time.Now(),
		batches:   make(map[int][]core.ChainBatch),
		delivered: make(map[int][][]byte),
	}
}

// add records a span that started at start and ends now. Safe on a nil
// recorder, so decorators need no second code path.
func (r *recorder) add(layer, name string, round uint64, chain, pos, shard int, start time.Time, count int) {
	if r == nil || !r.on.Load() {
		return
	}
	end := time.Now()
	r.addSpan(span{
		Layer: layer, Name: name, Round: round, Chain: chain, Pos: pos, Shard: shard,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Count: count,
	})
}

func (r *recorder) addSpan(sp span) {
	r.mu.Lock()
	sp.ID = len(r.spans) + 1
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanHop decorates one chain position. Every call is forwarded
// unchanged; results and errors pass through untouched.
type spanHop struct {
	mix.Hop
	rec        *recorder
	chain, pos int
}

func (h spanHop) BeginRound(round uint64) (group.Point, nizk.Proof, error) {
	t := time.Now()
	ipk, proof, err := h.Hop.BeginRound(round)
	h.rec.add("mix", "announce", round, h.chain, h.pos, -1, t, 1)
	return ipk, proof, err
}

func (h spanHop) RevealInnerKey(round uint64) (group.Scalar, error) {
	t := time.Now()
	isk, err := h.Hop.RevealInnerKey(round)
	h.rec.add("mix", "reveal", round, h.chain, h.pos, -1, t, 1)
	return isk, err
}

func (h spanHop) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*mix.MixResult, error) {
	t := time.Now()
	res, err := h.Hop.Mix(round, nonce, in)
	h.rec.add("mix", "mix", round, h.chain, h.pos, -1, t, len(in))
	return res, err
}

func (h spanHop) ReProveSubset(round uint64, epoch int, keep []bool) (nizk.Proof, error) {
	t := time.Now()
	proof, err := h.Hop.ReProveSubset(round, epoch, keep)
	h.rec.add("mix", "blame.reprove", round, h.chain, h.pos, -1, t, len(keep))
	return proof, err
}

func (h spanHop) BlameReveal(round uint64, msg, pos int) (mix.BlameReveal, error) {
	t := time.Now()
	rev, err := h.Hop.BlameReveal(round, msg, pos)
	h.rec.add("mix", "blame.reveal", round, h.chain, h.pos, -1, t, 1)
	return rev, err
}

func (h spanHop) Accuse(round uint64, msg int, key group.Point) (mix.AccuseReveal, error) {
	t := time.Now()
	acc, err := h.Hop.Accuse(round, msg, key)
	h.rec.add("mix", "blame.accuse", round, h.chain, h.pos, -1, t, 1)
	return acc, err
}

// spanShard decorates one gateway shard, and while tracing keeps the
// batches and deliveries that crossed it so probes can replay them.
type spanShard struct {
	core.GatewayShard
	rec   *recorder
	shard int
}

func (s spanShard) BeginRound(br *core.BeginRound) (*core.ShardBuild, error) {
	t := time.Now()
	build, err := s.GatewayShard.BeginRound(br)
	if err == nil && s.rec.on.Load() {
		n := 0
		for _, b := range build.Batches {
			n += len(b.Subs)
		}
		s.rec.add("core", "begin", br.Round, -1, -1, s.shard, t, n)
		s.rec.mu.Lock()
		s.rec.batches[s.shard] = build.Batches
		s.rec.mu.Unlock()
	}
	return build, err
}

func (s spanShard) FinishRound(fr *core.FinishRound) (core.FinishStats, error) {
	t := time.Now()
	stats, err := s.GatewayShard.FinishRound(fr)
	if s.rec.on.Load() {
		s.rec.add("core", "finish", fr.Round, -1, -1, s.shard, t, len(fr.Delivered))
		s.rec.mu.Lock()
		s.rec.delivered[s.shard] = fr.Delivered
		s.rec.mu.Unlock()
	}
	return stats, err
}

// storeCounters is what a countingStore saw. Counts are exact; the
// harness reads them before and after a phase and reports the
// difference.
type storeCounters struct {
	appends, syncs, bytes atomic.Int64

	mu        sync.Mutex
	syncMs    []float64
	snapshots []float64
}

// countingStore decorates a shard's durability engine.
type countingStore struct {
	store.Store
	c *storeCounters
}

func (s countingStore) Append(op store.Op, payload []byte) error {
	s.c.appends.Add(1)
	s.c.bytes.Add(int64(len(payload)) + 1)
	return s.Store.Append(op, payload)
}

func (s countingStore) Sync() error {
	t := time.Now()
	err := s.Store.Sync()
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	s.c.syncs.Add(1)
	s.c.mu.Lock()
	s.c.syncMs = append(s.c.syncMs, ms)
	s.c.mu.Unlock()
	return err
}

func (s countingStore) Snapshot(state []byte) error {
	t := time.Now()
	err := s.Store.Snapshot(state)
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	s.c.bytes.Add(int64(len(state)))
	s.c.mu.Lock()
	s.c.snapshots = append(s.c.snapshots, ms)
	s.c.mu.Unlock()
	return err
}

// connCounters totals the application bytes (frames, above TLS) that
// crossed a set of connections, from the wrapped side's point of view.
type connCounters struct {
	in, out, writes atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (c *connCounters) wrap(conn net.Conn) net.Conn { return countingConn{Conn: conn, c: c} }

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	c.c.writes.Add(1)
	return n, err
}
