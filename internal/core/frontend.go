package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aead"
	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/mailbox"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/store"
)

// FrontendConfig describes one gateway front-end shard.
type FrontendConfig struct {
	// Range is the registry-shard slice this frontend owns; the zero
	// value means the full space (the monolith).
	Range ShardRange
	// NumChains, when nonzero, installs the chain-selection plan for
	// epoch 0 immediately; zero defers it to the first Rebalance or
	// BeginRound (a gateway process learns the chain count from the
	// coordinator).
	NumChains int
	// MailboxServers sizes this shard's mailbox cluster; zero means 1.
	MailboxServers int
	// Scheme is the AEAD; nil means ChaCha20-Poly1305.
	Scheme aead.Scheme
	// Workers sizes the build worker pool; zero means GOMAXPROCS.
	Workers int
	// MailboxDepth caps each mailbox's retained messages, evicting
	// oldest first past the cap (accounted in RoundReport); zero means
	// no cap beyond the four-round retention FinishRound applies.
	MailboxDepth int
	// Store is the durability engine for this shard's client-facing
	// state (mailboxes, transport registrations, bans, external
	// submissions, round watermarks); nil or store.Mem keeps the
	// seed's pure in-memory behaviour. When Recovered is also set,
	// NewFrontend replays it before serving.
	Store store.Store
	// Recovered is the state store.Open read back from Store's data
	// directory, replayed into the fresh frontend.
	Recovered *store.Recovered
	// SnapshotEvery installs a snapshot image (the state as a compacted
	// record run, retiring the WAL behind it) every N finished rounds;
	// zero means 16. Ignored without Store.
	SnapshotEvery int
}

// Frontend is the in-process gateway shard: the per-user half of a
// deployment. It owns a slice of the sharded user registry, the
// mailbox storage for those users, their external submissions, bans
// and stranded-round records, and the round pipeline's onion-building
// worker pool — everything that scales with users rather than with
// chains. It implements GatewayShard for the coordinator and the
// user-facing operations (registration, submission, fetch) that
// rpc.ShardServer exposes to remote clients.
//
// Locking: reg has per-shard locks (registry.go); mu guards the
// remaining control state. BeginRound, FinishRound, AbortRound and
// Rebalance are driven by one coordinator at a time; user-facing
// calls are safe concurrently with all of them.
type Frontend struct {
	rng     ShardRange
	scheme  aead.Scheme
	boxes   *mailbox.Cluster
	workers int
	reg     *registry
	// st is the durability engine (store.Mem when the shard is not
	// durable). Writes happen at the mutation sites below; Sync at the
	// durability points documented in internal/store.
	st            store.Store
	snapshotEvery int

	mu sync.Mutex
	// sinceSnap counts finished rounds since the last snapshot.
	sinceSnap int
	plan      *chainsel.Plan // nil until the chain count is known
	epoch     uint64
	// round is the upcoming round as of the last Begin/FinishRound.
	round uint64
	// collected is the highest round whose external traffic has been
	// folded into batches; see SubmitExternal.
	collected uint64
	// pipelined is the last BeginRound's word that the coordinator runs
	// at pipeline depth > 1; SubmitExternal's refusals say so.
	pipelined bool
	// params is the last pushed parameter snapshot, serving client
	// ChainParams between rounds.
	params *roundParams
	// stranded, externals, banned: see the corresponding Network
	// fields before the split (external.go, recover.go).
	stranded  map[uint64]map[string]bool
	externals map[string]*externalUser
	banned    map[string]bool
}

var _ GatewayShard = (*Frontend)(nil)

// NewFrontend creates a gateway shard over the given registry range.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if cfg.Range == (ShardRange{}) {
		cfg.Range = FullRange()
	}
	if err := cfg.Range.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheme == nil {
		cfg.Scheme = aead.ChaCha20Poly1305()
	}
	if cfg.MailboxServers == 0 {
		cfg.MailboxServers = 1
	}
	boxes, err := mailbox.NewClusterLimited(cfg.MailboxServers, cfg.MailboxDepth)
	if err != nil {
		return nil, fmt.Errorf("core: building mailbox cluster: %w", err)
	}
	if cfg.Store == nil {
		cfg.Store = store.Mem{}
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 16
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers claim whole registry shards, so more workers than owned
	// shards would just idle.
	if workers > cfg.Range.Width() {
		workers = cfg.Range.Width()
	}
	f := &Frontend{
		rng:           cfg.Range,
		scheme:        cfg.Scheme,
		boxes:         boxes,
		workers:       workers,
		reg:           newRegistry(),
		st:            cfg.Store,
		snapshotEvery: cfg.SnapshotEvery,
		round:         1,
		stranded:      make(map[uint64]map[string]bool),
		externals:     make(map[string]*externalUser),
		banned:        make(map[string]bool),
	}
	if cfg.Recovered != nil {
		if err := f.recover(cfg.Recovered); err != nil {
			return nil, err
		}
	}
	if cfg.NumChains > 0 {
		if err := f.Rebalance(0, cfg.NumChains); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Range implements GatewayShard.
func (f *Frontend) Range() ShardRange { return f.rng }

// Workers returns the effective build worker pool size.
func (f *Frontend) Workers() int { return f.workers }

// Round returns the upcoming round as of the last coordinator push.
func (f *Frontend) Round() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.round
}

// Epoch returns the topology epoch the shard last adopted.
func (f *Frontend) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Plan returns the current chain-selection plan (nil before the chain
// count is known).
func (f *Frontend) Plan() *chainsel.Plan {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.plan
}

// SetRound force-sets the upcoming round, used when a shard process
// (re)joins a deployment whose round counter is past 1.
func (f *Frontend) SetRound(round uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.round = round
	if round > 0 {
		f.collected = round - 1
	}
}

// SetParams installs a parameter snapshot outside the round flow —
// the init path for a shard process that must serve clients before
// its first BeginRound.
func (f *Frontend) SetParams(rho uint64, cur, next []mix.Params, dead []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.params = newRoundParams(f.params, rho, cur, next, dead)
}

// ChainParams implements client.ParamsSource from the last pushed
// snapshot, so a gateway shard answers parameter queries without a
// coordinator round trip.
func (f *Frontend) ChainParams(chain int, round uint64) (mix.Params, error) {
	f.mu.Lock()
	p := f.params
	f.mu.Unlock()
	if p == nil {
		return mix.Params{}, fmt.Errorf("core: shard %s has no round parameters yet", f.rng)
	}
	return p.ChainParams(chain, round)
}

// Rebalance implements GatewayShard: it installs the new epoch's
// deterministic chain-selection plan, re-derives every owned user's
// chain assignments and discards banked covers and stored external
// submissions (all keyed to the old chains' keys). An epoch the shard
// already runs is a no-op.
func (f *Frontend) Rebalance(epoch uint64, numChains int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rebalanceLocked(epoch, numChains)
}

func (f *Frontend) rebalanceLocked(epoch uint64, numChains int) error {
	if f.onPlanLocked(epoch, numChains) {
		return nil
	}
	w := f.watermarkLocked()
	w.epoch, w.numChains = epoch, numChains
	return f.commitWatermarkLocked(w)
}

// NewUser creates and registers a user owned by this shard; with a
// partial range, key generation repeats until the identity hashes
// into it (the network-wide operation is: ask the owning gateway).
func (f *Frontend) NewUser() *client.User {
	f.mu.Lock()
	plan := f.plan
	f.mu.Unlock()
	if plan == nil {
		return nil
	}
	for {
		u := client.NewUser(f.scheme, plan)
		if !f.rng.Owns(u.Mailbox()) {
			continue
		}
		f.reg.insert(string(u.Mailbox()), &registeredUser{u: u, online: true})
		return u
	}
}

// AddUser registers an existing in-process user; it must hash into
// this shard's range.
func (f *Frontend) AddUser(u *client.User) error {
	if !f.rng.Owns(u.Mailbox()) {
		return fmt.Errorf("core: user %x hashes to shard %d outside range %s",
			u.Mailbox()[:4], OwnerShard(u.Mailbox()), f.rng)
	}
	f.reg.insert(string(u.Mailbox()), &registeredUser{u: u, online: true})
	return nil
}

// Register records network-transport users' mailbox identifiers: each
// counts toward the user base and may submit externally, but builds
// her own onions, so the entry is the identifier alone. The call is
// all or nothing. One f.mu hold checks every identifier (length,
// owning range, not banned), logs them as one opRegister record per
// registerChunk, and only then inserts them, so a ban cannot land
// between a user's check and her insertion, and a refused identifier
// or a failed append registers nothing. An in-process user's
// identifier is hers: it is neither logged nor touched.
func (f *Frontend) Register(mailboxes ...[]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Each identifier's registry shard, hashed once.
	var one [1]*userShard
	shards := one[:]
	if len(mailboxes) != 1 {
		shards = make([]*userShard, len(mailboxes))
	}
	for i, mb := range mailboxes {
		sh, err := f.admitLocked(mb)
		if err != nil {
			if len(mailboxes) > 1 {
				err = fmt.Errorf("core: identifier %d of %d: %w", i, len(mailboxes), err)
			}
			return err
		}
		shards[i] = sh
	}
	// Appended but not synced: the registrations become durable at the
	// next sync point (a user's first submission at the latest). A
	// crash before then loses only registrations, which clients retry
	// idempotently.
	var buf []byte
	if len(mailboxes) > 1 {
		buf = make([]byte, 0, min(len(mailboxes), registerChunk)*len(mailboxID{}))
	}
	for lo := 0; lo < len(mailboxes); lo += registerChunk {
		hi := min(lo+registerChunk, len(mailboxes))
		payload := registrationRecord(mailboxes[lo:hi], shards[lo:hi], buf[:0])
		if len(payload) == 0 {
			continue
		}
		if err := f.st.Append(opRegister, payload); err != nil {
			return fmt.Errorf("core: shard %s logging registrations: %w", f.rng, err)
		}
	}
	for i, mb := range mailboxes {
		id, _ := parseMailboxID(mb)
		shards[i].register(id)
	}
	return nil
}

// admitLocked is Register's test for one identifier — its length, its
// owning range, not banned — returning its registry shard. Callers
// hold f.mu.
func (f *Frontend) admitLocked(mailbox []byte) (*userShard, error) {
	if _, err := parseMailboxID(mailbox); err != nil {
		return nil, err
	}
	shard := OwnerShard(mailbox)
	if !f.rng.Contains(shard) {
		return nil, fmt.Errorf("core: mailbox hashes to shard %d outside range %s", shard, f.rng)
	}
	if f.banned[string(mailbox)] {
		return nil, fmt.Errorf("core: user was removed for misbehaviour; registration refused")
	}
	return &f.reg.shards[shard], nil
}

// registrationRecord is the opRegister payload for admitted identifiers
// on their registry shards: their concatenation, in-process users' left
// out, appended to buf. A lone identifier is its own payload, so
// registering one user copies nothing.
func registrationRecord(mailboxes [][]byte, shards []*userShard, buf []byte) []byte {
	for i, mb := range mailboxes {
		if shards[i].holdsInProcess(mb) {
			continue
		}
		if len(mailboxes) == 1 {
			return mb
		}
		buf = append(buf, mb...)
	}
	return buf
}

// NumUsers returns the number of registered, non-removed users.
func (f *Frontend) NumUsers() int { return f.reg.countActive() }

// SetOnline marks an in-process user online or offline; see
// Network.SetOnline for the churn semantics.
func (f *Frontend) SetOnline(u *client.User, online bool) {
	f.reg.update(string(u.Mailbox()), func(ru *registeredUser) {
		if online && !ru.online && ru.coversUsed {
			ru.u.EndAllConversations()
			ru.coversUsed = false
		}
		ru.online = online
	})
}

// IsRemoved reports whether the user was removed for misbehaviour.
func (f *Frontend) IsRemoved(u *client.User) bool {
	removed := false
	f.reg.update(string(u.Mailbox()), func(ru *registeredUser) { removed = ru.removed })
	return removed
}

// Fetch downloads an in-process user's mailbox for a round.
func (f *Frontend) Fetch(u *client.User, round uint64) [][]byte {
	return f.boxes.Fetch(round, u.Mailbox())
}

// FetchMailbox downloads a mailbox by identifier.
func (f *Frontend) FetchMailbox(round uint64, mailboxID []byte) [][]byte {
	return f.boxes.Fetch(round, mailboxID)
}

// AckMailbox prunes a mailbox's messages for a round after the owner
// confirmed receipt, returning how many were removed. Appended but
// not synced: losing an ack to a crash merely redelivers — which the
// at-least-once contract allows and client-side dedup absorbs.
func (f *Frontend) AckMailbox(round uint64, mailboxID []byte) int {
	n := f.boxes.Ack(round, mailboxID)
	if n > 0 {
		f.st.Append(opAck, encodeAck(round, mailboxID))
	}
	return n
}

// PruneBefore discards mailbox state older than the given round, for
// callers that keep less than the mailboxRetention rounds FinishRound
// already enforces.
func (f *Frontend) PruneBefore(round uint64) {
	f.boxes.PruneBefore(round)
	f.st.Append(opPrune, appendUvarint(nil, round))
}

// Close releases the shard's durability engine, syncing outstanding
// records. The frontend itself holds no other external resources.
func (f *Frontend) Close() error { return f.st.Close() }

// StrandedError reports whether the mailbox's user was stranded in
// the given executed round; see recover.go.
func (f *Frontend) StrandedError(round uint64, mailboxID []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stranded[round][string(mailboxID)] {
		return fmt.Errorf("core: round %d: %w", round, ErrRoundRetry)
	}
	return nil
}

// BeginRound implements GatewayShard: it adopts the pushed epoch and
// parameters, fans onion building out over the owned registry shards,
// folds collected external traffic into the batches and closes the
// round's submission window.
func (f *Frontend) BeginRound(br *BeginRound) (*ShardBuild, error) {
	defer func(t0 time.Time) { obsShardBuildSeconds.ObserveDuration(time.Since(t0)) }(time.Now())
	f.mu.Lock()
	// A shard that missed (or predates) the epoch broadcast adopts it
	// here: the plan is deterministic in the chain count, so no
	// separate state transfer is needed.
	if err := f.rebalanceLocked(br.Epoch, br.NumChains); err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.params = newRoundParams(f.params, br.Round, br.Cur, br.Next, br.Dead)
	f.pipelined = br.Pipelined
	f.round = br.Round
	params := f.params
	f.mu.Unlock()

	build, err := f.buildBatches(br.Round, params, br.NumChains, params.dead)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	build.Covered += f.collectExternalsLocked(br.Round, build.Batches)
	f.mu.Unlock()
	return build, nil
}

// FinishRound implements GatewayShard: deliver the routed mailbox
// messages, remove and ban the convicted, record the stranded, adopt
// the next round's parameters. The round commit is one durability
// point: the deliveries, bans and advanced watermark are logged and
// synced together, so a crash either shows the round fully finished
// or not finished at all — never half. The deliveries and bans are
// logged before they apply: a store that refuses one fails the commit
// with nothing delivered, banned or advanced, and the round can be
// finished again.
func (f *Frontend) FinishRound(fr *FinishRound) (FinishStats, error) {
	defer func(t0 time.Time) { obsShardFinishSeconds.ObserveDuration(time.Since(t0)) }(time.Now())
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.logFinishLocked(fr); err != nil {
		return FinishStats{}, fmt.Errorf("core: shard %s round %d commit: %w", f.rng, fr.Round, err)
	}
	delivered, _, dropped := f.boxes.Deliver(fr.Round, fr.Delivered)
	for _, who := range fr.Removed {
		f.applyBanLocked(who)
	}
	if len(fr.Stranded) > 0 {
		set := make(map[string]bool, len(fr.Stranded))
		for _, who := range fr.Stranded {
			set[who] = true
		}
		f.stranded[fr.Round] = set
	}
	for r := range f.stranded {
		if r+strandedRetention <= fr.Round {
			delete(f.stranded, r)
		}
	}
	if len(fr.Cur) > 0 {
		f.params = newRoundParams(f.params, fr.Round+1, fr.Cur, fr.Next, fr.Dead)
	}
	// The commit is the advanced watermark; applying it also drops the
	// mail that just left the retention window, so no separate prune
	// is logged.
	w := f.watermarkLocked()
	w.round = fr.Round + 1
	err := f.commitWatermarkLocked(w)
	if err == nil {
		if f.sinceSnap++; f.sinceSnap >= f.snapshotEvery {
			// Compact: the image covers everything logged so far, so
			// replay cost and disk use stay bounded by the snapshot
			// cadence rather than deployment lifetime. Snapshot is
			// internally durable (tmp+fsync+rename).
			if err = f.st.Snapshot(f.imageLocked()); err == nil {
				f.sinceSnap = 0
			}
		} else {
			err = f.st.Sync()
		}
	}
	if err != nil {
		return FinishStats{}, fmt.Errorf("core: shard %s round %d commit: %w", f.rng, fr.Round, err)
	}
	f.dropBuiltThroughLocked(fr.Round)
	return FinishStats{Delivered: delivered, Dropped: dropped}, nil
}

// logFinishLocked appends a round's deliveries, as many records as
// deliverRecordBytes takes, and its bans. Callers hold f.mu.
func (f *Frontend) logFinishLocked(fr *FinishRound) error {
	for _, run := range deliverRuns(fr.Delivered) {
		if err := f.st.Append(opDeliver, encodeDeliver(fr.Round, run)); err != nil {
			return err
		}
	}
	for _, who := range fr.Removed {
		if err := f.st.Append(opBan, []byte(who)); err != nil {
			return err
		}
	}
	return nil
}

// dropBuiltThroughLocked releases what in-process users submitted in
// rounds up to round, which has committed: only a round still to
// commit — a failed one retried under its number, a pipelined
// preparation re-requested — is ever resubmitted from built. Callers
// hold f.mu.
func (f *Frontend) dropBuiltThroughLocked(round uint64) {
	for i := f.rng.Lo; i < f.rng.Hi; i++ {
		sh := &f.reg.shards[i]
		sh.mu.Lock()
		kept := sh.built[:0]
		for _, ru := range sh.built {
			if ru.builtRound > round {
				kept = append(kept, ru)
			} else {
				ru.built.Current = nil
			}
		}
		clear(sh.built[len(kept):])
		sh.built = kept
		sh.mu.Unlock()
	}
}

// AbortRound implements GatewayShard: the round failed after its
// submission window closed and will be retried, so external users
// must be able to resubmit for it. Rounds start at 1; round 0, which
// only a remote peer can name, is ignored — round-1 would wrap and
// close every future round's window.
func (f *Frontend) AbortRound(round uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if round > 0 && f.collected >= round {
		f.collected = round - 1
	}
}

// buildAcc is one build worker's private accumulator: per-chain
// batches plus bookkeeping counters. Workers never share
// accumulators, so the build fan-out appends without synchronisation.
type buildAcc struct {
	batches []ChainBatch
	covered int
	// skipped are users who could not participate this round because
	// one of their ℓ chains is dead (failed to announce keys).
	skipped []string
	err     error
}

// buildBatches fans user onion building out over the worker pool.
// Workers claim owned registry shards from an atomic cursor and build
// every non-removed user in a claimed shard under that shard's lock:
// online users build fresh messages and bank next-round covers,
// offline users spend their banked covers exactly once (§5.3.3). The
// worker-local per-chain slices are then merged into one batch per
// chain.
func (f *Frontend) buildBatches(rho uint64, src client.ParamsSource, numChains int, dead map[int]bool) (*ShardBuild, error) {
	workers := f.workers
	accs := make([]buildAcc, workers)
	cursor := atomic.Int64{}
	cursor.Store(int64(f.rng.Lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(acc *buildAcc) {
			defer wg.Done()
			acc.batches = make([]ChainBatch, numChains)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= f.rng.Hi {
					return
				}
				if err := f.buildShard(&f.reg.shards[i], rho, src, acc, dead); err != nil {
					acc.err = err
					return
				}
			}
		}(&accs[w])
	}
	wg.Wait()

	out := &ShardBuild{}
	for w := range accs {
		if accs[w].err != nil {
			return nil, accs[w].err
		}
		out.Covered += accs[w].covered
		out.Skipped = append(out.Skipped, accs[w].skipped...)
	}
	out.Batches = make([]ChainBatch, numChains)
	for c := range out.Batches {
		total := 0
		for w := range accs {
			total += len(accs[w].batches[c].Subs)
		}
		out.Batches[c].Subs = make([]onion.Submission, 0, total)
		out.Batches[c].Submitters = make([]string, 0, total)
		for w := range accs {
			out.Batches[c].Subs = append(out.Batches[c].Subs, accs[w].batches[c].Subs...)
			out.Batches[c].Submitters = append(out.Batches[c].Submitters, accs[w].batches[c].Submitters...)
		}
	}
	return out, nil
}

// buildShard builds one registry shard's users into the worker's
// accumulator. The shard lock is held for the duration, so presence
// changes and conversation mutations for these users serialise
// against the build — and against nothing else. Users with a dead
// chain among their ℓ chains cannot build a valid round (the wire
// pattern requires all ℓ messages) and are skipped as stranded; their
// banked covers stay banked. Transport registrations are not walked:
// their onions arrive through SubmitExternal.
func (f *Frontend) buildShard(sh *userShard, rho uint64, src client.ParamsSource, acc *buildAcc, dead map[int]bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for key, ru := range sh.users {
		if ru.removed {
			continue
		}
		if len(dead) > 0 {
			onDead := false
			for _, c := range ru.u.Chains() {
				if dead[c] {
					onDead = true
					break
				}
			}
			if onDead {
				if ru.online {
					acc.skipped = append(acc.skipped, key)
				}
				continue
			}
		}
		if ru.online {
			if ru.built == nil || ru.builtRound != rho {
				out, err := ru.u.BuildRound(rho, src)
				if err != nil {
					return fmt.Errorf("core: user build failed: %w", err)
				}
				if ru.built == nil || ru.built.Current == nil {
					sh.built = append(sh.built, ru)
				}
				ru.built, ru.builtRound = out, rho
			}
			for _, cm := range ru.built.Current {
				acc.batches[cm.Chain].add(cm.Sub, key)
			}
			ru.cover = ru.built.Cover
			ru.coverRound = rho + 1
			continue
		}
		if ru.cover != nil && ru.coverRound == rho {
			for _, cm := range ru.cover {
				acc.batches[cm.Chain].add(cm.Sub, key)
			}
			ru.cover = nil
			ru.coversUsed = true
			acc.covered++
		}
	}
	return nil
}
