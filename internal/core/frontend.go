package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/mailbox"
	"repro/internal/mix"
	"repro/internal/store"
)

// FrontendConfig describes one gateway front-end shard.
type FrontendConfig struct {
	// Range is the registry-shard slice this frontend owns; the zero
	// value means the full space (a single-process deployment).
	Range ShardRange
	// MailboxServers sizes this shard's mailbox cluster; zero means 1.
	MailboxServers int
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
// mailbox storage for those users, the bank of their round traffic,
// bans, and the round pipeline's
// onion-building worker pool — everything that scales with users
// rather than with chains. It implements GatewayShard for the
// coordinator and the user-facing operations (registration,
// submission, fetch) that rpc.ShardServer exposes to remote clients.
//
// Locking: reg has per-shard locks (registry.go); mu guards the
// remaining control state. BeginRound, FinishRound and Rebalance are
// driven by one coordinator at a time; user-facing calls are safe
// concurrently with all of them.
type Frontend struct {
	rng     ShardRange
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
	// collected is the highest round whose banked traffic has been
	// folded into batches; see SubmitExternal.
	collected uint64
	// params is the last pushed parameter snapshot, serving client
	// ChainParams between rounds; nil from a re-formation until the
	// new epoch's snapshot arrives.
	params *RoundParams
	// bank, banned: see external.go.
	bank   map[string]*bankedUser
	banned map[string]bool
	// dropped maps each remote user whose messages a re-formation
	// emptied from the bank to their round, until that round commits;
	// collectLocked lists them in its Skipped (recover.go).
	dropped map[string]uint64
	// accepted holds, by round, the SHA-256 of the WAL record of every
	// remote submission accepted for the open round and for the last
	// committed one; see SubmitExternal.
	accepted map[uint64][][sha256.Size]byte
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
		boxes:         boxes,
		workers:       workers,
		reg:           newRegistry(),
		st:            cfg.Store,
		snapshotEvery: cfg.SnapshotEvery,
		round:         1,
		bank:          make(map[string]*bankedUser),
		banned:        make(map[string]bool),
		dropped:       make(map[string]uint64),
		accepted:      make(map[uint64][][sha256.Size]byte),
	}
	if cfg.Recovered != nil {
		if err := f.recover(cfg.Recovered); err != nil {
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

// Join attaches the shard to a running deployment outside the round
// flow — the init path for a shard process that must serve clients
// before its first BeginRound: it adopts the snapshot's epoch, makes
// its round the upcoming one, open for submissions, and serves it.
func (f *Frontend) Join(p *RoundParams) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.adoptLocked(p); err != nil {
		return err
	}
	f.round = p.Round
	if p.Round > 0 {
		f.collected = p.Round - 1
	}
	return nil
}

// adoptLocked moves the shard to a snapshot's epoch and serves the
// snapshot. Callers hold f.mu.
func (f *Frontend) adoptLocked(p *RoundParams) error {
	if err := p.validate(); err != nil {
		return err
	}
	if err := f.rebalanceLocked(p.Epoch, p.NumChains()); err != nil {
		return err
	}
	f.params = p.withTables(f.params)
	return nil
}

// Outcomes returns the finished rounds' outcomes the served snapshot
// carries (none while the shard serves no snapshot).
func (f *Frontend) Outcomes() []client.Outcome {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.params == nil {
		return nil
	}
	return f.params.Outcomes
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
// chain assignments and empties the bank (its traffic is on the old
// chains' keys). An epoch the shard already runs is a no-op.
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
	if f.plan != nil {
		// A re-formation: what a client builds for the upcoming round
		// from parameters it fetched before now is on the old chains'
		// keys, so the round's window closes (recover.go).
		w.collected = max(w.collected, w.round)
	}
	return f.commitWatermarkLocked(w)
}

// NewUser creates and registers a user owned by this shard; with a
// partial range, key generation repeats until the identity hashes
// into it (the network-wide operation is: ask the owning gateway).
func (f *Frontend) NewUser() *client.User {
	f.mu.Lock()
	plan, epoch := f.plan, f.epoch
	f.mu.Unlock()
	if plan == nil {
		return nil
	}
	for {
		u := client.NewUser(nil, plan)
		if !f.rng.Owns(u.Mailbox()) {
			continue
		}
		u.Rebalance(plan, epoch)
		f.reg.insert(string(u.Mailbox()), &registeredUser{u: u, online: true})
		return u
	}
}

// AddUser registers an existing in-process user; it must hash into
// this shard's range and not have been banned. The ban check and the
// insertion share one f.mu hold, as in Register. She moves to the
// shard's plan and epoch, which her drained bodies are settled by.
func (f *Frontend) AddUser(u *client.User) error {
	if !f.rng.Owns(u.Mailbox()) {
		return fmt.Errorf("core: user %x hashes to shard %d outside range %s",
			u.Mailbox()[:4], OwnerShard(u.Mailbox()), f.rng)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.banned[string(u.Mailbox())] {
		return fmt.Errorf("core: user was removed for misbehaviour; registration refused")
	}
	if f.plan != nil {
		u.Rebalance(f.plan, f.epoch)
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
		if holdsInProcess(shards[i], mb) {
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

// SetOnline marks an in-process user online or offline for subsequent
// rounds. The first offline round is covered by her pre-submitted
// cover messages (§5.3.3). If those covers ran while she was away, her
// conversation was ended by the offline signal, so reconnecting
// reverts her to loopback traffic until a conversation is re-initiated.
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
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.banned[string(u.Mailbox())]
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

// BeginRound implements GatewayShard: it adopts the pushed epoch and
// parameters, fans onion building out over the owned registry shards,
// deposits what its in-process users built in the bank, collects the
// round's banked traffic into batches and closes the round's
// submission window. A round begun again collects the same traffic:
// a user with a bank entry for the round is not rebuilt.
func (f *Frontend) BeginRound(br *BeginRound) (*ShardBuild, error) {
	defer func(t0 time.Time) { obsShardBuildSeconds.ObserveDuration(time.Since(t0)) }(time.Now())
	if br.Params.Round != br.Round {
		return nil, fmt.Errorf("core: round %d begins with the parameter snapshot of round %d", br.Round, br.Params.Round)
	}
	f.mu.Lock()
	// A shard that missed (or predates) the epoch broadcast adopts it
	// here: the plan is deterministic in the chain count, so no
	// separate state transfer is needed.
	if err := f.adoptLocked(&br.Params); err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.round = br.Round
	params := f.params
	banked := f.bankedLocked(br.Round)
	f.mu.Unlock()

	acc, err := f.buildUsers(br.Round, params, banked)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	// In-process users' deposits are not logged: they are not
	// persisted (durability.go).
	for _, d := range acc.built {
		if err := f.applySubmitLocked(d.who, d.out); err != nil {
			return nil, err
		}
	}
	build := f.collectLocked(br.Round, params)
	build.Skipped = append(build.Skipped, acc.skipped...)
	return build, nil
}

// bankedLocked returns the users with traffic banked for round rho:
// none unless rho was collected before and is being begun again.
// Callers hold f.mu.
func (f *Frontend) bankedLocked(rho uint64) map[string]bool {
	if f.collected < rho {
		return nil
	}
	banked := make(map[string]bool)
	for who, eu := range f.bank {
		if eu.current(rho) != nil {
			banked[who] = true
		}
	}
	return banked
}

// FinishRound implements GatewayShard: deliver the routed mailbox
// messages, remove and ban the convicted, adopt the next round's
// parameters. The round commit is one durability point: the
// deliveries, bans and advanced watermark are logged and synced
// together, so a crash either shows the round fully finished or not
// finished at all — never half. The deliveries and bans are
// logged before they apply: a store that refuses one fails the commit
// with nothing delivered, banned or advanced, and the round can be
// finished again.
func (f *Frontend) FinishRound(fr *FinishRound) (FinishStats, error) {
	defer func(t0 time.Time) { obsShardFinishSeconds.ObserveDuration(time.Since(t0)) }(time.Now())
	f.mu.Lock()
	defer f.mu.Unlock()
	if fr.Params.NumChains() > 0 {
		if fr.Params.Round != fr.Round+1 {
			return FinishStats{}, fmt.Errorf("core: round %d finishes with the parameter snapshot of round %d", fr.Round, fr.Params.Round)
		}
		if err := f.adoptLocked(&fr.Params); err != nil {
			return FinishStats{}, fmt.Errorf("core: shard %s round %d commit: %w", f.rng, fr.Round, err)
		}
	}
	if err := f.logFinishLocked(fr); err != nil {
		return FinishStats{}, fmt.Errorf("core: shard %s round %d commit: %w", f.rng, fr.Round, err)
	}
	delivered, _, dropped := f.boxes.Deliver(fr.Round, fr.Delivered)
	for _, who := range fr.Removed {
		f.applyBanLocked(who)
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

// buildAcc is one build worker's private accumulator. Workers never
// share accumulators, so the build fan-out appends without
// synchronisation.
type buildAcc struct {
	// built are the round outputs to deposit in the bank; skipped are
	// the users a dead chain kept from building, stranded for the round.
	built   []deposit
	skipped []string
	err     error
}

// deposit is one in-process user's round output, for the bank.
type deposit struct {
	who string
	out *client.RoundOutput
}

// buildUsers fans user onion building out over the worker pool.
// Workers claim owned registry shards from an atomic cursor and build
// every online user of a claimed shard under that shard's lock, except
// those in banked. The worker-local lists are then merged.
func (f *Frontend) buildUsers(rho uint64, params *RoundParams, banked map[string]bool) (*buildAcc, error) {
	workers := f.workers
	accs := make([]buildAcc, workers)
	cursor := atomic.Int64{}
	cursor.Store(int64(f.rng.Lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(acc *buildAcc) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= f.rng.Hi {
					return
				}
				if err := f.buildShard(&f.reg.shards[i], rho, params, banked, acc); err != nil {
					acc.err = err
					return
				}
			}
		}(&accs[w])
	}
	wg.Wait()

	out := &buildAcc{}
	for w := range accs {
		if accs[w].err != nil {
			return nil, accs[w].err
		}
		out.built = append(out.built, accs[w].built...)
		out.skipped = append(out.skipped, accs[w].skipped...)
	}
	return out, nil
}

// buildShard builds one registry shard's online users into the
// worker's accumulator, after settling every user's drained bodies,
// offline ones too, with the snapshot's outcomes. The shard lock is
// held for the duration, so presence changes and conversation
// mutations for these users serialise against the build — and against
// nothing else. A user with
// a dead chain among her ℓ chains cannot build a valid round (the wire
// pattern requires all ℓ messages): she is skipped, and collectLocked
// holds her banked covers out too. Transport registrations are not
// walked: their onions arrive through SubmitExternal.
func (f *Frontend) buildShard(sh *userShard, rho uint64, params *RoundParams, banked map[string]bool, acc *buildAcc) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for key, ru := range sh.users {
		ru.u.Settle(params.Outcomes)
		if !ru.online || banked[key] {
			continue
		}
		if len(params.Dead) > 0 && slices.ContainsFunc(ru.u.Chains(), params.dead) {
			acc.skipped = append(acc.skipped, key)
			continue
		}
		out, err := ru.u.BuildRound(rho, params)
		if err != nil {
			return fmt.Errorf("core: user build failed: %w", err)
		}
		acc.built = append(acc.built, deposit{who: key, out: out})
	}
	return nil
}
