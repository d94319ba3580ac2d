// Package core assembles a complete XRD network and drives its
// rounds: it is the public API of this reproduction.
//
// The package is split into two roles (see shard.go):
//
//   - Network is the round coordinator. It owns the mix servers
//     organised into parallel anytrust chains (§5.2), the
//     deterministic chain-selection plan (§5.3.1), epoch recovery and
//     blame aggregation, and drives each round end to end.
//   - GatewayShard is the per-user front end. Each shard owns a
//     contiguous slice of the 64-shard registry: registration,
//     presence, onion building, the bank of its users' round traffic
//     and covers, and mailbox storage for its users. Frontend
//     (frontend.go) is the in-process implementation; rpc.ShardClient
//     hosts a shard in another process.
//
// The coordinator holds no users: every deployment names its gateway
// shards in Config.Shards, and users reach their own shard. A
// single-process deployment is the coordinator plus one full-range
// Frontend, whose users the caller creates and serves through it.
//
// Each call to RunRound executes one communication round end to end,
// in one pass (Figure 1): every shard builds its users' ℓ messages plus
// the next round's covers (fanning out over a worker pool that claims
// registry shards) and returns the round's banked traffic, every chain
// mixes with aggregate-hybrid-shuffle verification (§6), results fan
// back out to the shard owning each recipient mailbox, and users fetch
// and decrypt.
//
// A Frontend's registry operations (NewUser, SetOnline, IsRemoved,
// NumUsers) and mailbox fetches are safe to call concurrently with
// RunRound; a user registered mid-round joins either the running round
// or the next one, depending on whether her registry shard was already
// built. RunRound itself is serialised: concurrent calls execute one
// at a time.
//
// Misbehaviour injected through CorruptServer or InjectSubmission
// surfaces in the RoundReport: halted chains, blamed servers, blamed
// (and automatically removed) users — mirroring §6.4's guarantees. A
// gateway shard failing mid-round surfaces as DeadShards: only its
// own users are affected, the round completes for everyone else. A
// user who loses the round, to a failed, dead or halted chain or to a
// re-formation that dropped her messages, is listed in Stranded,
// whatever kind of user she is.
package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chainsel"
	"repro/internal/churn"
	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/obs"
	"repro/internal/onion"
	"repro/internal/topology"
)

// Config describes a network deployment.
type Config struct {
	// NumServers is N, the number of mix servers.
	NumServers int
	// NumChains is n; zero means n = N as in the paper (§5.2.1).
	NumChains int
	// F is the assumed fraction of malicious servers; ignored if
	// ChainLengthOverride is set.
	F float64
	// ChainLengthOverride fixes the chain length k directly, for
	// small test deployments and exact-paper comparisons (k=32).
	ChainLengthOverride int
	// Seed is the public randomness for chain formation.
	Seed []byte
	// Shards supplies the gateway front-end shards; their ranges must
	// exactly partition the registry-shard space [0, NumRegistryShards).
	// A single-process deployment passes one full-range Frontend.
	Shards []GatewayShard
	// HopForServer, when non-nil, supplies the transport for each
	// chain position, keyed by the server holding it, and is consulted
	// again at every epoch re-formation: server ids are stable across
	// epochs while chain coordinates are not. Chains are keyed
	// concurrently, but the provider is called under one lock, so it
	// never runs concurrently with itself and needs none of its own. A
	// chain's positions are called in order 0…k−1 (each one's base is
	// its predecessor's blinding key); different chains' calls
	// interleave. Returning a non-nil mix.Hop hosts that position on a
	// remote process reached through the hop transport (typically an
	// rpc.HopClient bound with InitEpoch against the given base key,
	// which is g for position 0 and the previous position's blinding
	// key otherwise); returning nil keeps the position in-process.
	HopForServer func(epoch uint64, server, chain, position int, base group.Point) (mix.Hop, error)
	// RemoteHops is the benchmark harness's adapter (bench/topo.go):
	// a provider keyed by chain coordinates, which NewNetwork turns
	// into a HopForServer that consults it in the founding epoch only
	// and hosts every re-formed chain in-process. It is ignored when
	// HopForServer is set.
	RemoteHops func(chain, position int, base group.Point) (mix.Hop, error)
}

// Network is the round coordinator of an XRD deployment. It reaches
// users only through the GatewayShard interface of the shards that own
// them.
type Network struct {
	cfg    Config
	plan   *chainsel.Plan
	topo   *topology.Topology
	chains []*mix.Chain

	// shards are the gateway front ends; owner maps each registry
	// shard index to its position in shards. Both are fixed at
	// construction.
	shards []GatewayShard
	owner  [numShards]int

	// runMu serialises RunRound executions.
	runMu sync.Mutex
	// hopMu serialises calls into Config.HopForServer: chains key
	// concurrently, and a provider is never called concurrently with
	// itself. It is held across the provider call only and guards
	// nothing else.
	hopMu sync.Mutex

	// evictor records servers expelled across epochs (see recover.go).
	evictor *churn.Evictor

	// mu guards the control state below — never user state, which
	// lives inside the gateway shards. plan, topo and chains (the
	// struct fields above) are ALSO guarded by mu once the network is
	// running: epoch re-formation swaps them, so every reader outside
	// the reform path itself must snapshot them via topoView.
	mu    sync.Mutex
	round uint64
	// epoch counts chain re-formations; 0 is the founding topology.
	epoch uint64
	// pendingEvict queues servers to expel before the next round runs:
	// those blamed by a halted chain or unreachable at announce.
	pendingEvict map[int]bool
	// failedServers marks crashed mix servers; chains containing one
	// are skipped and their conversations fail for the round (§5.2.3).
	failedServers map[int]bool
	// injected are raw submissions added to chain batches this round
	// (fault injection for malicious users).
	injected map[int][]onion.Submission
	// outcomes are the last two finished rounds' outcomes, newest
	// first, which every parameter snapshot carries.
	outcomes []client.Outcome
}

// NewNetwork builds the topology, keys every chain, announces round 1
// (and round 2 cover) keys, and installs the founding chain-selection
// plan on every gateway shard.
func NewNetwork(cfg Config) (*Network, error) {
	if remote := cfg.RemoteHops; remote != nil && cfg.HopForServer == nil {
		cfg.HopForServer = func(epoch uint64, _, chain, pos int, base group.Point) (mix.Hop, error) {
			if epoch > 0 {
				return nil, nil
			}
			return remote(chain, pos, base)
		}
	}
	topo, err := topology.Build(topology.Config{
		NumServers:          cfg.NumServers,
		NumChains:           cfg.NumChains,
		F:                   cfg.F,
		ChainLengthOverride: cfg.ChainLengthOverride,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: building topology: %w", err)
	}
	plan, err := chainsel.NewPlan(len(topo.Chains))
	if err != nil {
		return nil, fmt.Errorf("core: building chain-selection plan: %w", err)
	}
	n := &Network{
		cfg:           cfg,
		plan:          plan,
		topo:          topo,
		shards:        cfg.Shards,
		round:         1,
		evictor:       churn.NewEvictor(),
		failedServers: make(map[int]bool),
		injected:      make(map[int][]onion.Submission),
		pendingEvict:  make(map[int]bool),
	}
	if err := n.indexShards(); err != nil {
		return nil, err
	}
	chains, errs := n.keyChains(0, topo)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	n.chains = chains
	if err := n.announce(topo, chains, n.round, n.round+1); err != nil {
		return nil, err
	}
	// Install the founding plan everywhere. Like mix hops, shards must
	// be reachable while the deployment forms.
	for _, sh := range n.shards {
		if err := sh.Rebalance(0, len(n.chains)); err != nil {
			return nil, fmt.Errorf("core: installing plan on shard %s: %w", sh.Range(), err)
		}
	}
	return n, nil
}

// indexShards validates that the shard ranges exactly partition
// [0, numShards) and fills the owner lookup table.
func (n *Network) indexShards() error {
	covered := make([]int, numShards)
	for i := range covered {
		covered[i] = -1
	}
	for i, sh := range n.shards {
		r := sh.Range()
		if err := r.Validate(); err != nil {
			return err
		}
		for s := r.Lo; s < r.Hi; s++ {
			if covered[s] != -1 {
				return fmt.Errorf("core: registry shard %d owned by both gateway shards %s and %s",
					s, n.shards[covered[s]].Range(), r)
			}
			covered[s] = i
		}
	}
	for s, i := range covered {
		if i == -1 {
			return fmt.Errorf("core: registry shard %d owned by no gateway shard", s)
		}
		n.owner[s] = i
	}
	return nil
}

// keyChains keys every chain of a topology for an epoch, each on its
// own goroutine: the chains share no key material, so an epoch forms in
// the time of its slowest chain rather than of all of them. It returns
// the chains and each one's error, naming the chain (a failed chain's
// entry is nil), so a caller can attribute every failure, not only the
// first.
func (n *Network) keyChains(epoch uint64, topo *topology.Topology) ([]*mix.Chain, []error) {
	chains := make([]*mix.Chain, len(topo.Chains))
	errs := make([]error, len(topo.Chains))
	var wg sync.WaitGroup
	for c := range topo.Chains {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var err error
			if chains[c], err = n.assembleChainAt(epoch, topo, c); err != nil {
				errs[c] = fmt.Errorf("core: keying chain %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	return chains, errs
}

// assembleChainAt keys one chain of a topology for an epoch, placing
// each position in-process or on the remote hop Config.HopForServer
// returns for it. Key setup is inherently sequential within a chain —
// position i's keys chain off position i−1's blinding key (§6.1) —
// which is why the provider receives the base point. Providers are
// called under hopMu, since chains key concurrently (keyChains). A
// provider failure is returned as a mix.HopError so the reform loop
// can evict the offending server.
func (n *Network) assembleChainAt(epoch uint64, topo *topology.Topology, c int) (*mix.Chain, error) {
	if n.cfg.HopForServer == nil {
		return mix.NewChain(c, topo.ChainLength, nil)
	}
	hops := make([]mix.Hop, topo.ChainLength)
	base := group.Generator()
	for i := range hops {
		n.hopMu.Lock()
		h, err := n.cfg.HopForServer(epoch, topo.Chains[c][i], c, i, base)
		n.hopMu.Unlock()
		if err != nil {
			return nil, &mix.HopError{Chain: c, Position: i, Err: fmt.Errorf("core: remote hop setup: %w", err)}
		}
		if h == nil {
			h = mix.LocalHop(mix.NewChainServer(c, i, base, nil))
		}
		hops[i] = h
		base = h.Keys().Bpk
	}
	return mix.NewChainFromHops(c, hops, nil)
}

// announceEach publishes round's inner keys on every chain, in
// parallel — with remote hops each chain's announcement is k
// sequential network exchanges, and the chains are independent, so
// announcing serially would put n·k round-trips on every round's
// critical path. It is best-effort across chains: one chain failing
// (a dead remote hop, say) must not leave the others without
// announced keys, so every chain is attempted and the per-chain
// errors returned for the caller to attribute.
func announceEach(chains []*mix.Chain, round uint64) []error {
	errs := make([]error, len(chains))
	var wg sync.WaitGroup
	for i, c := range chains {
		wg.Add(1)
		go func(i int, c *mix.Chain) {
			defer wg.Done()
			if err := c.BeginRound(round); err != nil {
				errs[i] = fmt.Errorf("core: announcing round %d: %w", round, err)
			}
		}(i, c)
	}
	wg.Wait()
	return errs
}

// announce publishes the rounds' inner keys on every chain, one round
// after the other, queues the server behind each failure that names a
// position for eviction, and returns the failures joined.
func (n *Network) announce(topo *topology.Topology, chains []*mix.Chain, rounds ...uint64) error {
	var errs []error
	for _, r := range rounds {
		for _, err := range announceEach(chains, r) {
			if err != nil {
				n.attributeHopError(topo, err)
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// topoView snapshots the mutable topology state under mu. Epoch
// re-formation swaps all three references atomically, so readers
// holding a snapshot see one consistent epoch even while the next is
// being formed.
func (n *Network) topoView() (*chainsel.Plan, *topology.Topology, []*mix.Chain) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.plan, n.topo, n.chains
}

// Plan exposes the chain-selection plan (for tests and experiments).
func (n *Network) Plan() *chainsel.Plan {
	p, _, _ := n.topoView()
	return p
}

// Topology exposes the server-to-chain assignment.
func (n *Network) Topology() *topology.Topology {
	_, t, _ := n.topoView()
	return t
}

// NumChains returns n, the number of mix chains.
func (n *Network) NumChains() int {
	_, _, chains := n.topoView()
	return len(chains)
}

// Epoch returns the topology epoch (0 until the first re-formation).
func (n *Network) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Round returns the upcoming round number.
func (n *Network) Round() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.round
}

// Params returns the parameter snapshot the coordinator would push to
// a gateway shard now: the upcoming round's and the next, at the
// current epoch. A shard process joining a running deployment starts
// from it (rpc.ShardClient.Init).
func (n *Network) Params() RoundParams {
	n.mu.Lock()
	epoch, rho, chains, outcomes := n.epoch, n.round, n.chains, n.outcomes
	n.mu.Unlock()
	return snapshot(epoch, rho, chains, nil, outcomes)
}

// ChainParams implements client.ParamsSource.
func (n *Network) ChainParams(chain int, round uint64) (mix.Params, error) {
	_, _, chains := n.topoView()
	if chain < 0 || chain >= len(chains) {
		return mix.Params{}, fmt.Errorf("core: no chain %d", chain)
	}
	return chains[chain].ParamsFor(round)
}

// FailServer crashes a mix server: every chain containing it halts
// for subsequent rounds until RestoreServer (§5.2.3).
func (n *Network) FailServer(server int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failedServers[server] = true
}

// RestoreServer brings a crashed server back.
func (n *Network) RestoreServer(server int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.failedServers, server)
}

// CorruptServer makes the given position of a chain deviate by c's
// moves (fault injection; see mix.Corruption and mix.Chain.Corrupt).
// Any position can be corrupted, in-process or hosted remotely; a nil
// c restores it. Call it between rounds.
func (n *Network) CorruptServer(chain, position int, c *mix.Corruption) error {
	_, _, chains := n.topoView()
	if chain < 0 || chain >= len(chains) {
		return fmt.Errorf("core: no chain %d", chain)
	}
	if position < 0 || position >= chains[chain].Len() {
		return fmt.Errorf("core: chain %d has no position %d", chain, position)
	}
	chains[chain].Corrupt(position, c)
	return nil
}

// InjectSubmission adds a raw submission to a chain's next batch,
// simulating a malicious user outside the registry.
func (n *Network) InjectSubmission(chain int, sub onion.Submission) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.injected[chain] = append(n.injected[chain], sub)
}

// RoundReport summarises one executed round.
type RoundReport struct {
	// Round is the executed round number.
	Round uint64
	// Delivered is the total number of mailbox messages delivered.
	Delivered int
	// HaltedChains lists chains that aborted after detecting server
	// misbehaviour.
	HaltedChains []int
	// FailedChains lists chains skipped because a member server had
	// crashed.
	FailedChains []int
	// BlamedServers lists (chain, position) pairs convicted by proof
	// failure or the blame protocol.
	BlamedServers [][2]int
	// BlamedUsers lists mailbox identifiers of users convicted and
	// removed; injected submissions appear as "injected:<chain>".
	BlamedUsers []string
	// DroppedInner counts messages dropped at inner decryption.
	DroppedInner int
	// OfflineCovered counts users whose covers were used this round.
	OfflineCovered int
	// BlameRounds counts blame protocol executions across chains.
	BlameRounds int
	// DeadChains lists chains that could not announce this round's
	// keys (an unreachable hop); their users are stranded for the
	// round and the chain re-forms before the next.
	DeadChains []int
	// DeadShards lists gateway shards (indices into Config.Shards) that
	// failed their round-begin or round-finish call: their users contributed nothing (begin) or
	// lost their deliveries (finish); everyone else's round completed.
	DeadShards []int
	// LostDeliveries counts mailbox messages that were mixed but could
	// not be stored because their owning shard died before
	// FinishRound.
	LostDeliveries int
	// MailboxDropped counts old mailbox messages evicted by the
	// per-mailbox depth cap to make room for this round's deliveries.
	MailboxDropped int
	// DedupedSubmissions counts duplicate submissions discarded when
	// merging shard batches: a client that failed over mid-round can
	// land the same (byte-identical) submission on two gateways; the
	// coordinator keeps the first copy per (chain, DH key).
	DedupedSubmissions int
	// Stranded lists users (mailbox identifiers) who lost this round,
	// in whole or in part: their traffic rode a halted, failed or dead
	// chain, or a re-formation dropped it. Each client learns from the
	// round's public outcome which of her bodies to send again
	// (client.User.Settle).
	Stranded []string
	// Epoch is the topology epoch the round executed in.
	Epoch uint64
	// Reformed reports that chains were re-formed (a new epoch began)
	// before this round ran; Evicted lists the servers expelled.
	Reformed bool
	Evicted  []int
}

// RoundParams is one immutable snapshot of every chain's public
// parameters for rounds ρ and ρ+1: users build a round's onions and
// its covers one round ahead (§5.3.3), so a gateway serves both. The
// coordinator builds it (snapshot) and pushes it to every gateway
// shard in BeginRound, FinishRound and shard.init; a shard derives its
// epoch's chain count from it, its build workers read it without a
// lock, and it answers its users' ChainParams without a coordinator
// round trip.
type RoundParams struct {
	// Round is ρ.
	Round uint64
	// Epoch is the topology epoch the chains belong to.
	Epoch uint64
	// Cur and Next hold each chain's parameters for ρ and ρ+1; their
	// common length is the epoch's chain count.
	Cur, Next []mix.Params
	// Dead lists, ascending, the chains whose parameters could not be
	// read — a chain that failed to announce. Their entries are zero,
	// ChainParams refuses them, and a shard strands their users.
	Dead []int
	// Outcomes are the last two finished rounds' outcomes, newest
	// first, from which clients settle their bodies.
	Outcomes []client.Outcome
}

// snapshot reads the chains' parameters for rounds rho and rho+1. A
// chain in dead, or one whose parameters it cannot read, is marked
// dead rather than failing the snapshot.
func snapshot(epoch, rho uint64, chains []*mix.Chain, dead []int, outcomes []client.Outcome) RoundParams {
	p := RoundParams{Round: rho, Epoch: epoch, Cur: make([]mix.Params, len(chains)), Next: make([]mix.Params, len(chains)), Outcomes: outcomes}
	for c, chain := range chains {
		cur, errCur := chain.ParamsFor(rho)
		next, errNext := chain.ParamsFor(rho + 1)
		if slices.Contains(dead, c) || errCur != nil || errNext != nil {
			p.Dead = append(p.Dead, c)
			continue
		}
		p.Cur[c], p.Next[c] = cur, next
	}
	return p
}

// NumChains returns the epoch's chain count.
func (p *RoundParams) NumChains() int { return len(p.Cur) }

func (p *RoundParams) dead(chain int) bool { return slices.Contains(p.Dead, chain) }

// validate refuses a snapshot no shard could serve from: a peer's
// word, and ChainParams indexes Next by a chain Cur bounds.
func (p *RoundParams) validate() error {
	if n := p.NumChains(); n < 1 || len(p.Next) != n {
		return fmt.Errorf("core: parameter snapshot has %d and %d chains", n, len(p.Next))
	}
	return nil
}

// ChainParams implements client.ParamsSource.
func (p *RoundParams) ChainParams(chain int, round uint64) (mix.Params, error) {
	if chain < 0 || chain >= p.NumChains() {
		return mix.Params{}, fmt.Errorf("core: no chain %d", chain)
	}
	if p.dead(chain) {
		return mix.Params{}, fmt.Errorf("core: chain %d is dead for round %d", chain, p.Round)
	}
	switch round {
	case p.Round:
		return p.Cur[chain], nil
	case p.Round + 1:
		return p.Next[chain], nil
	}
	return mix.Params{}, fmt.Errorf("core: no parameter snapshot for round %d", round)
}

// withTables returns a copy of p whose keys carry fixed-key tables
// (mix.Params.Precomputed), for the shard that serves it: parameters
// that crossed the wire are bare points. A key that prev, the snapshot
// being replaced, already holds keeps prev's table — round ρ's
// aggregate was prev's next, and mix keys live for the epoch. p's own
// slices, which in-process shards share, are not written.
func (p *RoundParams) withTables(prev *RoundParams) *RoundParams {
	q := *p
	q.Cur, q.Next = make([]mix.Params, len(p.Cur)), make([]mix.Params, len(p.Next))
	for c := range p.Cur {
		if p.dead(c) {
			continue
		}
		var old mix.Params
		if prev != nil {
			old, _ = prev.ChainParams(c, p.Round) // no such chain or round: nothing to keep
		}
		q.Cur[c] = p.Cur[c].Precomputed(old)
		q.Next[c] = p.Next[c].Precomputed(q.Cur[c])
	}
	return &q
}

// RunRound executes the upcoming round and advances the round counter,
// in one pass (Figure 1):
//
//  1. Re-form: servers blamed by an earlier round (a halted chain, a
//     failed announce) are evicted and the chains re-formed over the
//     survivors (recover.go).
//  2. Announce the round's keys and the next round's, and snapshot
//     every chain's parameters. A chain that cannot announce runs dead:
//     its users are stranded for the round rather than wedging the
//     deployment.
//  3. Begin: every gateway shard gets the snapshot, builds its
//     in-process users' onions over its worker pool, and returns the
//     round's banked traffic batched per chain. A shard that fails is
//     dead for the round: its users contribute nothing.
//  4. Merge the shards' batches and the injected submissions per chain.
//  5. Mix every chain that runs in parallel: chains are independent
//     local mix-nets (§4.2).
//  6. Verdicts: each chain's result goes into the report, blamed
//     servers are queued for eviction, and the convicted and the
//     stranded are collected.
//  7. Finish: record the round's outcome, advance the round counter,
//     announce round ρ+2's keys, and send each shard the mail for its
//     users, its convicted users (to remove) and the next snapshot,
//     which carries the outcome.
//
// A failure before the counter advances leaves the round current, so
// the caller can run it again under its number: the shards bank its
// traffic until it finishes, and the next begin collects it again.
// Concurrent calls are serialised.
func (n *Network) RunRound() (*RoundReport, error) {
	n.runMu.Lock()
	defer n.runMu.Unlock()

	evicted, err := n.reform()
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	rho, epoch, topo, chains, outcomes := n.round, n.epoch, n.topo, n.chains, n.outcomes
	n.mu.Unlock()
	report := &RoundReport{Round: rho, Epoch: epoch, Reformed: len(evicted) > 0, Evicted: evicted}
	trace := obs.DefaultTracer.StartRound(rho, epoch)

	// Announce. Chain.BeginRound is idempotent, so on the happy path
	// this is a map hit per chain; after a failed trailing announce (a
	// remote hop that blipped last round and recovered) it is the retry
	// that un-wedges the deployment. A chain that still cannot announce
	// has no parameters to snapshot, so it is dead for the round.
	phase := trace.StartPhase("announce")
	n.announce(topo, chains, rho, rho+1)
	phase.End()
	params := snapshot(epoch, rho, chains, nil, outcomes)
	report.DeadChains = slices.Clone(params.Dead)

	phase = trace.StartPhase("build")
	br := &BeginRound{Round: rho, Params: params}
	builds, errs := fanOut(phase, n.shards, nil, func(_ int, sh GatewayShard) (*ShardBuild, error) {
		b, err := sh.BeginRound(br)
		if err == nil {
			err = b.validate()
		}
		if err != nil {
			return nil, err
		}
		return b, nil
	})
	var skipped []string
	for i, b := range builds {
		if b == nil {
			report.DeadShards = append(report.DeadShards, i)
			continue
		}
		report.OfflineCovered += b.Covered
		skipped = append(skipped, b.Skipped...)
	}
	if len(report.DeadShards) == len(n.shards) {
		return nil, fmt.Errorf("core: every gateway shard failed round %d begin: %w", rho, errors.Join(errs...))
	}
	// The injected submissions are taken only once a shard has begun
	// the round, so a round that fails before here leaves them queued.
	n.mu.Lock()
	injected := n.injected
	n.injected = make(map[int][]onion.Submission)
	n.mu.Unlock()
	batches, deduped := mergeBatches(builds, injected, len(chains))
	report.DedupedSubmissions = deduped
	phase.End()

	// Mix. A chain runs unless it is dead or a member crashed; the
	// crashed set is read now, so a crash reported while the shards
	// were building still fails its chains. A chain that did not run
	// has a nil result.
	n.mu.Lock()
	report.FailedChains = topo.FailedChains(n.failedServers)
	n.mu.Unlock()
	mixStart := time.Now()
	results, err := mixChains(chains, rho, batches, func(c int) bool {
		return !params.dead(c) && !slices.Contains(report.FailedChains, c)
	})
	if err != nil {
		return nil, err
	}
	mixWall := time.Since(mixStart)
	// The verify phase is the chains' submission-proof stage, measured
	// inside the parallel section, so its duration is the slowest
	// chain's; the mix phase is the section's wall clock, with each
	// chain's mixing after verification as a child.
	var maxVerify time.Duration
	for _, res := range results {
		if res != nil {
			maxVerify = max(maxVerify, res.VerifyDur)
		}
	}
	vp := trace.AddPhase("verify", mixStart, maxVerify)
	mp := trace.AddPhase("mix", mixStart, mixWall)
	for c, res := range results {
		if res != nil {
			name := fmt.Sprintf("chain %d", c)
			vp.AddChild(name, mixStart, res.VerifyDur)
			mp.AddChild(name, mixStart.Add(res.VerifyDur), res.MixDur)
		}
	}

	// Verdicts. Everyone whose traffic rode a chain that did not
	// deliver is stranded: skipped by a shard (a dead chain among her ℓ,
	// or traffic a re-formation dropped) or batched onto a failed, dead
	// or halted chain. The convicted are removed instead: there is no
	// honest retry for them.
	stranded := make(map[string]bool)
	for _, who := range skipped {
		stranded[who] = true
	}
	deliveries := make([][][]byte, len(chains))
	n.mu.Lock()
	for c, res := range results {
		if res != nil {
			report.DroppedInner += res.DroppedInner
			report.BlameRounds += res.BlameRounds
			for _, s := range res.BlamedServers {
				report.BlamedServers = append(report.BlamedServers, [2]int{c, s})
				if s >= 0 && s < len(topo.Chains[c]) {
					n.pendingEvict[topo.Chains[c][s]] = true
				}
			}
			for _, idx := range res.BlamedUsers {
				report.BlamedUsers = append(report.BlamedUsers, batches[c].Submitters[idx])
			}
			if !res.Halted {
				deliveries[c] = res.Delivered
				continue
			}
			report.HaltedChains = append(report.HaltedChains, c)
		}
		for _, who := range batches[c].Submitters {
			if !strings.HasPrefix(who, "injected:") {
				stranded[who] = true
			}
		}
	}
	n.mu.Unlock()
	for _, who := range report.BlamedUsers {
		delete(stranded, who)
	}
	if len(stranded) > 0 {
		report.Stranded = slices.Sorted(maps.Keys(stranded))
	}

	// Finish. Round ρ+2's keys, which the next round's covers need, are
	// announced only now that every chain has revealed ρ: that bounds a
	// chain's inner-key retention to two rounds (TestInnerAggPruning).
	failed := slices.Concat(report.HaltedChains, report.FailedChains)
	slices.Sort(failed)
	outcomes = append([]client.Outcome{{Round: rho, Epoch: epoch, Dead: params.Dead, Failed: failed}}, outcomes[:min(len(outcomes), 1)]...)
	n.mu.Lock()
	n.round, n.outcomes = rho+1, outcomes
	n.mu.Unlock()
	phase = trace.StartPhase("finish")
	trailing := n.announce(topo, chains, rho+2)
	next := snapshot(epoch, rho+1, chains, params.Dead, outcomes)
	phase.End()

	phase = trace.StartPhase("deliver")
	finishes := make([]FinishRound, len(n.shards))
	for i := range finishes {
		finishes[i] = FinishRound{Round: rho, Params: next}
	}
	for _, msgs := range deliveries {
		for _, msg := range msgs {
			rcpt, err := onion.Recipient(msg)
			if err != nil {
				continue // malformed: it names no recipient to route to
			}
			fr := &finishes[n.owner[OwnerShard(rcpt)]]
			fr.Delivered = append(fr.Delivered, msg)
		}
	}
	for _, who := range report.BlamedUsers {
		fr := &finishes[n.owner[shardIndex(who)]]
		fr.Removed = append(fr.Removed, who)
	}
	stats, errs := fanOut(phase, n.shards, func(i int) bool { return builds[i] != nil }, func(i int, sh GatewayShard) (FinishStats, error) {
		return sh.FinishRound(&finishes[i])
	})
	for i := range finishes {
		switch {
		case builds[i] == nil:
			report.LostDeliveries += len(finishes[i].Delivered)
		case errs[i] != nil:
			report.DeadShards = append(report.DeadShards, i)
			report.LostDeliveries += len(finishes[i].Delivered)
		default:
			report.Delivered += stats[i].Delivered
			report.MailboxDropped += stats[i].Dropped
		}
	}
	sort.Ints(report.DeadShards)
	phase.End()
	recordRoundReport(report)
	trace.Finish()
	// The round is complete and its report valid even when announcing
	// round ρ+2's keys failed (typically a remote hop that died, its
	// chain halted above): both are returned, so the caller keeps the
	// round's outcome alongside the failure.
	return report, trailing
}

// fanOut calls call on every shard that runs admits (nil admits all),
// each on its own goroutine under a child span of phase, and returns
// each shard's result and error.
func fanOut[T any](phase *obs.Span, shards []GatewayShard, runs func(int) bool, call func(int, GatewayShard) (T, error)) ([]T, []error) {
	out := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		if runs != nil && !runs(i) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := phase.StartChild("shard " + sh.Range().String())
			defer child.End()
			out[i], errs[i] = call(i, sh)
		}()
	}
	wg.Wait()
	return out, errs
}

// mergeBatches merges the shards' per-chain batches (a dead shard's
// build is nil) and then the injected submissions. With more than one
// shard a submission can arrive twice: a client whose gateway stalled
// mid-submit retries against another shard, and both may have
// accepted the byte-identical copy. The merge keeps the first copy per
// (chain, DH key) and counts the rest; the duplicate would otherwise
// fail the chain's shuffle-cardinality checks or deliver the message
// twice.
func mergeBatches(builds []*ShardBuild, injected map[int][]onion.Submission, numChains int) ([]ChainBatch, int) {
	var seen map[string]bool
	if len(builds) > 1 {
		seen = make(map[string]bool)
	}
	deduped := 0
	batches := make([]ChainBatch, numChains)
	for c := range batches {
		total := 0
		for _, b := range builds {
			if b != nil && c < len(b.Batches) {
				total += len(b.Batches[c].Subs)
			}
		}
		batches[c].Subs = make([]onion.Submission, 0, total)
		batches[c].Submitters = make([]string, 0, total)
		for _, b := range builds {
			if b == nil || c >= len(b.Batches) {
				continue
			}
			for j, sub := range b.Batches[c].Subs {
				if seen != nil {
					key := string(sub.DHKey.Bytes())
					if seen[key] {
						deduped++
						continue
					}
					seen[key] = true
				}
				batches[c].add(sub, b.Batches[c].Submitters[j])
			}
		}
	}
	for c, subs := range injected {
		if c < 0 || c >= numChains {
			continue
		}
		for _, sub := range subs {
			batches[c].add(sub, fmt.Sprintf("injected:%d", c))
		}
	}
	return batches, deduped
}

// mixChains runs round rho on every chain that runs admits, each on its
// own goroutine, and returns each chain's result (nil for a chain that
// did not run) or the first chain's orchestration failure.
func mixChains(chains []*mix.Chain, rho uint64, batches []ChainBatch, runs func(int) bool) ([]*mix.RoundResult, error) {
	results := make([]*mix.RoundResult, len(chains))
	errs := make([]error, len(chains))
	var wg sync.WaitGroup
	for c := range chains {
		if !runs(c) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c], errs[c] = chains[c].RunRound(rho, client.LaneCurrent, batches[c].Subs)
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: chain %d: %w", c, err)
		}
	}
	return results, nil
}
