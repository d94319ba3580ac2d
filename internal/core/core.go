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
// Each call to RunRound executes one communication round end to end
// (Figure 1): every shard builds its users' ℓ messages plus the next
// round's covers (fanning out over a worker pool that claims registry
// shards), every chain mixes with aggregate-hybrid-shuffle
// verification (§6), results fan back out to the shard owning each
// recipient mailbox, and users fetch and decrypt.
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
// own users are affected, the round completes for everyone else.
package core

import (
	"errors"
	"fmt"
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
	if err := n.announce(n.round); err != nil {
		return nil, err
	}
	if err := n.announce(n.round + 1); err != nil {
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

// announce is announceEach with the errors joined.
func (n *Network) announce(round uint64) error {
	return errors.Join(announceEach(n.chains, round)...)
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
	epoch, rho, chains := n.epoch, n.round, n.chains
	n.mu.Unlock()
	return snapshot(epoch, rho, chains, nil)
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
	// Stranded lists users (mailbox identifiers) whose traffic rode a
	// halted, failed or dead chain this round: nothing of theirs was
	// delivered and StrandedError reports ErrRoundRetry for them.
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
}

// snapshot reads the chains' parameters for rounds rho and rho+1. A
// chain in dead, or one whose parameters it cannot read, is marked
// dead rather than failing the snapshot.
func snapshot(epoch, rho uint64, chains []*mix.Chain, dead []int) RoundParams {
	p := RoundParams{Round: rho, Epoch: epoch, Cur: make([]mix.Params, len(chains)), Next: make([]mix.Params, len(chains))}
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

// preparedRound is the output of a round's preparation half: keys
// announced, parameters snapshotted, every shard's users built and
// the per-chain batches merged — everything up to (but not including)
// the mix. RunRound prepares and executes back to back.
type preparedRound struct {
	rho   uint64
	epoch uint64
	topo  *topology.Topology
	// chains is the topology snapshot the round was prepared against;
	// execution must run over the same snapshot.
	chains []*mix.Chain
	report *RoundReport
	// params is the snapshot the shards built from; its dead chains
	// are those that failed to announce. deadShards marks gateway
	// shards that failed their round-begin call.
	params     RoundParams
	deadShards map[int]bool
	batches    []ChainBatch
	// skipped are users stranded at build time (a dead chain among
	// their ℓ chains).
	skipped []string
	// trace is the round's span tree, started at preparation so the
	// announce and build phases land in it. A round that fails drops
	// it unfinished.
	trace *obs.RoundTrace
}

// maybeReform performs epoch recovery if evictions are pending: expel
// the servers blamed since the last round and re-form chains over the
// survivors (halt → blame → evict → re-form → resume). Callers hold
// runMu.
func (n *Network) maybeReform() (reformed bool, evicted []int, err error) {
	n.mu.Lock()
	pending := len(n.pendingEvict) > 0
	n.mu.Unlock()
	if !pending {
		return false, nil, nil
	}
	if evicted, err = n.reform(); err != nil {
		return false, nil, err
	}
	return len(evicted) > 0, evicted, nil
}

// restoreInjected returns consumed fault-injection submissions to the
// front of the queue (a preparation that failed).
func (n *Network) restoreInjected(injected map[int][]onion.Submission) {
	if len(injected) == 0 {
		return
	}
	n.mu.Lock()
	for c, subs := range injected {
		n.injected[c] = append(append([]onion.Submission{}, subs...), n.injected[c]...)
	}
	n.mu.Unlock()
}

// prepareRound runs the preparation half of round rho: announce the
// keys the round needs, snapshot the live chains' parameters, fan the
// build out to every gateway shard and merge the per-chain batches.
// It advances no state other than consuming the injected-submission
// queue (returned to it if the preparation fails) and closing the
// shards' submission windows (which executeRound reopens if the round
// fails).
func (n *Network) prepareRound(rho uint64) (*preparedRound, error) {
	n.mu.Lock()
	epoch := n.epoch
	injected := n.injected
	n.injected = make(map[int][]onion.Submission)
	topo, chains := n.topo, n.chains
	n.mu.Unlock()

	p := &preparedRound{
		rho:        rho,
		epoch:      epoch,
		topo:       topo,
		chains:     chains,
		report:     &RoundReport{Round: rho, Epoch: epoch},
		deadShards: make(map[int]bool),
		trace:      obs.DefaultTracer.StartRound(rho, epoch),
	}

	// Re-announce the rounds this execution needs. BeginRound is
	// idempotent, so on the happy path this is a map hit per chain;
	// after a failed trailing announce (a remote hop that blipped
	// last round and recovered) it is the retry that un-wedges the
	// deployment. A chain that still cannot announce has no parameters
	// to snapshot, so it is dead for the round: the shards strand its
	// users, and — when the failure is attributable to a position —
	// the server behind it is queued for eviction.
	announcePhase := p.trace.StartPhase("announce")
	for _, err := range append(announceEach(chains, rho), announceEach(chains, rho+1)...) {
		if err != nil {
			n.attributeHopError(topo, err)
		}
	}
	announcePhase.End()
	p.params = snapshot(epoch, rho, chains, nil)
	p.report.DeadChains = slices.Clone(p.params.Dead)

	// Stage 1: build, distributed. Push the parameter snapshot to
	// every gateway shard; each builds its in-process users' onions
	// over its worker pool into its bank, collects the round's banked
	// traffic and closes its submission window for the round. A shard
	// erroring here is dead for the round: only its users are missing
	// from the batches.
	br := &BeginRound{Round: rho, Params: p.params}
	buildPhase := p.trace.StartPhase("build")
	builds := make([]*ShardBuild, len(n.shards))
	beginErrs := make([]error, len(n.shards))
	var beginWG sync.WaitGroup
	for i, sh := range n.shards {
		beginWG.Add(1)
		go func(i int, sh GatewayShard) {
			defer beginWG.Done()
			child := buildPhase.StartChild("shard " + sh.Range().String())
			build, err := sh.BeginRound(br)
			if err == nil {
				err = build.validate()
			}
			if err == nil {
				builds[i] = build
			}
			beginErrs[i] = err
			child.End()
		}(i, sh)
	}
	beginWG.Wait()

	for i := range n.shards {
		if beginErrs[i] != nil {
			p.deadShards[i] = true
			p.report.DeadShards = append(p.report.DeadShards, i)
			continue
		}
		p.report.OfflineCovered += builds[i].Covered
		p.skipped = append(p.skipped, builds[i].Skipped...)
	}
	if len(p.deadShards) == len(n.shards) {
		n.restoreInjected(injected)
		return nil, fmt.Errorf("core: every gateway shard failed round %d begin: %w", rho, errors.Join(beginErrs...))
	}

	// Merge the shards' per-chain batches plus injected submissions.
	// With more than one shard, duplicate submissions are possible: a
	// client whose gateway stalled mid-submit retries against another
	// shard, and both may have accepted the (byte-identical) copy.
	// The merge keeps the first copy per (chain, DH key) — without
	// this, the duplicate would fail the chain's shuffle-cardinality
	// checks or deliver the message twice.
	var seen map[string]bool
	if len(n.shards) > 1 {
		seen = make(map[string]bool)
	}
	batches := make([]ChainBatch, len(chains))
	for c := range batches {
		total := 0
		for i := range builds {
			if builds[i] != nil && c < len(builds[i].Batches) {
				total += len(builds[i].Batches[c].Subs)
			}
		}
		batches[c].Subs = make([]onion.Submission, 0, total)
		batches[c].Submitters = make([]string, 0, total)
		for i := range builds {
			if builds[i] == nil || c >= len(builds[i].Batches) {
				continue
			}
			b := &builds[i].Batches[c]
			for j, sub := range b.Subs {
				if seen != nil {
					key := string(sub.DHKey.Bytes())
					if seen[key] {
						p.report.DedupedSubmissions++
						continue
					}
					seen[key] = true
				}
				batches[c].add(sub, b.Submitters[j])
			}
		}
	}
	for chain, subs := range injected {
		if chain < 0 || chain >= len(batches) {
			continue
		}
		for _, sub := range subs {
			batches[chain].add(sub, fmt.Sprintf("injected:%d", chain))
		}
	}
	p.batches = batches
	buildPhase.End()
	return p, nil
}

// RunRound executes the upcoming round and advances the round
// counter. The coordinator's view of the pipeline: announce this
// round's keys; push the round parameters to every gateway shard and
// collect their per-chain batches (each shard builds its own users in
// parallel over its worker pool); mix every chain in parallel (they
// are independent local mix-nets, §4.2); fan the delivered mailbox
// messages back out to the shard owning each recipient, along with
// the blame verdicts and stranded-user records. Blamed users are
// removed from the network before the next round. Concurrent RunRound
// calls are serialised.
//
// RunRound also performs epoch recovery: servers blamed by a previous
// round (a halted chain, a failed announce) are evicted and the chains
// re-formed over the survivors before this round executes, and chains
// that cannot announce this round's keys run dead — their users are
// stranded for the round (see Frontend.StrandedError) rather than
// wedging the deployment.
// A gateway shard that fails its round-begin call is dead for the
// round: it contributes no traffic and the round proceeds without it.
func (n *Network) RunRound() (*RoundReport, error) {
	n.runMu.Lock()
	defer n.runMu.Unlock()

	reformed, evicted, err := n.maybeReform()
	if err != nil {
		return nil, err
	}

	n.mu.Lock()
	rho := n.round
	n.mu.Unlock()

	p, err := n.prepareRound(rho)
	if err != nil {
		return nil, err
	}
	p.report.Reformed = reformed
	p.report.Evicted = evicted
	return n.executeRound(p)
}

// executeRound runs the mix, aggregation and delivery halves of a
// prepared round and advances the round counter. On an orchestration
// failure the round stays current, so the caller can retry it: the
// shards still bank its traffic and collect it again at the next
// begin.
func (n *Network) executeRound(p *preparedRound) (*RoundReport, error) {
	rho, epoch := p.rho, p.epoch
	topo, chains := p.topo, p.chains
	report := p.report
	dead, deadShards := p.params.dead, p.deadShards
	batches, skipped := p.batches, p.skipped

	// The failed-server set is read at execution time, not at
	// preparation time, so a crash reported while the round was being
	// built still fails its chains.
	n.mu.Lock()
	failed := make(map[int]bool, len(n.failedServers))
	for s := range n.failedServers {
		failed[s] = true
	}
	n.mu.Unlock()

	failedChains := make(map[int]bool)
	for _, c := range topo.FailedChains(failed) {
		failedChains[c] = true
		report.FailedChains = append(report.FailedChains, c)
	}

	// Stage 2: mix. Run every healthy chain in parallel — the heart
	// of the design: chains are independent local mix-nets (§4.2).
	type chainOutcome struct {
		res *mix.RoundResult
		err error
	}
	mixStart := time.Now()
	outcomes := make([]chainOutcome, len(chains))
	var wg sync.WaitGroup
	for c := range chains {
		if failedChains[c] || dead(c) {
			continue
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := chains[c].RunRound(rho, client.LaneCurrent, batches[c].Subs)
			outcomes[c] = chainOutcome{res: res, err: err}
		}(c)
	}
	wg.Wait()
	mixWall := time.Since(mixStart)

	// Stage 3: aggregate. Reports are folded serially (cheap); the
	// deliveries and removal verdicts are then fanned back out to the
	// owning shards.
	for c := range chains {
		if !failedChains[c] && !dead(c) && outcomes[c].err != nil {
			return nil, fmt.Errorf("core: chain %d: %w", c, outcomes[c].err)
		}
	}

	// Trace phase synthesis from the chains' own stage timings. The
	// verify phase is the per-chain submission-proof stage, measured
	// inside the parallel section, so its top-level duration is the
	// max across chains (the wall-clock contribution); the mix phase
	// is the whole parallel section's wall clock, with each chain's
	// post-verification mixing as a child.
	if p.trace != nil {
		var maxVerify time.Duration
		for c := range chains {
			if failedChains[c] || dead(c) || outcomes[c].res == nil {
				continue
			}
			if v := outcomes[c].res.VerifyDur; v > maxVerify {
				maxVerify = v
			}
		}
		vp := p.trace.AddPhase("verify", mixStart, maxVerify)
		mp := p.trace.AddPhase("mix", mixStart, mixWall)
		for c := range chains {
			if failedChains[c] || dead(c) || outcomes[c].res == nil {
				continue
			}
			res := outcomes[c].res
			name := fmt.Sprintf("chain %d", c)
			vp.AddChild(name, mixStart, res.VerifyDur)
			mp.AddChild(name, mixStart.Add(res.VerifyDur), res.MixDur)
		}
	}
	// stranded collects everyone whose traffic rode a chain that did
	// not deliver this round: skipped at build (dead chain among their
	// ℓ), or batched onto a failed, dead or halted chain. They get
	// ErrRoundRetry from StrandedError rather than a silent drop.
	stranded := make(map[string]bool)
	for _, who := range skipped {
		stranded[who] = true
	}
	strandChain := func(c int) {
		for _, who := range batches[c].Submitters {
			if !strings.HasPrefix(who, "injected:") {
				stranded[who] = true
			}
		}
	}
	var convicted []string
	deliveries := make([][][]byte, len(chains))
	for c := range chains {
		if failedChains[c] || dead(c) {
			strandChain(c)
			continue
		}
		res := outcomes[c].res
		report.DroppedInner += res.DroppedInner
		report.BlameRounds += res.BlameRounds
		if res.Halted {
			report.HaltedChains = append(report.HaltedChains, c)
			strandChain(c)
		}
		for _, s := range res.BlamedServers {
			report.BlamedServers = append(report.BlamedServers, [2]int{c, s})
			if s >= 0 && s < len(topo.Chains[c]) {
				n.mu.Lock()
				n.pendingEvict[topo.Chains[c][s]] = true
				n.mu.Unlock()
			}
		}
		for _, idx := range res.BlamedUsers {
			who := batches[c].Submitters[idx]
			report.BlamedUsers = append(report.BlamedUsers, who)
			convicted = append(convicted, who)
		}
		if !res.Halted {
			deliveries[c] = res.Delivered
		}
	}

	// Convicted users are removed, not stranded: there is no honest
	// retry for them.
	for _, who := range convicted {
		delete(stranded, who)
	}
	if len(stranded) > 0 {
		report.Stranded = make([]string, 0, len(stranded))
		for who := range stranded {
			report.Stranded = append(report.Stranded, who)
		}
		sort.Strings(report.Stranded)
	}

	// Advance the round and announce the keys the NEXT round's covers
	// will need, before closing this round on the shards — the finish
	// message carries the (ρ+1, ρ+2) parameter snapshot so gateway
	// processes can serve clients without another coordinator round
	// trip.
	n.mu.Lock()
	n.round = rho + 1
	next := n.round + 1
	n.mu.Unlock()
	finishPhase := p.trace.StartPhase("finish")
	trailing := announceEach(chains, next)
	for _, e := range trailing {
		if e != nil {
			n.attributeHopError(topo, e)
		}
	}
	finishSnap := snapshot(epoch, rho+1, chains, p.params.Dead)
	finishPhase.End()

	// Stage 4: deliver, distributed. Route every mixed mailbox
	// message to the shard owning its recipient, the blame verdicts to
	// the shard owning the convicted user, the stranded records
	// likewise, and close the round everywhere in parallel.
	deliverPhase := p.trace.StartPhase("deliver")
	perShard := make([][][]byte, len(n.shards))
	for c := range deliveries {
		for _, msg := range deliveries[c] {
			rcpt, err := onion.Recipient(msg)
			if err != nil {
				continue // malformed: it names no recipient to route to
			}
			i := n.owner[OwnerShard(rcpt)]
			perShard[i] = append(perShard[i], msg)
		}
	}
	removedPer := make([][]string, len(n.shards))
	for _, who := range convicted {
		i := n.owner[shardIndex(who)]
		removedPer[i] = append(removedPer[i], who)
	}
	strandedPer := make([][]string, len(n.shards))
	for _, who := range report.Stranded {
		i := n.owner[shardIndex(who)]
		strandedPer[i] = append(strandedPer[i], who)
	}

	finishErrs := make([]error, len(n.shards))
	statsPer := make([]FinishStats, len(n.shards))
	var finishWG sync.WaitGroup
	for i, sh := range n.shards {
		if deadShards[i] {
			report.LostDeliveries += len(perShard[i])
			continue
		}
		finishWG.Add(1)
		go func(i int, sh GatewayShard) {
			defer finishWG.Done()
			child := deliverPhase.StartChild("shard " + sh.Range().String())
			defer child.End()
			statsPer[i], finishErrs[i] = sh.FinishRound(&FinishRound{
				Round:     rho,
				Delivered: perShard[i],
				Removed:   removedPer[i],
				Stranded:  strandedPer[i],
				Params:    finishSnap,
			})
		}(i, sh)
	}
	finishWG.Wait()
	for i := range n.shards {
		if deadShards[i] {
			continue
		}
		if finishErrs[i] != nil {
			deadShards[i] = true
			report.DeadShards = append(report.DeadShards, i)
			report.LostDeliveries += len(perShard[i])
			continue
		}
		report.Delivered += statsPer[i].Delivered
		report.MailboxDropped += statsPer[i].Dropped
	}
	sort.Ints(report.DeadShards)
	deliverPhase.End()
	recordRoundReport(report)
	p.trace.Finish()

	for _, e := range trailing {
		if e != nil {
			// The executed round is complete and its report valid; what
			// failed is announcing round next's keys — typically a
			// remote hop that died (its chain halted above). Return
			// both so the caller keeps this round's outcome alongside
			// the failure.
			return report, errors.Join(trailing...)
		}
	}
	return report, nil
}
