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
//     presence, onion building, external submissions, cover banking
//     and mailbox storage for its users. Frontend (frontend.go) is
//     the in-process implementation; rpc.ShardClient hosts a shard in
//     another process.
//
// When Config.Shards is empty, NewNetwork builds one full-range
// in-process Frontend and the Network behaves exactly like the
// pre-split monolith — same API, same locking, same round pipeline.
//
// Each call to RunRound executes one communication round end to end
// (Figure 1): every shard builds its users' ℓ messages plus the next
// round's covers (fanning out over a worker pool that claims registry
// shards), every chain mixes with aggregate-hybrid-shuffle
// verification (§6), results fan back out to the shard owning each
// recipient mailbox, and users fetch and decrypt.
//
// Registry operations (NewUser, SetOnline, IsRemoved, NumUsers) and
// mailbox fetches are safe to call concurrently with RunRound; a user
// registered mid-round joins either the running round or the next
// one, depending on whether her registry shard was already built.
// RunRound itself is serialised: concurrent calls execute one at a
// time.
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
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/aead"
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
	// SecurityBits is λ for the anytrust bound; zero means 64.
	SecurityBits int
	// ChainLengthOverride fixes the chain length k directly, for
	// small test deployments and exact-paper comparisons (k=32).
	ChainLengthOverride int
	// Seed is the public randomness for chain formation.
	Seed []byte
	// MailboxServers is the mailbox cluster size; zero means 1. Used
	// by the default full-range Frontend; ignored when Shards is set
	// (each shard sizes its own cluster).
	MailboxServers int
	// Scheme is the AEAD; nil means ChaCha20-Poly1305.
	Scheme aead.Scheme
	// DisableStaggering turns off position staggering (§5.2.1), for
	// the ablation benchmark.
	DisableStaggering bool
	// Workers sizes the round pipeline's build worker pool; zero
	// means runtime.GOMAXPROCS(0). One worker reproduces the serial
	// build order for deterministic comparisons. Applies to the
	// default Frontend; explicit Shards carry their own pools.
	Workers int
	// Shards, when non-empty, supplies the gateway front-end shards.
	// Their ranges must exactly partition the registry-shard space
	// [0, NumRegistryShards). Empty means one in-process full-range
	// Frontend — the monolith.
	Shards []GatewayShard
	// RemoteHops, when non-nil, is consulted once for every chain
	// position while the network is assembled. Chains are keyed
	// concurrently, but the provider is called under one lock, so it
	// never runs concurrently with itself and needs none of its own.
	// A chain's positions are called in order 0…k−1 (each one's base is
	// its predecessor's blinding key); different chains' calls
	// interleave. Returning a non-nil mix.Hop hosts that position on a
	// remote process reached through the hop transport (typically an
	// rpc.HopClient initialised against the given base key, which is
	// g for position 0 and the previous position's blinding key
	// otherwise); returning nil keeps the position in-process.
	//
	// RemoteHops is keyed by chain coordinates, which do not survive a
	// chain re-formation; deployments that enable Recover should use
	// HopForServer instead.
	RemoteHops func(chain, position int, base group.Point) (mix.Hop, error)
	// HopForServer, when non-nil, supplies the transport for chain
	// positions keyed by server identity, and is consulted again at
	// every epoch re-formation: server ids are stable across epochs
	// while chain coordinates are not. It is called under the same
	// contract as RemoteHops: one call at a time, each chain's
	// positions in order, chains interleaved. Returning nil hosts the
	// position in-process (the provider may mix local and remote
	// positions). Takes precedence over RemoteHops.
	HopForServer func(epoch uint64, server, chain, position int, base group.Point) (mix.Hop, error)
	// Recover enables epoch recovery: after a chain halts with blame,
	// or fails to announce keys, the responsible servers are evicted
	// and chains re-form over the survivors before the next round
	// (halt → blame → evict → re-form → resume). Remotely hosted
	// positions additionally need HopForServer so re-formed chains can
	// reference them.
	Recover bool
	// PipelineDepth bounds how many rounds may be in flight at once.
	// 0 or 1 runs rounds strictly serially. 2 overlaps round ρ+1's
	// preparation — key announcement, parameter snapshot, onion
	// building, external collection — with round ρ's mix, trading one
	// round of submission-window latency for round-rate throughput:
	// round ρ+1's submission window closes when its build starts,
	// while ρ is still mixing, so traffic queued after that rides
	// round ρ+2. Values above 2 are clamped to 2: preparing ρ+2 needs
	// ρ+1's finish state, so one round of lookahead is the maximum
	// overlap the begin/finish shard protocol admits.
	PipelineDepth int
}

// Network is the round coordinator of an XRD deployment. With the
// default single full-range Frontend it is also the complete
// deployment, and every pre-split monolith method keeps working by
// delegating to the shard owning the mailbox in question.
type Network struct {
	cfg     Config
	scheme  aead.Scheme
	plan    *chainsel.Plan
	topo    *topology.Topology
	chains  []*mix.Chain
	workers int

	// shards are the gateway front ends; owner maps each registry
	// shard index to its position in shards. Both are fixed at
	// construction.
	shards []GatewayShard
	owner  [numShards]int

	// runMu serialises RunRound executions.
	runMu sync.Mutex
	// hopMu serialises calls into Config.RemoteHops and
	// Config.HopForServer: chains key concurrently, and a provider is
	// never called concurrently with itself. It is held across the
	// provider call only and guards nothing else.
	hopMu sync.Mutex
	// pending is the round prepared ahead of time under
	// Config.PipelineDepth ≥ 2, awaiting validation and execution by
	// the next RunRound. Guarded by runMu.
	pending *preparedRound

	// evictor records servers expelled across epochs (Config.Recover).
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
	if cfg.Scheme == nil {
		cfg.Scheme = aead.ChaCha20Poly1305()
	}
	topo, err := topology.Build(topology.Config{
		NumServers:          cfg.NumServers,
		NumChains:           cfg.NumChains,
		F:                   cfg.F,
		SecurityBits:        cfg.SecurityBits,
		ChainLengthOverride: cfg.ChainLengthOverride,
		Seed:                cfg.Seed,
		DisableStaggering:   cfg.DisableStaggering,
	})
	if err != nil {
		return nil, fmt.Errorf("core: building topology: %w", err)
	}
	plan, err := chainsel.NewPlan(len(topo.Chains))
	if err != nil {
		return nil, fmt.Errorf("core: building chain-selection plan: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numShards {
		workers = numShards
	}
	n := &Network{
		cfg:           cfg,
		scheme:        cfg.Scheme,
		plan:          plan,
		topo:          topo,
		workers:       workers,
		round:         1,
		evictor:       churn.NewEvictor(),
		failedServers: make(map[int]bool),
		injected:      make(map[int][]onion.Submission),
		pendingEvict:  make(map[int]bool),
	}
	if len(cfg.Shards) == 0 {
		fe, err := NewFrontend(FrontendConfig{
			Range:          FullRange(),
			MailboxServers: cfg.MailboxServers,
			Scheme:         cfg.Scheme,
			Workers:        cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		n.shards = []GatewayShard{fe}
	} else {
		n.shards = cfg.Shards
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

// shardFor returns the gateway shard owning a mailbox identifier.
func (n *Network) shardFor(mailbox []byte) GatewayShard {
	return n.shards[n.owner[OwnerShard(mailbox)]]
}

// frontendFor returns the in-process Frontend owning a mailbox
// identifier, or nil when that shard is hosted remotely.
func (n *Network) frontendFor(mailbox []byte) *Frontend {
	fe, _ := n.shardFor(mailbox).(*Frontend)
	return fe
}

// Shards exposes the gateway shards (for tests and the rpc layer).
func (n *Network) Shards() []GatewayShard { return n.shards }

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
// each position in-process or on a remote hop according to
// Config.HopForServer (id-keyed, epoch-aware) or the legacy
// Config.RemoteHops (coordinate-keyed, founding epoch only). Key setup
// is inherently sequential within a chain — position i's keys chain off
// position i−1's blinding key (§6.1) — which is why the provider
// receives the base point. Providers are called under hopMu, since
// chains key concurrently (keyChains). A provider failure is returned
// as a mix.HopError so the reform loop can evict the offending server.
func (n *Network) assembleChainAt(epoch uint64, topo *topology.Topology, c int) (*mix.Chain, error) {
	if n.cfg.HopForServer == nil && (n.cfg.RemoteHops == nil || epoch > 0) {
		return mix.NewChain(c, topo.ChainLength, n.scheme)
	}
	hops := make([]mix.Hop, topo.ChainLength)
	base := group.Generator()
	for i := range hops {
		var h mix.Hop
		var err error
		n.hopMu.Lock()
		if n.cfg.HopForServer != nil {
			h, err = n.cfg.HopForServer(epoch, topo.Chains[c][i], c, i, base)
		} else {
			h, err = n.cfg.RemoteHops(c, i, base)
		}
		n.hopMu.Unlock()
		if err != nil {
			return nil, &mix.HopError{Chain: c, Position: i, Err: fmt.Errorf("core: remote hop setup: %w", err)}
		}
		if h == nil {
			h = mix.LocalHop(mix.NewChainServer(c, i, base, n.scheme))
		}
		hops[i] = h
		base = h.Keys().Bpk
	}
	return mix.NewChainFromHops(c, hops, n.scheme)
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

// Workers returns the size of the round pipeline's build worker pool.
func (n *Network) Workers() int { return n.workers }

// Round returns the upcoming round number.
func (n *Network) Round() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.round
}

// ChainParams implements client.ParamsSource.
func (n *Network) ChainParams(chain int, round uint64) (mix.Params, error) {
	_, _, chains := n.topoView()
	if chain < 0 || chain >= len(chains) {
		return mix.Params{}, fmt.Errorf("core: no chain %d", chain)
	}
	return chains[chain].ParamsFor(round)
}

// NewUser creates and registers a user; she participates in every
// round until she goes offline or is removed for misbehaviour. Safe
// to call concurrently with a running round: the user joins the round
// if her registry shard has not been built yet, the next one
// otherwise. Key generation repeats until the identity lands on an
// in-process shard; returns nil if every shard is remote (remote
// users register through their gateway's transport instead).
func (n *Network) NewUser() *client.User {
	plan, _, _ := n.topoView()
	inProcess := false
	for _, sh := range n.shards {
		if _, ok := sh.(*Frontend); ok {
			inProcess = true
			break
		}
	}
	if !inProcess {
		return nil
	}
	for {
		u := client.NewUser(n.scheme, plan)
		if fe := n.frontendFor(u.Mailbox()); fe != nil {
			if err := fe.AddUser(u); err == nil {
				return u
			}
		}
	}
}

// NumUsers returns the number of registered, non-removed users across
// the in-process shards.
func (n *Network) NumUsers() int {
	total := 0
	for _, sh := range n.shards {
		if fe, ok := sh.(*Frontend); ok {
			total += fe.NumUsers()
		}
	}
	return total
}

// SetOnline marks a user online or offline for subsequent rounds. The
// first offline round is covered by her pre-submitted cover messages
// (§5.3.3). If those covers ran while she was away, her conversation
// was ended by the offline signal, so reconnecting reverts her to
// loopback traffic until a conversation is re-initiated.
func (n *Network) SetOnline(u *client.User, online bool) {
	if fe := n.frontendFor(u.Mailbox()); fe != nil {
		fe.SetOnline(u, online)
	}
}

// IsRemoved reports whether the user was removed for misbehaviour.
func (n *Network) IsRemoved(u *client.User) bool {
	fe := n.frontendFor(u.Mailbox())
	return fe != nil && fe.IsRemoved(u)
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

// CorruptServer attaches a corruption to the server at the given
// position of a chain (fault injection; see mix.Corruption).
func (n *Network) CorruptServer(chain, position int, c *mix.Corruption) error {
	_, _, chains := n.topoView()
	if chain < 0 || chain >= len(chains) {
		return fmt.Errorf("core: no chain %d", chain)
	}
	if position < 0 || position >= chains[chain].Len() {
		return fmt.Errorf("core: chain %d has no position %d", chain, position)
	}
	s := chains[chain].Servers[position]
	if s == nil {
		return fmt.Errorf("core: chain %d position %d is hosted remotely; corruption hooks need an in-process server", chain, position)
	}
	s.Corruption = c
	return nil
}

// InjectSubmission adds a raw submission to a chain's next batch,
// simulating a malicious user outside the registry.
func (n *Network) InjectSubmission(chain int, sub onion.Submission) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.injected[chain] = append(n.injected[chain], sub)
}

// Fetch downloads a user's mailbox for a round.
func (n *Network) Fetch(u *client.User, round uint64) [][]byte {
	if fe := n.frontendFor(u.Mailbox()); fe != nil {
		return fe.Fetch(u, round)
	}
	return nil
}

// FetchMailbox downloads a mailbox by identifier, the transport-layer
// variant of Fetch.
func (n *Network) FetchMailbox(round uint64, mailbox []byte) [][]byte {
	if fe := n.frontendFor(mailbox); fe != nil {
		return fe.FetchMailbox(round, mailbox)
	}
	return nil
}

// AckMailbox prunes a mailbox's messages for a round after its owner
// confirmed receipt (see Frontend.AckMailbox), returning how many
// were removed.
func (n *Network) AckMailbox(round uint64, mailbox []byte) int {
	if fe := n.frontendFor(mailbox); fe != nil {
		return fe.AckMailbox(round, mailbox)
	}
	return 0
}

// PruneBefore discards mailbox state older than the given round on
// every in-process shard.
func (n *Network) PruneBefore(round uint64) {
	for _, sh := range n.shards {
		if fe, ok := sh.(*Frontend); ok {
			fe.PruneBefore(round)
		}
	}
}

// Register records network-transport users' mailbox identifiers, each
// owning shard's share in one Frontend.Register call, all or nothing
// per shard. An identifier whose shard is remote refuses the whole
// call before any shard registers.
func (n *Network) Register(mailboxes ...[]byte) error {
	parts := make([][][]byte, len(n.shards))
	for _, mb := range mailboxes {
		i := n.owner[OwnerShard(mb)]
		if _, ok := n.shards[i].(*Frontend); !ok {
			return fmt.Errorf("core: mailbox's gateway shard %s is remote; register through its transport",
				n.shards[i].Range())
		}
		parts[i] = append(parts[i], mb)
	}
	for i, part := range parts {
		if len(part) > 0 {
			if err := n.shards[i].(*Frontend).Register(part...); err != nil {
				return err
			}
		}
	}
	return nil
}

// SubmitExternal queues a remote user's round output with the shard
// owning her mailbox (see external.go for the window semantics).
func (n *Network) SubmitExternal(mailbox string, out *client.RoundOutput) error {
	fe := n.frontendFor([]byte(mailbox))
	if fe == nil {
		return fmt.Errorf("core: mailbox's gateway shard %s is remote; submit through its transport",
			n.shardFor([]byte(mailbox)).Range())
	}
	return fe.SubmitExternal(mailbox, out)
}

// StrandedError reports whether the user behind mailbox was stranded
// in the given executed round: a deterministic error wrapping
// ErrRoundRetry if so, nil otherwise. Records are kept for the last
// strandedRetention rounds on the owning shard.
func (n *Network) StrandedError(round uint64, mailbox []byte) error {
	if fe := n.frontendFor(mailbox); fe != nil {
		return fe.StrandedError(round, mailbox)
	}
	return nil
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
	// round and, with Recover on, the chain re-forms before the next.
	DeadChains []int
	// DeadShards lists gateway shards (indices into Config.Shards, or
	// 0 for the default Frontend) that failed their round-begin or
	// round-finish call: their users contributed nothing (begin) or
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

// roundParams is an immutable per-round snapshot of every chain's
// public parameters for rounds ρ and ρ+1. Build workers read it
// without any lock, and it saves each of the M·ℓ·2 per-message
// parameter lookups from reassembling key slices. Dead chains — those
// that failed to announce — carry zero parameters and are refused by
// ChainParams.
type roundParams struct {
	rho  uint64
	cur  []mix.Params
	next []mix.Params
	dead map[int]bool
}

// newRoundParams assembles a snapshot from its wire representation.
// Every key the shard's users will exponentiate gets a fixed-key table
// (a no-op for parameters that came from an in-process mix.Chain,
// which carry theirs already); a remote shard, whose parameters arrive
// as bare points every round, keeps the tables of prev, the snapshot
// being replaced, for keys that did not change — round rho's aggregate
// was prev's next, and mix keys live for the epoch. The input slices
// are shared between in-process shards and are not written.
func newRoundParams(prev *roundParams, rho uint64, cur, next []mix.Params, dead []int) *roundParams {
	p := &roundParams{rho: rho, cur: make([]mix.Params, len(cur)), next: make([]mix.Params, len(next))}
	for c := range cur {
		var old mix.Params
		if prev != nil {
			old, _ = prev.ChainParams(c, rho) // no such chain or round: nothing to keep
		}
		p.cur[c] = cur[c].Precomputed(old)
	}
	for c := range next {
		var sameEpoch mix.Params
		if c < len(p.cur) {
			sameEpoch = p.cur[c]
		}
		p.next[c] = next[c].Precomputed(sameEpoch)
	}
	if len(dead) > 0 {
		p.dead = make(map[int]bool, len(dead))
		for _, c := range dead {
			p.dead[c] = true
		}
	}
	return p
}

// deadList returns the dead-chain set as a sorted slice.
func (p *roundParams) deadList() []int {
	if len(p.dead) == 0 {
		return nil
	}
	out := make([]int, 0, len(p.dead))
	for c := range p.dead {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// ChainParams implements client.ParamsSource.
func (p *roundParams) ChainParams(chain int, round uint64) (mix.Params, error) {
	if chain < 0 || chain >= len(p.cur) {
		return mix.Params{}, fmt.Errorf("core: no chain %d", chain)
	}
	if p.dead[chain] {
		return mix.Params{}, fmt.Errorf("core: chain %d is dead for round %d", chain, p.rho)
	}
	switch round {
	case p.rho:
		return p.cur[chain], nil
	case p.rho + 1:
		return p.next[chain], nil
	}
	return mix.Params{}, fmt.Errorf("core: no parameter snapshot for round %d", round)
}

// snapshotParams captures every live chain's parameters for rounds
// rho and rho+1 (covers are built for the next round, §5.3.3). Dead
// chains — those that failed to announce — keep zero parameters; the
// build stage strands their users instead of reading them.
func snapshotParams(chains []*mix.Chain, rho uint64, dead map[int]bool) (*roundParams, error) {
	p := &roundParams{
		rho:  rho,
		cur:  make([]mix.Params, len(chains)),
		next: make([]mix.Params, len(chains)),
		dead: dead,
	}
	for c, chain := range chains {
		if dead[c] {
			continue
		}
		var err error
		if p.cur[c], err = chain.ParamsFor(rho); err != nil {
			return nil, fmt.Errorf("core: snapshotting chain %d: %w", c, err)
		}
		if p.next[c], err = chain.ParamsFor(rho + 1); err != nil {
			return nil, fmt.Errorf("core: snapshotting chain %d: %w", c, err)
		}
	}
	return p, nil
}

// preparedRound is the output of a round's preparation half: keys
// announced, parameters snapshotted, every shard's users built and
// the per-chain batches merged — everything up to (but not including)
// the mix. RunRound prepares and executes back to back; with
// Config.PipelineDepth ≥ 2 the next round's preparation runs while
// the current round mixes, and the prepared state is re-validated
// before execution (round number, epoch, convicted submitters).
type preparedRound struct {
	rho   uint64
	epoch uint64
	topo  *topology.Topology
	// chains is the topology snapshot the round was prepared against;
	// execution must run over the same snapshot.
	chains []*mix.Chain
	report *RoundReport
	// dead marks chains that failed to announce; deadShards marks
	// gateway shards that failed their round-begin call.
	dead       map[int]bool
	deadShards map[int]bool
	batches    []ChainBatch
	// skipped are users stranded at build time (a dead chain among
	// their ℓ chains).
	skipped []string
	// injected holds the fault-injection submissions consumed by this
	// preparation, so a discarded preparation can return them to the
	// queue.
	injected map[int][]onion.Submission
	// trace is the round's span tree, started at preparation so a
	// pipelined prebuild's announce/build phases land in the round
	// they belong to. Discarded preparations drop it unfinished.
	trace *obs.RoundTrace
}

// dropSubmitters filters every batch entry whose submitter is in the
// convicted set. A pipelined preparation assembles its batches before
// the overlapping round's blame verdicts land, and a removed user's
// traffic must never run (§6.4).
func (p *preparedRound) dropSubmitters(convicted []string) {
	if len(convicted) == 0 {
		return
	}
	bad := make(map[string]bool, len(convicted))
	for _, who := range convicted {
		bad[who] = true
	}
	for c := range p.batches {
		b := &p.batches[c]
		subs, submitters := b.Subs[:0], b.Submitters[:0]
		for i, who := range b.Submitters {
			if bad[who] {
				continue
			}
			subs = append(subs, b.Subs[i])
			submitters = append(submitters, who)
		}
		b.Subs, b.Submitters = subs, submitters
	}
}

// maybeReform performs epoch recovery if evictions are pending: expel
// the servers blamed since the last round and re-form chains over the
// survivors (halt → blame → evict → re-form → resume). Callers hold
// runMu.
func (n *Network) maybeReform() (reformed bool, evicted []int, err error) {
	if !n.cfg.Recover {
		return false, nil, nil
	}
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

// pipelineDepth normalises Config.PipelineDepth: 1 is serial, 2 the
// maximum overlap (see the Config field).
func (n *Network) pipelineDepth() int {
	d := n.cfg.PipelineDepth
	if d < 1 {
		return 1
	}
	if d > 2 {
		return 2
	}
	return d
}

// restoreInjected returns consumed fault-injection submissions to the
// front of the queue (a preparation that will not execute).
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

// discardPrepared rolls back a prepared round that will not execute:
// the live shards' submission windows reopen (external users resubmit
// for the retried or re-formed round) and injected submissions return
// to the queue. In-process users' builds are cached per round
// (client.User.BuildRound is idempotent), so their queued message
// bodies survive the discard.
func (n *Network) discardPrepared(p *preparedRound) {
	for i, sh := range n.shards {
		if !p.deadShards[i] {
			sh.AbortRound(p.rho)
		}
	}
	n.restoreInjected(p.injected)
}

// prepareRound runs the preparation half of round rho: announce the
// keys the round needs, snapshot the live chains' parameters, fan the
// build out to every gateway shard and merge the per-chain batches.
// It advances no state other than consuming the injected-submission
// queue and closing the shards' submission windows — both rolled back
// by discardPrepared if the preparation is abandoned — so it is safe
// to run while the previous round is still mixing.
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
		dead:       make(map[int]bool),
		deadShards: make(map[int]bool),
		injected:   injected,
		trace:      obs.DefaultTracer.StartRound(rho, epoch),
	}

	// Re-announce the rounds this execution needs. BeginRound is
	// idempotent, so on the happy path this is a map hit per chain;
	// after a failed trailing announce (a remote hop that blipped
	// last round and recovered) it is the retry that un-wedges the
	// deployment. A chain that still cannot announce is dead for the
	// round: it is excluded from the parameter snapshot, the shards
	// strand its users, and — when the failure is attributable to a
	// position — the server behind it is queued for eviction.
	noteDead := func(errs []error) {
		for c, err := range errs {
			if err == nil {
				continue
			}
			if !p.dead[c] {
				p.dead[c] = true
				p.report.DeadChains = append(p.report.DeadChains, c)
			}
			n.attributeHopError(topo, err)
		}
	}
	announcePhase := p.trace.StartPhase("announce")
	noteDead(announceEach(chains, rho))
	noteDead(announceEach(chains, rho+1))
	announcePhase.End()

	// Stage 1: build, distributed. Push the parameter snapshot to
	// every gateway shard; each builds its users' onions over its
	// worker pool, folds in collected external traffic and closes its
	// submission window for the round. A shard erroring here is dead
	// for the round: only its users are missing from the batches.
	snap, err := snapshotParams(chains, rho, p.dead)
	if err != nil {
		n.restoreInjected(injected)
		return nil, err
	}
	br := &BeginRound{
		Round:     rho,
		Epoch:     epoch,
		NumChains: len(chains),
		Cur:       snap.cur,
		Next:      snap.next,
		Dead:      snap.deadList(),
		Pipelined: n.pipelineDepth() > 1,
	}
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
// With Config.Recover set, RunRound additionally performs epoch
// recovery: servers blamed by a previous round (a halted chain, a
// failed announce) are evicted and the chains re-formed over the
// survivors before this round executes, and chains that cannot
// announce this round's keys run dead — their users are stranded for
// the round (see StrandedError) rather than wedging the deployment.
// A gateway shard that fails its round-begin call is dead for the
// round: it contributes no traffic and the round proceeds without it.
//
// With Config.PipelineDepth ≥ 2, round ρ+1's preparation — key
// announcement, parameter snapshot, onion building — overlaps round
// ρ's mix. The prepared round is re-validated before it executes:
// a round retry or an epoch re-formation discards it (submission
// windows reopen, injected submissions return to the queue, and the
// per-round build cache in client.User keeps queued bodies safe), and
// submitters convicted by the overlapped round are filtered from its
// batches.
func (n *Network) RunRound() (*RoundReport, error) {
	n.runMu.Lock()
	defer n.runMu.Unlock()

	reformed, evicted, err := n.maybeReform()
	if err != nil {
		return nil, err
	}

	n.mu.Lock()
	rho, epoch := n.round, n.epoch
	n.mu.Unlock()

	// Adopt the round prepared during the previous execution if it is
	// still valid: the same round (the previous round may have failed
	// and be up for retry under its old number) in the same epoch (a
	// re-formation invalidates every prebuilt onion).
	p := n.pending
	n.pending = nil
	if p != nil && (reformed || p.rho != rho || p.epoch != epoch) {
		n.discardPrepared(p)
		p = nil
	}
	if p == nil {
		if p, err = n.prepareRound(rho); err != nil {
			return nil, err
		}
	}
	p.report.Reformed = reformed
	p.report.Evicted = evicted

	// Overlap the next round's preparation with this round's mix. The
	// round-ρ+1 and ρ+2 key announcements and the shards' round-ρ+1
	// builds run while round ρ's chains mix; chain key state is
	// guarded for exactly this concurrency (mix.Chain.keyMu,
	// mix.Server.innerMu, the three-round inner-key retention window).
	type prepOutcome struct {
		p   *preparedRound
		err error
	}
	var nextCh chan prepOutcome
	if n.pipelineDepth() > 1 {
		nextCh = make(chan prepOutcome, 1)
		go func() {
			np, err := n.prepareRound(rho + 1)
			nextCh <- prepOutcome{p: np, err: err}
		}()
	}

	report, execErr := n.executeRound(p)

	if nextCh != nil {
		out := <-nextCh
		switch {
		case out.err != nil:
			// Preparation failed (every shard dead, snapshot failure);
			// its side effects are already rolled back. The next
			// RunRound prepares afresh and reports the condition.
		case report == nil:
			// This round failed outright and will be retried under the
			// same number; the prebuild is for the wrong round.
			n.discardPrepared(out.p)
		default:
			out.p.dropSubmitters(report.BlamedUsers)
			n.pending = out.p
		}
	}
	// A pending eviction means the next RunRound re-forms chains
	// first, invalidating every prebuilt onion; discard now so the
	// shards' submission windows reopen immediately.
	if n.pending != nil && n.cfg.Recover {
		n.mu.Lock()
		evictPending := len(n.pendingEvict) > 0
		n.mu.Unlock()
		if evictPending {
			n.discardPrepared(n.pending)
			n.pending = nil
		}
	}
	return report, execErr
}

// executeRound runs the mix, aggregation and delivery halves of a
// prepared round and advances the round counter. On an orchestration
// failure the shards' submission windows are rolled back and the
// round stays current, so the caller can retry it.
func (n *Network) executeRound(p *preparedRound) (*RoundReport, error) {
	rho, epoch := p.rho, p.epoch
	topo, chains := p.topo, p.chains
	report := p.report
	dead, deadShards := p.dead, p.deadShards
	batches, skipped := p.batches, p.skipped

	// abortShards rolls the live shards' submission windows back if
	// the round fails after collection: the round will be retried, so
	// external users must be able to resubmit for it (their collected
	// traffic was consumed by the failed attempt).
	abortShards := func() {
		for i, sh := range n.shards {
			if !deadShards[i] {
				sh.AbortRound(rho)
			}
		}
	}

	// The failed-server set is read at execution time, not at
	// preparation time, so a crash reported while a pipelined
	// preparation was in flight still fails the chains of the round
	// being executed — the same view a serial round would have had.
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
		if failedChains[c] || dead[c] {
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
		if !failedChains[c] && !dead[c] && outcomes[c].err != nil {
			abortShards()
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
			if failedChains[c] || dead[c] || outcomes[c].res == nil {
				continue
			}
			if v := outcomes[c].res.VerifyDur; v > maxVerify {
				maxVerify = v
			}
		}
		vp := p.trace.AddPhase("verify", mixStart, maxVerify)
		mp := p.trace.AddPhase("mix", mixStart, mixWall)
		for c := range chains {
			if failedChains[c] || dead[c] || outcomes[c].res == nil {
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
		if failedChains[c] || dead[c] {
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
			if n.cfg.Recover && s >= 0 && s < len(topo.Chains[c]) {
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
	deadNext := make(map[int]bool, len(dead))
	for c := range dead {
		deadNext[c] = true
	}
	for c, e := range trailing {
		if e != nil {
			deadNext[c] = true
			n.attributeHopError(topo, e)
		}
	}
	finishSnap, snapErr := snapshotParams(chains, rho+1, deadNext)
	if snapErr != nil {
		// A chain with announced keys that cannot be snapshotted is as
		// dead as one that failed to announce; ship the finish without
		// parameters rather than losing the deliveries.
		finishSnap = &roundParams{rho: rho + 1}
	}
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
				continue // malformed; the monolith dropped these at the cluster
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
				Epoch:     epoch,
				NumChains: len(chains),
				Cur:       finishSnap.cur,
				Next:      finishSnap.next,
				Dead:      finishSnap.deadList(),
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
