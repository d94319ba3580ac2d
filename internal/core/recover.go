package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/chainsel"
	"repro/internal/mix"
	"repro/internal/topology"
)

// Epoch recovery. A halted chain names the position
// that misbehaved (§6.4); a dead chain names the position that could
// not be reached. Either way RunRound queues the server identity
// behind the position in pendingEvict, and the next RunRound — before
// executing its round — expels those servers and re-forms every chain
// over the survivors: a fresh topology from the public seed (extended
// with the epoch number so the draw differs), a migrated
// chain-selection plan, re-keyed chains, re-announced round keys, and
// every in-process user rebalanced onto the new plan.
//
// Two states deliberately do NOT survive a re-formation:
//
//   - The bank: every user's banked submissions and covers
//     (external.go). They were built against the old chains' keys.
//     Their submission proofs would still verify against the old
//     parameters, but decryption under the new chains would fail, and
//     the blame protocol would convict the — honest — user. The bank
//     is emptied; in-process users rebuild in the round that re-forms.
//     A remote user whose messages for that round were dropped is
//     listed in its ShardBuild.Skipped (Frontend.dropped), and the
//     round strands her. The round's outcome names the new epoch, so
//     Settle restores her dropped body (client.User), and she sends it
//     again once her client has moved to the new plan: rpc.MultiClient's
//     Play, every remote driver's round loop, sees the new epoch in
//     Status, re-derives the plan from its chain count and calls
//     Rebalance (rpc.Client drops the parameters it cached under the
//     old epoch there).
//   - The parameters the bank's traffic was built from. Until the new
//     epoch's snapshot reaches the shard it serves no parameters and
//     its window for the upcoming round is closed: a submission built
//     before the re-formation, and landing after it, is refused
//     rather than mixed on the new chains. The watermark record that
//     logs the new epoch carries the closed window, so a replayed
//     shard refuses it too.

// hopErrorServer translates a *mix.HopError in err's chain into the
// server identity occupying the failing position under topo.
func hopErrorServer(topo *topology.Topology, err error) (int, bool) {
	var he *mix.HopError
	if !errors.As(err, &he) {
		return 0, false
	}
	if he.Chain < 0 || he.Chain >= len(topo.Chains) {
		return 0, false
	}
	members := topo.Chains[he.Chain]
	if he.Position < 0 || he.Position >= len(members) {
		return 0, false
	}
	return members[he.Position], true
}

// attributeHopError queues the server behind a hop failure for
// eviction at the next round's re-formation. Failures that do not
// carry position attribution are ignored here — there is nothing to
// evict.
func (n *Network) attributeHopError(topo *topology.Topology, err error) {
	if s, ok := hopErrorServer(topo, err); ok {
		n.mu.Lock()
		n.pendingEvict[s] = true
		n.mu.Unlock()
	}
}

// reform expels every pending-evict server and re-forms the chains
// over the survivors, retrying with further evictions if survivors
// turn out to be unreachable during re-keying or announcement — every
// server an attempt found failing is evicted before the next attempt.
// Returns the servers evicted (nil if every pending server was
// already gone and nothing needed to change). Called from RunRound
// under runMu.
func (n *Network) reform() ([]int, error) {
	n.mu.Lock()
	pend := n.pendingEvict
	n.pendingEvict = make(map[int]bool)
	curTopo := n.topo
	epoch := n.epoch
	rho := n.round
	n.mu.Unlock()

	var evicted []int
	for s := range pend {
		if n.evictor.Evict(s) {
			evicted = append(evicted, s)
		}
	}
	if len(evicted) == 0 {
		return nil, nil
	}
	defer func() { sort.Ints(evicted) }() // every return below hands evicted back

	// Each attempt draws a fresh epoch number: remote hops refuse a
	// second, conflicting binding in the same epoch, so a failed
	// attempt must not reuse its epoch for the retry.
	newEpoch := epoch
	for attempt := 0; attempt <= len(curTopo.Servers); attempt++ {
		newEpoch++
		survivors := n.evictor.Survivors(curTopo.Servers)
		if len(survivors) == 0 {
			return evicted, errors.New("core: every server evicted; cannot re-form chains")
		}
		numChains := n.cfg.NumChains
		if numChains == 0 || numChains > len(survivors) {
			numChains = len(survivors)
		}
		k := curTopo.ChainLength
		if k > len(survivors) {
			k = len(survivors)
		}
		// Extend the public seed with the epoch so the member draw
		// differs from the founding topology while staying
		// reproducible from public information (§5.2.1).
		seed := append(append([]byte{}, n.cfg.Seed...), []byte("/epoch/"+strconv.FormatUint(newEpoch, 10))...)
		topo2, err := topology.Build(topology.Config{
			Servers:             survivors,
			NumChains:           numChains,
			ChainLengthOverride: k,
			Seed:                seed,
		})
		if err != nil {
			return evicted, fmt.Errorf("core: re-forming topology for epoch %d: %w", newEpoch, err)
		}
		plan2, err := chainsel.NewPlan(len(topo2.Chains))
		if err != nil {
			return evicted, fmt.Errorf("core: re-forming chain-selection plan: %w", err)
		}

		// Re-key every chain, then announce the upcoming rounds. Every
		// hop failure at either step evicts the server behind it, and
		// the formation restarts over the remaining survivors; an
		// unattributable failure ends it, and evictAll returns it.
		evictAll := func(errs []error) (failed bool, err error) {
			for _, e := range errs {
				if e == nil {
					continue
				}
				s, ok := hopErrorServer(topo2, e)
				if !ok {
					return true, e
				}
				if n.evictor.Evict(s) {
					evicted = append(evicted, s)
				}
				failed = true
			}
			return failed, nil
		}
		chains2, errs := n.keyChains(newEpoch, topo2)
		failed, err := evictAll(errs)
		if err != nil {
			return evicted, fmt.Errorf("core: re-forming epoch %d: %w", newEpoch, err)
		}
		if failed {
			continue
		}
		failed, err = evictAll(append(announceEach(chains2, rho), announceEach(chains2, rho+1)...))
		if err != nil {
			return evicted, fmt.Errorf("core: announcing epoch %d: %w", newEpoch, err)
		}
		if failed {
			continue
		}

		// Commit: swap the topology state first, so Plan and the
		// transport Status see the new plan, then broadcast the new
		// epoch to every gateway shard — each rebalances its own users
		// and discards its bank and the parameter snapshot of the old
		// epoch (see the comment at the top of this file for why
		// keeping them would get honest users blamed). A shard
		// unreachable for the broadcast is tolerated: BeginRound's
		// snapshot carries the epoch too and the shard adopts it
		// there, since the plan is deterministic in the chain count.
		n.mu.Lock()
		n.plan, n.topo, n.chains = plan2, topo2, chains2
		n.epoch = newEpoch
		n.mu.Unlock()
		for _, sh := range n.shards {
			_ = sh.Rebalance(newEpoch, len(chains2))
		}
		return evicted, nil
	}
	return evicted, errors.New("core: chain re-formation did not converge")
}
