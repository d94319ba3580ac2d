// Package churn simulates the availability experiment of §8.3
// (Figure 8): the fraction of conversations that fail in a round when
// servers crash at a given churn rate.
//
// A conversation between two users rides exactly one chain (their
// meeting chain, §5.3.2); it fails for the round iff that chain
// contains at least one crashed server. The simulation samples server
// crash sets and measures the failure fraction over the actual
// topology and chain-selection plan, which the closed form
// 1−(1−c)^k (model.ConversationFailureRate) approximates.
package churn

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/chainsel"
	"repro/internal/topology"
)

// Evictor tracks servers expelled from a deployment across epochs.
// When a chain halts with blame (§6.4), the orchestrator evicts the
// blamed server here and re-forms chains over the survivors; the
// evicted set only grows, so a byzantine server cannot rejoin by
// surviving one re-formation.
type Evictor struct {
	mu      sync.Mutex
	evicted map[int]bool
}

// NewEvictor returns an empty evictor.
func NewEvictor() *Evictor {
	return &Evictor{evicted: make(map[int]bool)}
}

// Evict marks a server as expelled. It reports whether the server was
// newly evicted (false = already gone, the duplicate blame of a
// replayed round).
func (e *Evictor) Evict(server int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.evicted[server] {
		return false
	}
	e.evicted[server] = true
	return true
}

// Survivors filters the evicted servers out of a server id list,
// preserving order: the input to the next epoch's topology build.
func (e *Evictor) Survivors(servers []int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(servers))
	for _, s := range servers {
		if !e.evicted[s] {
			out = append(out, s)
		}
	}
	return out
}

// Config parameterises a churn simulation.
type Config struct {
	// NumServers is N (chains n = N).
	NumServers int
	// F is the assumed malicious fraction used only for sizing k.
	F float64
	// ChainLengthOverride fixes k directly (0 = derive from F).
	ChainLengthOverride int
	// ChurnRate is the per-round probability that a server fails.
	ChurnRate float64
	// Pairs is the number of conversing user pairs to sample
	// (paper: all of 2M users in conversations; sampling pairs
	// estimates the same fraction).
	Pairs int
	// Trials is the number of independent crash sets to average over.
	Trials int
	// Seed makes the simulation reproducible.
	Seed int64
}

// Result is the outcome of a churn simulation.
type Result struct {
	// FailureRate is the mean fraction of sampled conversations whose
	// meeting chain contained a crashed server.
	FailureRate float64
	// ChainFailureRate is the mean fraction of chains with at least
	// one crashed server.
	ChainFailureRate float64
	// ChainLength is the k used.
	ChainLength int
}

// Simulate runs the Monte-Carlo experiment over a topology it builds
// itself from cfg (the paper's Figure 8 setting, fresh contiguous
// servers).
func Simulate(cfg Config) (*Result, error) {
	topo, err := topology.Build(topology.Config{
		NumServers:          cfg.NumServers,
		F:                   cfg.F,
		ChainLengthOverride: cfg.ChainLengthOverride,
		Seed:                []byte(fmt.Sprintf("churn-sim-%d", cfg.Seed)),
	})
	if err != nil {
		return nil, fmt.Errorf("churn: building topology: %w", err)
	}
	plan, err := chainsel.NewPlan(len(topo.Chains))
	if err != nil {
		return nil, fmt.Errorf("churn: building plan: %w", err)
	}
	return SimulateOn(topo, plan, cfg)
}

// SimulateOn runs the experiment over an existing topology and chain
// selection plan — the deployed hop-transport topology rather than a
// synthetic one. Crash sampling iterates the topology's actual server
// id set, so it stays correct for the sparse ids of a post-eviction
// epoch.
func SimulateOn(topo *topology.Topology, plan *chainsel.Plan, cfg Config) (*Result, error) {
	if cfg.Pairs <= 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("churn: need positive Pairs and Trials, got %d/%d", cfg.Pairs, cfg.Trials)
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate > 1 {
		return nil, fmt.Errorf("churn: churn rate %v outside [0,1]", cfg.ChurnRate)
	}
	if plan.NumChains != len(topo.Chains) {
		return nil, fmt.Errorf("churn: plan covers %d chains, topology has %d", plan.NumChains, len(topo.Chains))
	}
	servers := topo.Servers
	if len(servers) == 0 {
		// Topologies predating the explicit id set are contiguous.
		servers = make([]int, topo.NumServers)
		for i := range servers {
			servers[i] = i
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-sample the conversing pairs' meeting chains. Group
	// membership is uniform (hash of public key), so sampling groups
	// uniformly is faithful.
	meeting := make([]int, cfg.Pairs)
	for i := range meeting {
		a := rng.Intn(plan.NumGroups())
		b := rng.Intn(plan.NumGroups())
		meeting[i] = plan.MeetingChain(a, b)
	}

	var failSum, chainFailSum float64
	failedChain := make([]bool, len(topo.Chains))
	for t := 0; t < cfg.Trials; t++ {
		// Sample the crash set over the actual server ids.
		crashed := make(map[int]bool)
		for _, s := range servers {
			if rng.Float64() < cfg.ChurnRate {
				crashed[s] = true
			}
		}
		for i := range failedChain {
			failedChain[i] = false
		}
		nChainFail := 0
		for _, c := range topo.FailedChains(crashed) {
			failedChain[c] = true
			nChainFail++
		}
		nFail := 0
		for _, m := range meeting {
			if failedChain[m] {
				nFail++
			}
		}
		failSum += float64(nFail) / float64(cfg.Pairs)
		chainFailSum += float64(nChainFail) / float64(len(topo.Chains))
	}
	return &Result{
		FailureRate:      failSum / float64(cfg.Trials),
		ChainFailureRate: chainFailSum / float64(cfg.Trials),
		ChainLength:      topo.ChainLength,
	}, nil
}

// Sweep runs Simulate over a set of churn rates, producing one
// Figure 8 series.
func Sweep(base Config, rates []float64) ([]Result, error) {
	out := make([]Result, 0, len(rates))
	for i, r := range rates {
		cfg := base
		cfg.ChurnRate = r
		cfg.Seed = base.Seed + int64(i)*7919
		res, err := Simulate(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, *res)
	}
	return out, nil
}
