// Package topology forms the mix chains of an XRD network (§5.2.1).
//
// Servers are sampled into n chains of k servers each from a public
// randomness seed, where k is chosen so that the probability that any
// chain consists only of malicious servers is negligible: with a
// fraction f of malicious servers, a chain of length k is all-bad
// with probability f^k, so n chains are all safe except with
// probability at most n·f^k (union bound), and k is the smallest
// integer with n·f^k ≤ 2^−λ.
//
// The paper sets the number of chains n equal to the number of
// servers N, so each server appears in k chains on average, and
// "staggers" each server's position across its chains to keep every
// server busy in every phase of a round (§5.2.1); staggering has no
// security impact because anytrust only needs one honest member
// anywhere in the chain.
//
// The paper sources the seed from a public randomness beacon
// (Bitcoin/drand-style [7,43]); here the seed is an input, and
// everything derived from it is deterministic and publicly
// recomputable, which is all the beacon provides.
package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// DefaultSecurityBits is λ in n·f^k ≤ 2^−λ, matching the paper's
// 2^−64 target (§5.2.1); Build derives k for it.
const DefaultSecurityBits = 64

// ChainLength returns the smallest k such that n·f^k ≤ 2^−λ. It
// panics for f outside (0, 1) or n < 1; configurations are validated
// at network assembly.
//
// For f=0.2, λ=64: k=31 at n=100 and k=33 at n=6000. The paper quotes
// k=32 for n<6000; use the explicit override in Config for
// exact-paper comparisons.
func ChainLength(f float64, n int, securityBits int) int {
	if f <= 0 || f >= 1 || n < 1 {
		panic(fmt.Sprintf("topology: invalid chain length parameters f=%v n=%d", f, n))
	}
	// k > (λ·ln2 + ln n) / (−ln f)
	k := (float64(securityBits)*math.Ln2 + math.Log(float64(n))) / (-math.Log(f))
	ki := int(math.Ceil(k))
	if math.Ceil(k) == k {
		ki++ // strict inequality
	}
	if ki < 1 {
		ki = 1
	}
	return ki
}

// CompromiseProbability returns the union-bound probability n·f^k
// that at least one chain is entirely malicious.
func CompromiseProbability(f float64, n, k int) float64 {
	return float64(n) * math.Pow(f, float64(k))
}

// Config describes how to build a topology.
type Config struct {
	// NumServers is N, the number of mix servers. Ignored when
	// Servers is set.
	NumServers int
	// Servers, if non-nil, lists the explicit server identities to
	// sample chains from, in place of the contiguous 0..NumServers-1.
	// Epoch re-formation after evictions uses this: the surviving
	// server set keeps its original ids (which name hop transports)
	// even though it is no longer contiguous.
	Servers []int
	// NumChains is n; the paper sets n = N (§5.2.1). Zero means N.
	NumChains int
	// F is the assumed fraction of malicious servers (paper default
	// 0.2).
	F float64
	// ChainLengthOverride, if nonzero, fixes k instead of deriving it
	// (the paper's evaluation uses k=32 for f=0.2).
	ChainLengthOverride int
	// Seed is the public randomness used to sample chains.
	Seed []byte
}

// Topology is the assignment of servers to chain positions.
type Topology struct {
	// NumServers is N.
	NumServers int
	// ChainLength is k.
	ChainLength int
	// Servers lists the participating server ids; contiguous
	// 0..N-1 for a fresh deployment, a sparse subset after evictions.
	Servers []int
	// Chains[c][p] is the server occupying position p of chain c.
	Chains [][]int
}

// prg is a deterministic byte stream: SHA-256 in counter mode over the
// seed. It stands in for the public randomness beacon.
type prg struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newPRG(seed []byte, domain string) *prg {
	h := sha256.New()
	h.Write([]byte(domain))
	h.Write(seed)
	var s [32]byte
	copy(s[:], h.Sum(nil))
	return &prg{seed: s}
}

func (p *prg) uint64() uint64 {
	if len(p.buf) < 8 {
		var block [8 + 32]byte
		binary.BigEndian.PutUint64(block[:8], p.counter)
		copy(block[8:], p.seed[:])
		d := sha256.Sum256(block[:])
		p.counter++
		p.buf = append(p.buf, d[:]...)
	}
	v := binary.BigEndian.Uint64(p.buf[:8])
	p.buf = p.buf[8:]
	return v
}

// intn returns a uniform value in [0, n) by rejection sampling.
func (p *prg) intn(n int) int {
	max := uint64(n)
	limit := (math.MaxUint64 / max) * max
	for {
		v := p.uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Build samples the topology from cfg, its positions staggered
// (§5.2.1). All participants given the same cfg compute the same
// topology.
func Build(cfg Config) (*Topology, error) { return build(cfg, true) }

// build is Build, with the staggering optional for the tests that
// measure what it buys.
func build(cfg Config, stagger bool) (*Topology, error) {
	servers := cfg.Servers
	if len(servers) == 0 {
		if cfg.NumServers < 1 {
			return nil, fmt.Errorf("topology: need at least one server, got %d", cfg.NumServers)
		}
		servers = make([]int, cfg.NumServers)
		for i := range servers {
			servers[i] = i
		}
	}
	N := len(servers)
	n := cfg.NumChains
	if n == 0 {
		n = N
	}
	k := cfg.ChainLengthOverride
	if k == 0 {
		if cfg.F <= 0 || cfg.F >= 1 {
			return nil, fmt.Errorf("topology: fraction of malicious servers f=%v outside (0,1)", cfg.F)
		}
		k = ChainLength(cfg.F, n, DefaultSecurityBits)
	}
	if k > N {
		// Chains sample distinct servers; with very few servers the
		// anytrust target is unreachable and the caller must lower λ
		// or raise N. We cap k at N and report it so small test
		// deployments still work explicitly via the override.
		return nil, fmt.Errorf("topology: chain length k=%d exceeds server count N=%d; use ChainLengthOverride for small deployments", k, N)
	}

	// Sample and stagger in dense index space [0, N), then translate
	// indices to server ids: id sets with holes (post-eviction
	// epochs) sample with the exact same distribution as fresh ones.
	r := newPRG(cfg.Seed, "xrd/topology/v1")
	chains := make([][]int, n)
	for c := range chains {
		chains[c] = sampleDistinct(r, N, k)
	}
	t := &Topology{NumServers: N, ChainLength: k, Servers: append([]int(nil), servers...), Chains: chains}
	if stagger {
		t.stagger()
	}
	for _, members := range t.Chains {
		for p, idx := range members {
			members[p] = servers[idx]
		}
	}
	return t, nil
}

// sampleDistinct draws k distinct values from [0, n) via a partial
// Fisher-Yates over a virtual array.
func sampleDistinct(r *prg, n, k int) []int {
	swapped := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.intn(n-i)
		vi, ok := swapped[j]
		if !ok {
			vi = j
		}
		cur, ok := swapped[i]
		if !ok {
			cur = i
		}
		out[i] = vi
		swapped[j] = cur
	}
	return out
}

// stagger reorders each chain's members so that a server appearing in
// many chains occupies different positions in them, minimising idle
// time (§5.2.1). Ordering within a chain has no security impact.
// Greedy assignment: fill each position with the member that has used
// that position least so far. Runs while Chains still holds dense
// indices in [0, NumServers), before Build translates them to ids.
func (t *Topology) stagger() {
	k := t.ChainLength
	// positionUse[s][p] counts how often server s already holds
	// position p.
	positionUse := make([][]int, t.NumServers)
	for s := range positionUse {
		positionUse[s] = make([]int, k)
	}
	for c, members := range t.Chains {
		remaining := append([]int(nil), members...)
		ordered := make([]int, 0, k)
		for p := 0; p < k; p++ {
			bestIdx := 0
			for i := 1; i < len(remaining); i++ {
				if positionUse[remaining[i]][p] < positionUse[remaining[bestIdx]][p] {
					bestIdx = i
				}
			}
			s := remaining[bestIdx]
			positionUse[s][p]++
			ordered = append(ordered, s)
			remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		}
		t.Chains[c] = ordered
	}
}

// ChainsOfServer returns the (chain, position) slots server s holds.
func (t *Topology) ChainsOfServer(s int) [][2]int {
	var out [][2]int
	for c, members := range t.Chains {
		for p, m := range members {
			if m == s {
				out = append(out, [2]int{c, p})
			}
		}
	}
	return out
}

// PositionSpread returns, for server s, the number of distinct
// positions it occupies divided by the number of chains it belongs to
// (1.0 = perfectly staggered, capped by k).
func (t *Topology) PositionSpread(s int) float64 {
	slots := t.ChainsOfServer(s)
	if len(slots) == 0 {
		return 1
	}
	seen := make(map[int]bool)
	for _, sl := range slots {
		seen[sl[1]] = true
	}
	denom := len(slots)
	if denom > t.ChainLength {
		denom = t.ChainLength
	}
	return float64(len(seen)) / float64(denom)
}

// FailedChains returns the indices of chains containing at least one
// of the failed servers. Only these chains' conversations are
// affected by the failure (§5.2.3).
func (t *Topology) FailedChains(failed map[int]bool) []int {
	var out []int
	for c, members := range t.Chains {
		for _, m := range members {
			if failed[m] {
				out = append(out, c)
				break
			}
		}
	}
	return out
}
