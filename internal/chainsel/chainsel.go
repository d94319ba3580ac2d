// Package chainsel implements XRD's chain selection algorithm
// (§5.3.1): the publicly computable assignment of users to groups and
// of groups to sets of mix chains such that every pair of users
// intersects on at least one chain.
//
// With n chains the algorithm uses ℓ = ⌈√(2n+0.25) − 0.5⌉ ≈ ⌈√(2n)⌉
// chains per user, a √2-approximation of the ℓ ≥ √n lower bound
// (§4.2). Users are placed into ℓ+1 groups by hashing their public
// key; group i+1's chain set is built inductively from groups 1..i so
// that C_i ∩ C_j ∋ C_i[j] for all i < j.
//
// The construction addresses (ℓ²+ℓ)/2 chain indices. When that
// triangular number exceeds n (n is not triangular), indices wrap
// modulo n, so a few chains carry slightly more load; the pairwise
// intersection guarantee is unaffected. Chain and group indices are
// 0-based throughout this codebase (the paper is 1-based).
package chainsel

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Plan is the full chain-selection plan for a network of n chains. It
// is deterministic in n: every participant computes the same plan.
type Plan struct {
	// NumChains is n, the number of mix chains in the network.
	NumChains int
	// L is ℓ, the number of chains each user selects.
	L int
	// sets[g] is the ordered multiset of chain indices group g uses.
	sets [][]int
}

// L returns ℓ = ⌈√(2n+0.25) − 0.5⌉, the per-user chain count for a
// network of n chains (§5.3.1).
func L(n int) int {
	if n <= 0 {
		return 0
	}
	l := int(math.Ceil(math.Sqrt(2*float64(n)+0.25) - 0.5))
	// Guard against floating point edge cases at exact triangular
	// numbers: ℓ is the smallest integer with ℓ(ℓ+1)/2 >= n.
	for l > 1 && (l-1)*l/2 >= n {
		l--
	}
	for l*(l+1)/2 < n {
		l++
	}
	return l
}

// MaxChains bounds the chain count a plan is built for. The plan holds
// about 2n chain indices, and n reaches gateway shards over the network
// (shard.init/begin/rebalance, the status a client sizes its plan
// from), so an absurd count must be an error, not an allocation. The
// bound is orders of magnitude above any deployment — n is at most the
// number of servers, and the paper evaluates up to 2000.
const MaxChains = 1 << 20

// NewPlan computes the chain-selection plan for n chains. It returns
// an error for n < 1 or n > MaxChains.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n > MaxChains {
		return nil, fmt.Errorf("chainsel: chain count %d outside [1, %d]", n, MaxChains)
	}
	l := L(n)
	// Build the paper's 1-based construction, then wrap and shift to
	// 0-based indices.
	sets := make([][]int, l+1)
	sets[0] = make([]int, l)
	for j := 0; j < l; j++ {
		sets[0][j] = j + 1
	}
	for i := 1; i <= l; i++ {
		s := make([]int, 0, l)
		// C_{i+1} inherits the i-th entry of each earlier set...
		for a := 0; a < i; a++ {
			s = append(s, sets[a][i-1])
		}
		// ...and opens ℓ−i fresh chains after C_i's last entry.
		last := sets[i-1][l-1]
		for b := 1; b <= l-i; b++ {
			s = append(s, last+b)
		}
		sets[i] = s
	}
	for _, s := range sets {
		for j, v := range s {
			s[j] = (v - 1) % n
		}
	}
	return &Plan{NumChains: n, L: l, sets: sets}, nil
}

// NumGroups returns ℓ+1, the number of user groups.
func (p *Plan) NumGroups() int { return len(p.sets) }

// GroupOf assigns a user to a pseudo-random group from the hash of
// her public key (§5.3.1). The assignment is publicly computable by
// everyone, which correctness requires.
func GroupOf(publicKey []byte, numGroups int) int {
	h := sha256.Sum256(append([]byte("xrd/group-assignment/v1"), publicKey...))
	v := binary.BigEndian.Uint64(h[:8])
	return int(v % uint64(numGroups))
}

// ChainsForGroup returns the ordered multiset of chain indices that
// members of group g send to. The returned slice is shared; callers
// must not modify it.
func (p *Plan) ChainsForGroup(g int) []int {
	return p.sets[g]
}

// ChainsForUser returns the chains the holder of publicKey sends to.
func (p *Plan) ChainsForUser(publicKey []byte) []int {
	return p.ChainsForGroup(GroupOf(publicKey, p.NumGroups()))
}

// MeetingChain returns the chain on which members of groups a and b
// exchange conversation messages: the lowest-indexed chain in
// C_a ∩ C_b, per the deterministic tie-break of §5.3.2. Members of
// the same group meet on their lowest-indexed chain.
func (p *Plan) MeetingChain(a, b int) int {
	inA := make(map[int]bool, p.L)
	for _, c := range p.sets[a] {
		inA[c] = true
	}
	best := -1
	for _, c := range p.sets[b] {
		if inA[c] && (best == -1 || c < best) {
			best = c
		}
	}
	if best < 0 {
		// The construction guarantees intersection; reaching this
		// indicates internal corruption of the plan.
		panic(fmt.Sprintf("chainsel: groups %d and %d do not intersect", a, b))
	}
	return best
}

// MeetingChainForUsers returns the meeting chain for two users
// identified by their public keys.
func (p *Plan) MeetingChainForUsers(pkA, pkB []byte) int {
	ga := GroupOf(pkA, p.NumGroups())
	gb := GroupOf(pkB, p.NumGroups())
	return p.MeetingChain(ga, gb)
}
