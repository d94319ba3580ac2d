package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/trace"
)

// spec is one workload's fixed shape. Sizes are part of the workload's
// name: a run may scale how many rounds it times, never these.
type spec struct {
	Name string
	Why  string
	// Servers is N; NumChains defaults to N, so it is also the chain
	// count. K is the chain length.
	Servers, K int
	// Users is the active population; all are paired and queue one
	// seeded body per round.
	Users int
	// InProcess users live inside the gateway (Frontend.NewUser) and
	// are built by the round itself; otherwise the harness builds and
	// submits them before the round, outside the timed region.
	InProcess bool
	// ChurnSlices > 0 rotates one slice of 1/ChurnSlices of the users
	// offline each round (InProcess only).
	ChurnSlices int
	// Wire hosts every seam on loopback TLS with durable shards.
	Wire bool
	// Registered adds registered-only mailboxes (Wire only).
	Registered int
	// Inject adds four seeded malicious submissions per chain per round.
	Inject bool
}

var specs = []spec{
	{
		Name: "mix-k6", Servers: 8, K: 6, Users: 1000,
		Why: "server-side round (Fig. 4): 8 chains of 6, 1000 external users built outside the timed region; mix+group do the work",
	},
	{
		Name: "sim-build", Servers: 32, K: 2, Users: 1000, InProcess: true, ChurnSlices: 10,
		Why: "what xrd-sim runs: 32 short chains, 1000 in-process users with 10% churn; client/onion build inside the round dominates",
	},
	{
		Name: "wire-durable", Servers: 8, K: 6, Users: 1000, Wire: true, Registered: 50000,
		Why: "mix-k6's shape with every seam on loopback TLS and WAL-backed shards: the only one that runs rpc, store and fsync",
	},
	{
		Name: "blame", Servers: 8, K: 6, Users: 1000, Inject: true,
		Why: "mix-k6 plus 4 malicious submissions per chain per round (Fig. 7): MSM bisection, blame reveals, re-certification, re-mix",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to a size `go test` can afford; the shape
// (chains, seams, churn, injections) is unchanged.
func (s spec) smoke() spec {
	s.Users = 100
	if s.Registered > 0 {
		s.Registered = 1000
	}
	return s
}

// injection is one malicious submission of the blame workload: a
// broken knowledge proof, or a valid proof around a ciphertext that
// fails authentication at Layer.
type injection struct {
	InvalidProof bool
	Layer        int
}

// inputs is everything a run derives from --seed. User and server keys
// are not in here: they come from crypto/rand behind no public seam, so
// a seed fixes the workload's shape and plaintexts, not its wire bytes.
type inputs struct {
	seed  int64
	spec  spec
	Pairs [][2]int
	// Partner[i] is user i's conversation partner.
	Partner []int
	// churnOrder is the seeded user order the offline slices rotate
	// through.
	churnOrder []int
}

func newInputs(s spec, seed int64) (*inputs, error) {
	if s.Users%2 != 0 {
		return nil, fmt.Errorf("workload %s: %d users cannot all be paired", s.Name, s.Users)
	}
	w, err := trace.Generate(trace.Config{NumUsers: s.Users, PairedFraction: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, spec: s, Pairs: w.Pairs, Partner: make([]int, s.Users)}
	for _, p := range w.Pairs {
		in.Partner[p[0]], in.Partner[p[1]] = p[1], p[0]
	}
	if s.ChurnSlices > 0 {
		in.churnOrder = rand.New(rand.NewPCG(uint64(seed), 0xc4a2)).Perm(s.Users)
	}
	return in, nil
}

// TopologySeed is the public randomness for chain formation.
func (in *inputs) TopologySeed() []byte {
	return []byte(fmt.Sprintf("bench/%s/%d", in.spec.Name, in.seed))
}

const bodySize = 64

// Body is the plaintext user sends her partner in round.
func (in *inputs) Body(round uint64, user int) []byte {
	rng := rand.New(rand.NewPCG(uint64(in.seed), round<<32|uint64(user)))
	b := make([]byte, bodySize)
	for i := range b {
		b[i] = byte('a' + rng.IntN(26))
	}
	return b
}

// Offline lists the users away in round, ascending. Slices rotate, so
// nobody is away two rounds running (her covers were banked the round
// before, §5.3.3) and every round has the same number away. Round 1
// has no banked covers to spend, so everyone is online.
func (in *inputs) Offline(round uint64) []int {
	n := in.spec.ChurnSlices
	if n == 0 || round < 2 {
		return nil
	}
	size := in.spec.Users / n
	lo := int(round%uint64(n)) * size
	out := append([]int(nil), in.churnOrder[lo:lo+size]...)
	sort.Ints(out)
	return out
}

// Injections is the blame workload's plan for one chain in round: two
// broken proofs and two ciphertexts that fail at layers k/3 and k−1,
// in seeded order.
func (in *inputs) Injections(round uint64, chain int) []injection {
	if !in.spec.Inject {
		return nil
	}
	k := in.spec.K
	plan := []injection{{InvalidProof: true}, {InvalidProof: true}, {Layer: k / 3}, {Layer: k - 1}}
	rng := rand.New(rand.NewPCG(uint64(in.seed), 0xb1a3e<<40|round<<8|uint64(chain)))
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// RegisteredMailboxes draws the registered-only population's mailbox
// identifiers: seeded bytes of an identity's length. They never
// submit; they make the registry, WAL and snapshots the size a
// deployment's would be.
func (in *inputs) RegisteredMailboxes(idLen int) [][]byte {
	var key [32]byte
	copy(key[:], fmt.Sprintf("bench/registered/%d", in.seed))
	rng := rand.NewChaCha8(key)
	out := make([][]byte, in.spec.Registered)
	for i := range out {
		out[i] = make([]byte, idLen)
		rng.Read(out[i]) // never fails
	}
	return out
}
