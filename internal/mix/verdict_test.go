package mix

import (
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/onion"
)

// FuzzBlameVerdicts is the blame protocol's oracle (§6.4): whatever a
// seed draws — chain length, honest traffic, malicious users at any
// layer, and a strict subset of positions each making one deviation —
//
//   - every honest message is delivered exactly once, or the chain
//     halts and delivers nothing;
//   - every blamed server deviated and every blamed user misbehaved;
//   - with no deviating position, the blamed users are exactly the
//     malicious ones, each once.
//
// The last position is never handed a move that only garbles what it
// forwards: its output is the inner ciphertexts, which such a move
// spoils past every check by design (TestLastServerGarbleDropsInner).
func FuzzBlameVerdicts(f *testing.F) {
	for seed := uint64(0); seed < 200; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 0xb1a3e))
		k := 2 + rng.IntN(5)
		c := testChain(t, k)
		params := c.Params()

		honest, want := submitMany(t, c, 8+rng.IntN(41))
		subs := append([]onion.Submission(nil), honest...)
		for range rng.IntN(5) {
			var bad onion.Submission
			var err error
			if rng.IntN(4) == 0 {
				bad, err = InvalidProofSubmission(scheme, params, 1, 0)
			} else {
				bad, err = MaliciousSubmission(scheme, params, 1, 0, rng.IntN(k))
			}
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, bad)
		}
		order := rng.Perm(len(subs))
		shuffled := make([]onion.Submission, len(subs))
		malicious := make(map[int]bool)
		for from, to := range order {
			shuffled[to] = subs[from]
			if from >= len(honest) {
				malicious[to] = true
			}
		}
		subs = shuffled

		corrupt := make(map[int]bool)
		for _, pos := range rng.Perm(k)[:rng.IntN(k)] {
			corrupt[pos] = true
			c.Servers[pos].Corruption = drawCorruption(rng, len(subs), pos == k-1, honest)
		}

		res, err := c.RunRound(1, 0, subs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.BlamedServers {
			if !corrupt[s] {
				t.Fatalf("seed %d: honest position %d blamed (corrupt %v): %+v", seed, s, corrupt, res)
			}
		}
		for _, u := range res.BlamedUsers {
			if !malicious[u] {
				t.Fatalf("seed %d: honest user %d blamed (malicious %v)", seed, u, malicious)
			}
		}
		if res.Halted {
			if len(res.Delivered) != 0 {
				t.Fatalf("seed %d: a halted chain delivered %d messages", seed, len(res.Delivered))
			}
		} else {
			if len(res.Delivered) != len(want) {
				t.Fatalf("seed %d: delivered %d of %d honest messages", seed, len(res.Delivered), len(want))
			}
			seen := make(map[string]bool, len(want))
			for _, m := range res.Delivered {
				if !want[string(m)] || seen[string(m)] {
					t.Fatalf("seed %d: a delivery that is not one honest message once", seed)
				}
				seen[string(m)] = true
			}
		}
		if len(corrupt) == 0 {
			if res.Halted {
				t.Fatalf("seed %d: a chain of honest positions halted: %+v", seed, res)
			}
			got := append([]int(nil), res.BlamedUsers...)
			sort.Ints(got)
			var wantBlamed []int
			for u := range malicious {
				wantBlamed = append(wantBlamed, u)
			}
			sort.Ints(wantBlamed)
			if !equalInts(got, wantBlamed) {
				t.Fatalf("seed %d: blamed users %v, malicious %v", seed, got, wantBlamed)
			}
		}
	})
}

// drawCorruption gives one position one deviation from Corruption's
// moves, aimed at indices below n (a move aimed past a shrunken batch
// is a no-op). A last position draws only the moves its output is
// checked for.
func drawCorruption(rng *rand.Rand, n int, last bool, honest []onion.Submission) *Corruption {
	moves := 5
	if !last {
		moves = 7
	}
	switch rng.IntN(moves) {
	case 0:
		env := honest[rng.IntN(len(honest))].Envelope
		return &Corruption{ReplaceOutput: map[int]onion.Envelope{rng.IntN(n): env}}
	case 1:
		p := rng.IntN(n)
		return &Corruption{DropOutput: &p}
	case 2:
		return &Corruption{BadMixProof: true}
	case 3:
		return &Corruption{FalselyAccuse: []int{rng.IntN(n)}}
	case 4:
		return &Corruption{WithholdInnerKey: true}
	case 5:
		return &Corruption{GarbleCiphertext: []int{rng.IntN(n)}}
	default:
		return &Corruption{TamperPairs: [][2]int{{rng.IntN(n), rng.IntN(n)}}}
	}
}
