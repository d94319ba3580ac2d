package mix

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/onion"
)

// FuzzBlameVerdicts is the blame protocol's oracle (§6.4), over
// in-process hops; FuzzBlameVerdictsTLS runs the same draws over
// rpc.HopClient. See checkBlameVerdicts.
func FuzzBlameVerdicts(f *testing.F) {
	for seed := uint64(0); seed < 200; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkBlameVerdicts(t, seed, "LocalHop", buildHops)
	})
}

// checkBlameVerdicts draws from seed a chain length, honest traffic,
// malicious users at any layer, and a strict subset of positions each
// making one to three Corruption moves — colluding, when several
// deviate — builds the chain over newHops and runs one round. Whatever
// the draw:
//
//   - every honest message is delivered exactly once, or the chain
//     halts and delivers nothing;
//   - every blamed server deviated and every blamed user misbehaved;
//   - with no deviating position, the blamed users are exactly the
//     malicious ones, each once.
//
// A failure names the seed, k, the transport, each position's moves
// and the go test line that repeats it. The last position is never
// handed a move that only garbles what it forwards: its output is the
// inner ciphertexts, which such a move spoils past every check by
// design (TestLastServerGarbleDropsInner).
func checkBlameVerdicts(t *testing.T, seed uint64, transport string, newHops func(testing.TB, int) []Hop) {
	rng := rand.New(rand.NewPCG(seed, 0xb1a3e))
	k := 2 + rng.IntN(5)
	c, err := NewChainFromHops(0, newHops(t, k), scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BeginRound(1); err != nil {
		t.Fatal(err)
	}
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
	deviating := rng.Perm(k)[:rng.IntN(k)]
	sort.Ints(deviating)
	var moves []string
	for _, pos := range deviating {
		corrupt[pos] = true
		cr := &Corruption{}
		var drawn []string
		for range 1 + rng.IntN(3) {
			drawn = append(drawn, drawMove(cr, rng, len(subs), pos == k-1, honest))
		}
		c.Corrupt(pos, cr)
		moves = append(moves, fmt.Sprintf("%d: %s", pos, strings.Join(drawn, ", ")))
	}
	top, sub, _ := strings.Cut(t.Name(), "/")
	repro := fmt.Sprintf("seed %d, k %d, over %s, moves {%s}\nrepeat: go test -run '^%s$/^%s$' ./internal/mix/",
		seed, k, transport, strings.Join(moves, "; "), top, regexp.QuoteMeta(sub))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\n%s", fmt.Sprintf(format, args...), repro)
	}

	res, err := c.RunRound(1, 0, subs)
	if err != nil {
		fail("%v", err)
	}
	for _, s := range res.BlamedServers {
		if !corrupt[s] {
			fail("honest position %d blamed (halted %v, servers %v, users %v)", s, res.Halted, res.BlamedServers, res.BlamedUsers)
		}
	}
	for _, u := range res.BlamedUsers {
		if !malicious[u] {
			fail("honest user %d blamed (malicious %v)", u, malicious)
		}
	}
	if res.Halted {
		if len(res.Delivered) != 0 {
			fail("a halted chain delivered %d messages", len(res.Delivered))
		}
	} else {
		if len(res.Delivered) != len(want) {
			fail("delivered %d of %d honest messages", len(res.Delivered), len(want))
		}
		seen := make(map[string]bool, len(want))
		for _, m := range res.Delivered {
			if !want[string(m)] || seen[string(m)] {
				fail("a delivery that is not one honest message once")
			}
			seen[string(m)] = true
		}
	}
	if len(corrupt) == 0 {
		if res.Halted {
			fail("a chain of honest positions halted blaming %v", res.BlamedServers)
		}
		got := append([]int(nil), res.BlamedUsers...)
		sort.Ints(got)
		var wantBlamed []int
		for u := range malicious {
			wantBlamed = append(wantBlamed, u)
		}
		sort.Ints(wantBlamed)
		if !equalInts(got, wantBlamed) {
			fail("blamed users %v, malicious %v", got, wantBlamed)
		}
	}
}

// drawMove adds one of Corruption's moves to c, aimed at indices below
// n (a move aimed past a shrunken batch is a no-op), and names it. A
// last position draws only the moves its output is checked for.
func drawMove(c *Corruption, rng *rand.Rand, n int, last bool, honest []onion.Submission) string {
	moves := 8
	if !last {
		moves = 10
	}
	switch rng.IntN(moves) {
	case 0:
		p := rng.IntN(n)
		if c.ReplaceOutput == nil {
			c.ReplaceOutput = make(map[int]onion.Envelope)
		}
		c.ReplaceOutput[p] = honest[rng.IntN(len(honest))].Envelope
		return fmt.Sprintf("ReplaceOutput %d", p)
	case 1:
		p := rng.IntN(n)
		c.DropOutput = &p
		return fmt.Sprintf("DropOutput %d", p)
	case 2:
		c.BadMixProof = true
		return "BadMixProof"
	case 3:
		p := rng.IntN(n)
		c.FalselyAccuse = append(c.FalselyAccuse, p)
		return fmt.Sprintf("FalselyAccuse %d", p)
	case 4:
		c.FailMix = true
		return "FailMix"
	case 5:
		c.WithholdInnerKey = true
		return "WithholdInnerKey"
	case 6:
		c.SubstituteInnerKey = true
		return "SubstituteInnerKey"
	case 7:
		c.RefuseBlameReveal = true
		return "RefuseBlameReveal"
	case 8:
		p := rng.IntN(n)
		c.GarbleCiphertext = append(c.GarbleCiphertext, p)
		return fmt.Sprintf("GarbleCiphertext %d", p)
	default:
		pair := [2]int{rng.IntN(n), rng.IntN(n)}
		c.TamperPairs = append(c.TamperPairs, pair)
		return fmt.Sprintf("TamperPairs %v", pair)
	}
}
