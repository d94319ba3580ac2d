package topology

import (
	"math"
	"testing"
)

func TestChainLengthPaperExample(t *testing.T) {
	// §5.2.1: f=0.2, target 2^-64, n<6000 → paper says k=32. The
	// exact union-bound formula gives k=31 at n=100 and k=33 at
	// n=6000 (documented deviation in DESIGN.md). Check the formula's
	// own guarantee instead of the rounded prose value, plus
	// proximity to the paper's figure.
	for _, n := range []int{100, 1000, 6000} {
		k := ChainLength(0.2, n, 64)
		if p := CompromiseProbability(0.2, n, k); p > math.Pow(2, -64) {
			t.Fatalf("n=%d k=%d: compromise probability %g > 2^-64", n, k, p)
		}
		if p := CompromiseProbability(0.2, n, k-1); p <= math.Pow(2, -64) {
			t.Fatalf("n=%d: k=%d not minimal", n, k)
		}
		if k < 30 || k > 34 {
			t.Fatalf("n=%d: k=%d far from paper's 32", n, k)
		}
	}
}

func TestChainLengthGrowsWithF(t *testing.T) {
	// Figure 6's mechanism: k grows as −1/log f.
	prev := 0
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		k := ChainLength(f, 100, 64)
		if k <= prev {
			t.Fatalf("k(f=%v) = %d not increasing (prev %d)", f, k, prev)
		}
		prev = k
	}
}

func TestChainLengthLogarithmicInN(t *testing.T) {
	// §4.2: k depends logarithmically on N.
	k1 := ChainLength(0.2, 100, 64)
	k2 := ChainLength(0.2, 10000, 64)
	if k2-k1 > 3 {
		t.Fatalf("k grew by %d over 100x more chains; expected logarithmic growth", k2-k1)
	}
}

func TestChainLengthPanicsOnBadInput(t *testing.T) {
	for _, f := range []float64{0, 1, -0.1, 1.5} {
		func() {
			defer func() { recover() }()
			ChainLength(f, 100, 64)
			t.Errorf("ChainLength(f=%v) did not panic", f)
		}()
	}
}

func testConfig(n int) Config {
	return Config{
		NumServers: n,
		F:          0.2,
		Seed:       []byte("public-beacon-output"),
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Chains {
		for p := range a.Chains[c] {
			if a.Chains[c][p] != b.Chains[c][p] {
				t.Fatal("same seed produced different topologies")
			}
		}
	}
	cfg := testConfig(64)
	cfg.Seed = []byte("different-beacon-output")
	d, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for c := range a.Chains {
		for p := range a.Chains[c] {
			if a.Chains[c][p] != d.Chains[c][p] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestBuildShape(t *testing.T) {
	top, err := Build(testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Chains) != 64 {
		t.Fatalf("chains = %d, want n = N = 64", len(top.Chains))
	}
	for c, members := range top.Chains {
		if len(members) != top.ChainLength {
			t.Fatalf("chain %d has %d members, want k=%d", c, len(members), top.ChainLength)
		}
		seen := make(map[int]bool)
		for _, m := range members {
			if m < 0 || m >= 64 {
				t.Fatalf("chain %d has invalid member %d", c, m)
			}
			if seen[m] {
				t.Fatalf("chain %d repeats server %d", c, m)
			}
			seen[m] = true
		}
	}
}

func TestBuildRejectsTooFewServers(t *testing.T) {
	cfg := testConfig(10) // k≈29 > N=10
	if _, err := Build(cfg); err == nil {
		t.Fatal("Build accepted k > N")
	}
	cfg.ChainLengthOverride = 3
	top, err := Build(cfg)
	if err != nil {
		t.Fatalf("override rejected: %v", err)
	}
	if top.ChainLength != 3 {
		t.Fatalf("override not honoured: k=%d", top.ChainLength)
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(Config{NumServers: 0}); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := Build(Config{NumServers: 50, F: 0}); err == nil {
		t.Fatal("f=0 without override accepted")
	}
}

func TestServerAppearsInRoughlyKChains(t *testing.T) {
	// §5.2.1: with n=N each server appears in k chains on average.
	top, err := Build(testConfig(128))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 128; s++ {
		total += len(top.ChainsOfServer(s))
	}
	avg := float64(total) / 128
	if math.Abs(avg-float64(top.ChainLength)) > 0.01 {
		t.Fatalf("average chains per server = %.2f, want k=%d", avg, top.ChainLength)
	}
}

func TestStaggeringSpreadsPositions(t *testing.T) {
	cfg := testConfig(64)
	staggered, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := build(cfg, false)
	if err != nil {
		t.Fatal(err)
	}

	ss, sp := meanSpread(staggered), meanSpread(plain)
	if ss < sp {
		t.Fatalf("staggering reduced position spread: %.3f < %.3f", ss, sp)
	}
	if ss < 0.9 {
		t.Fatalf("staggered spread %.3f too low", ss)
	}
	// Staggering must preserve chain membership (only order changes).
	for c := range staggered.Chains {
		a := append([]int(nil), staggered.Chains[c]...)
		b := append([]int(nil), plain.Chains[c]...)
		counts := make(map[int]int)
		for i := range a {
			counts[a[i]]++
			counts[b[i]]--
		}
		for _, v := range counts {
			if v != 0 {
				t.Fatalf("staggering changed membership of chain %d", c)
			}
		}
	}
}

// meanSpread is PositionSpread averaged over every server.
func meanSpread(top *Topology) float64 {
	sum := 0.0
	for s := 0; s < top.NumServers; s++ {
		sum += top.PositionSpread(s)
	}
	return sum / float64(top.NumServers)
}

// BenchmarkAblationStaggering measures §5.2.1's utilisation
// optimisation: position spread with and without staggering.
func BenchmarkAblationStaggering(b *testing.B) {
	for _, stagger := range []bool{true, false} {
		name := "staggered"
		if !stagger {
			name = "aligned"
		}
		b.Run(name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				top, err := build(Config{NumServers: 64, F: 0.2, Seed: []byte("ablation")}, stagger)
				if err != nil {
					b.Fatal(err)
				}
				spread = meanSpread(top)
			}
			b.ReportMetric(spread, "position-spread")
		})
	}
}

func TestFailedChains(t *testing.T) {
	top, err := Build(testConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if got := top.FailedChains(nil); len(got) != 0 {
		t.Fatalf("no failures but %d failed chains", len(got))
	}
	// Fail one server: exactly the chains containing it fail.
	failed := map[int]bool{7: true}
	want := make(map[int]bool)
	for _, slot := range top.ChainsOfServer(7) {
		want[slot[0]] = true
	}
	got := top.FailedChains(failed)
	if len(got) != len(want) {
		t.Fatalf("failed chains = %d, want %d", len(got), len(want))
	}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("chain %d reported failed but does not contain server 7", c)
		}
	}
	// Failing every server fails every chain.
	all := make(map[int]bool)
	for s := 0; s < 64; s++ {
		all[s] = true
	}
	if got := top.FailedChains(all); len(got) != len(top.Chains) {
		t.Fatal("not all chains failed when all servers failed")
	}
}

func TestPRGUniformity(t *testing.T) {
	r := newPRG([]byte("seed"), "test")
	const buckets = 10
	counts := make([]int, buckets)
	for i := 0; i < 10000; i++ {
		counts[r.intn(buckets)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d has %d/10000 draws; PRG is skewed", b, c)
		}
	}
}

func BenchmarkBuild100(b *testing.B) {
	cfg := testConfig(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
