package chainsel

import (
	"crypto/rand"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestLFormula(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1},
		{3, 2},  // triangular: 2·3/2
		{6, 3},  // triangular
		{10, 4}, // triangular
		{100, 14},
		{105, 14}, // triangular: 14·15/2
		{106, 15},
	}
	for _, c := range cases {
		if got := L(c.n); got != c.want {
			t.Errorf("L(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestLIsMinimalTriangularCover checks ℓ is the smallest integer with
// ℓ(ℓ+1)/2 >= n for a range of n, the defining property from §5.3.1.
func TestLIsMinimalTriangularCover(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		l := L(n)
		if l*(l+1)/2 < n {
			t.Fatalf("L(%d)=%d does not cover n", n, l)
		}
		if l > 1 && (l-1)*l/2 >= n {
			t.Fatalf("L(%d)=%d is not minimal", n, l)
		}
	}
}

// TestPaperL100Servers checks the paper's concrete claim (§8.2): with
// 100 servers (n=N=100) each user submits 15 messages... The paper
// says "each user submits 15 messages with 100 servers"; our formula
// gives ℓ=14 plus the paper appears to round √(2·100)=14.14 up. We
// assert ℓ ∈ {14, 15} and record the exact value in EXPERIMENTS.md.
func TestPaperL100Servers(t *testing.T) {
	l := L(100)
	if l != 14 && l != 15 {
		t.Fatalf("L(100) = %d, expected ≈ √200", l)
	}
	// ℓ must be within the √2-approximation band of §4.2.
	lower := math.Sqrt(100)
	upper := math.Ceil(math.Sqrt(2*100.0)) + 1
	if float64(l) < lower || float64(l) > upper {
		t.Fatalf("L(100) = %d outside [√n, ⌈√2n⌉+1]", l)
	}
}

func TestNewPlanRejectsBadN(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Fatal("NewPlan(0) succeeded")
	}
	if _, err := NewPlan(-5); err == nil {
		t.Fatal("NewPlan(-5) succeeded")
	}
	if _, err := NewPlan(MaxChains + 1); err == nil {
		t.Fatal("NewPlan(MaxChains+1) succeeded")
	}
}

// TestAllGroupPairsIntersect is the core correctness property (§4,
// §5.3.1): every pair of groups shares at least one chain, so every
// pair of users can converse.
func TestAllGroupPairsIntersect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 6, 10, 36, 100, 105, 500, 1000, 2000} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < p.NumGroups(); a++ {
			for b := a; b < p.NumGroups(); b++ {
				c := p.MeetingChain(a, b) // panics if disjoint
				if c < 0 || c >= n {
					t.Fatalf("n=%d: meeting chain %d out of range", n, c)
				}
				if p.MeetingChain(b, a) != c {
					t.Fatalf("n=%d: meeting chain not symmetric for (%d,%d)", n, a, b)
				}
			}
		}
	}
}

// TestPaperExampleL3 reproduces the inductive construction by hand for
// ℓ=3 (n=6): C1={1,2,3}, C2={1,4,5}, C3={2,4,6}, C4={3,5,6}, checking
// our 0-based encoding against the paper's 1-based sets.
func TestPaperExampleL3(t *testing.T) {
	p, err := NewPlan(6)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2}, {0, 3, 4}, {1, 3, 5}, {2, 4, 5}}
	if p.NumGroups() != len(want) {
		t.Fatalf("groups = %d, want %d", p.NumGroups(), len(want))
	}
	for g, w := range want {
		got := p.ChainsForGroup(g)
		if len(got) != len(w) {
			t.Fatalf("group %d: %v, want %v", g, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("group %d: %v, want %v", g, got, w)
			}
		}
	}
	// Each pair meets exactly where the paper says.
	meets := map[[2]int]int{
		{0, 1}: 0, {0, 2}: 1, {0, 3}: 2,
		{1, 2}: 3, {1, 3}: 4, {2, 3}: 5,
	}
	for pair, chain := range meets {
		if got := p.MeetingChain(pair[0], pair[1]); got != chain {
			t.Errorf("meeting(%d,%d) = %d, want %d", pair[0], pair[1], got, chain)
		}
	}
}

func TestChainSetSizes(t *testing.T) {
	for _, n := range []int{3, 6, 10, 100, 1000} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < p.NumGroups(); g++ {
			if got := len(p.ChainsForGroup(g)); got != p.L {
				t.Fatalf("n=%d group %d: |C| = %d, want ℓ=%d", n, g, got, p.L)
			}
		}
		if p.MessagesPerUser() != p.L {
			t.Fatal("MessagesPerUser != L")
		}
	}
}

func TestAllChainsUsed(t *testing.T) {
	for _, n := range []int{1, 6, 100, 105, 777} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		factors := p.ChainLoadFactors()
		for c, f := range factors {
			if f == 0 {
				t.Fatalf("n=%d: chain %d unused", n, c)
			}
		}
	}
}

// TestLoadBalance checks the even-distribution goal (§5.3.1): for
// triangular n every chain appears in exactly 2 groups; for general n
// the wrap keeps the max/min factor ratio small.
func TestLoadBalance(t *testing.T) {
	p, err := NewPlan(105) // triangular
	if err != nil {
		t.Fatal(err)
	}
	for c, f := range p.ChainLoadFactors() {
		if f != 2 {
			t.Fatalf("triangular n: chain %d has load factor %d, want 2", c, f)
		}
	}

	p, err = NewPlan(100) // wraps 5 indices
	if err != nil {
		t.Fatal(err)
	}
	minF, maxF := math.MaxInt, 0
	for _, f := range p.ChainLoadFactors() {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if minF < 2 || maxF > 4 {
		t.Fatalf("load factors range [%d,%d], want within [2,4]", minF, maxF)
	}
}

func TestGroupOfDeterministicAndSpread(t *testing.T) {
	const groups = 15
	counts := make([]int, groups)
	for i := 0; i < 3000; i++ {
		pk := make([]byte, 33)
		if _, err := rand.Read(pk); err != nil {
			t.Fatal(err)
		}
		g := GroupOf(pk, groups)
		if g != GroupOf(pk, groups) {
			t.Fatal("GroupOf is not deterministic")
		}
		if g < 0 || g >= groups {
			t.Fatalf("group %d out of range", g)
		}
		counts[g]++
	}
	// Rough uniformity: each group within 3x of the mean.
	mean := 3000 / groups
	for g, c := range counts {
		if c < mean/3 || c > mean*3 {
			t.Fatalf("group %d has %d users, mean %d — assignment is skewed", g, c, mean)
		}
	}
}

func TestMeetingChainForUsers(t *testing.T) {
	p, err := NewPlan(100)
	if err != nil {
		t.Fatal(err)
	}
	pkA := []byte("user-a-public-key")
	pkB := []byte("user-b-public-key")
	c := p.MeetingChainForUsers(pkA, pkB)
	if c != p.MeetingChainForUsers(pkB, pkA) {
		t.Fatal("meeting chain not symmetric in users")
	}
	// Both users' chain sets must contain c.
	contains := func(s []int, v int) bool {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	if !contains(p.ChainsForUser(pkA), c) || !contains(p.ChainsForUser(pkB), c) {
		t.Fatal("meeting chain not in both users' sets")
	}
}

// TestApproximationQuality is the §9 ablation: the achieved ℓ must be
// within √2 (+1 for ceiling) of the √n lower bound for all n.
func TestChainSelectionApproximation(t *testing.T) {
	worst := 0.0
	for n := 2; n <= 4000; n++ {
		ratio := float64(L(n)) / math.Sqrt(float64(n))
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > math.Sqrt2*1.3 {
		t.Fatalf("worst ℓ/√n = %.3f exceeds √2 approximation band", worst)
	}
}

func TestQuickPairwiseIntersection(t *testing.T) {
	f := func(nRaw uint16, aRaw, bRaw uint8) bool {
		n := int(nRaw)%1500 + 1
		p, err := NewPlan(n)
		if err != nil {
			return false
		}
		a := int(aRaw) % p.NumGroups()
		b := int(bRaw) % p.NumGroups()
		c := p.MeetingChain(a, b)
		return c >= 0 && c < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func ExampleNewPlan() {
	p, _ := NewPlan(6)
	fmt.Println("l =", p.L)
	fmt.Println("group 0 chains:", p.ChainsForGroup(0))
	fmt.Println("groups 1 and 2 meet on chain", p.MeetingChain(1, 2))
	// Output:
	// l = 3
	// group 0 chains: [0 1 2]
	// groups 1 and 2 meet on chain 3
}

func BenchmarkNewPlan1000(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(1000); err != nil {
			b.Fatal(err)
		}
	}
}
