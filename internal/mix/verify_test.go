package mix

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// proofSubs returns n proof-only submissions for round 1 of chain 0,
// all valid — VerifySubmissionProofs never reads the ciphertexts. The
// one at index 5 is valid the odd way, an identity commitment (nonce
// zero), which the batch must pass as the serial check does.
func proofSubs(tb testing.TB, n int) []onion.Submission {
	tb.Helper()
	ctx := onion.SubmitContext(1, 0)
	subs := make([]onion.Submission, n)
	for i := range subs {
		x, v := group.MustRandomScalar(), group.MustRandomScalar()
		subs[i] = onion.Submission{
			Envelope: onion.Envelope{DHKey: group.Base(x)},
			Proof:    nizk.ProveDlogCommitPrecomputed(ctx, group.Generator(), group.Base(x), x, v, group.Base(v)),
		}
		if i == 5 {
			subs[i].Proof = nizk.ProveDlogCommitPrecomputed(ctx, group.Generator(), subs[i].DHKey, x, group.Scalar{}, group.Identity())
		}
	}
	return subs
}

// breakProof makes subs[i] invalid, a different way for each kind: the
// response off by one, an identity commitment, a zero response, an
// identity key under a proof whose equation holds (refused outright by
// the serial check), a shifted commitment.
func breakProof(subs []onion.Submission, i, kind int) {
	if subs[i].Proof.T.IsIdentity() {
		kind = 0 // the nonce-zero proof: its commitment already is the identity
	}
	switch kind % 5 {
	case 0:
		subs[i].Proof.S = subs[i].Proof.S.Add(group.NewScalar(1))
	case 1:
		subs[i].Proof.T = group.Identity()
	case 2:
		subs[i].Proof.S = group.Scalar{}
	case 3:
		v := group.MustRandomScalar()
		subs[i].DHKey = group.Identity()
		subs[i].Proof = nizk.DlogProof{T: group.Base(v), S: v}
	case 4:
		subs[i].Proof.T = subs[i].Proof.T.Add(group.Generator())
	}
}

// TestDefectWalkMatchesSweep is the contract of batched verification:
// whatever is bad and wherever it sits, VerifySubmissionProofs returns
// exactly what the per-proof sweep returns. The fixture is swept once;
// after that a case's ground truth is the serial check on the proofs
// the case touched, which is what a sweep of all n would report.
func TestDefectWalkMatchesSweep(t *testing.T) {
	sizes := []int{9, 200, 402, 1000}
	if !testing.Short() {
		sizes = append(sizes, 4097)
	}
	clean := proofSubs(t, sizes[len(sizes)-1])
	if bad := sweepProofs(clean, 0, len(clean), 1, 0); len(bad) != 0 {
		t.Fatalf("fixture: the sweep refuses %v", bad)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(29))

	for _, n := range sizes {
		settings := []int{1, 2, 4}
		if n > 1000 {
			settings = settings[:1] // 4 097 is there for its one-proof chunk, which only one worker cuts
		}
		for _, procs := range settings {
			runtime.GOMAXPROCS(procs)
			chunk := submissionChunk(n, procs)
			var edges, leaves, all []int
			for lo := 0; lo < n; lo += chunk {
				edges = append(edges, lo, min(lo+chunk, n)-1)
			}
			for i := 3; i < n; i += bisectFloor {
				leaves = append(leaves, i)
			}
			for i := 0; i < n; i++ {
				all = append(all, i)
			}
			cases := []struct {
				name string
				bad  []int
			}{
				{"none", nil},
				{"first", []int{0}},
				{"last", []int{n - 1}},
				{"chunk edges", edges},
				{"adjacent", []int{n / 2, n/2 + 1}},
				{"scattered", rng.Perm(n)[:min(16, n)]},
				{"one per leaf", leaves},
				{"all", all},
			}
			for _, tc := range cases {
				// The floods cost a sweep each: past the small sizes one
				// setting carries them, and the largest leaves them out.
				if flood := len(tc.bad) > 16; flood && (n > 1000 || (n > 200 && procs != 2)) {
					continue
				}
				subs := append([]onion.Submission(nil), clean[:n]...)
				for k, i := range tc.bad {
					breakProof(subs, i, k)
				}
				var want []int
				for _, i := range distinct(tc.bad) {
					if onion.VerifySubmission(subs[i], 1, 0) != nil {
						want = append(want, i)
					}
				}
				if len(want) != len(distinct(tc.bad)) {
					t.Fatalf("n=%d %s: the serial check refuses %d of %d broken proofs", n, tc.name, len(want), len(distinct(tc.bad)))
				}
				if got := VerifySubmissionProofs(subs, 1, 0); !equalInts(got, want) {
					t.Fatalf("n=%d procs=%d %s: blamed %v, the sweep %v", n, procs, tc.name, got, want)
				}
			}
		}
	}
}

// distinct returns s sorted, without repeats (a one-proof chunk's two
// edges are one index).
func distinct(s []int) []int {
	s = append([]int(nil), s...)
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// walkCost runs halveDefect over a chunk of n proofs of which bad are
// invalid and counts what the walk asks for beyond the whole chunk's
// one defect: proofs put through a multi-scalar multiplication, and
// single checks. The counts depend on where the bad proofs sit and on
// nothing else, so the chunk is a stand-in: a bad proof's defect is a
// random power of g, a range's the product of its bad proofs'.
func walkCost(t *testing.T, n int, bad []int) (msm, singles int) {
	t.Helper()
	weight := make(map[int]group.Scalar, len(bad))
	for _, i := range bad {
		weight[i] = group.MustRandomScalar()
	}
	defect := func(lo, hi int) group.Point {
		var sum group.Scalar
		for i := lo; i < hi; i++ {
			sum = sum.Add(weight[i])
		}
		return group.Base(sum)
	}
	sweep := func(lo, hi int) []int {
		singles += hi - lo
		var found []int
		for i := lo; i < hi; i++ {
			if _, ok := weight[i]; ok {
				found = append(found, i)
			}
		}
		return found
	}
	counted := func(lo, hi int) group.Point { msm += hi - lo; return defect(lo, hi) }
	if found := halveDefect(counted, sweep, 0, n, defect(0, n)); !equalInts(found, distinct(bad)) {
		t.Fatalf("n=%d: the walk found %v of the bad proofs %v", n, found, bad)
	}
	return msm, singles
}

// TestDefectWalkCost pins what a prover can make a chunk cost, in
// counts that repeat exactly. An isolated bad proof: less than one more
// pass over the chunk at the batch price, and one leaf of single
// checks. The flood (a bad proof in every leaf, or all bad): every
// range at every level fails, so half a pass per level and then the N
// single checks a sweep is — which bounds the walk against the rule it
// replaced (a failed batch of ≤ 256 went straight to the sweep, a
// larger one re-verified both halves before walking them), with a
// single check priced at the five batched proofs it measures as.
func TestDefectWalkCost(t *testing.T) {
	const (
		singleCost   = 5    // one VerifyDlogCommit ≈ 86 µs, one batched proof ≈ 17 µs
		parentCutoff = 256  // the bisectSerialCutoff this walk replaced
		floodBound   = 1.45 // reached where the old rule swept at once: (1 + 5/2 + 5)/(1 + 5) at N = 256
	)
	// parentCost is the replaced rule's count on an all-bad range of n,
	// beyond the first batch, in batched proofs.
	var parentCost func(n int) int
	parentCost = func(n int) int {
		if n <= parentCutoff {
			return singleCost * n
		}
		return n + parentCost(n/2) + parentCost(n-n/2)
	}
	for _, n := range []int{200, 256, 400, 1000, submissionChunkMax} {
		for _, at := range []int{0, n / 3, n - 1} {
			msm, singles := walkCost(t, n, []int{at})
			if msm >= n || singles > bisectFloor {
				t.Fatalf("n=%d: an isolated bad proof cost %d batched proofs and %d single checks, want < %d and ≤ %d", n, msm, singles, n, bisectFloor)
			}
		}

		levels := 0
		for m := n; m > bisectFloor; m = (m + 1) / 2 {
			levels++
		}
		for _, stride := range []int{bisectFloor, 1} {
			var bad []int
			for i := 3 % stride; i < n; i += stride {
				bad = append(bad, i)
			}
			msm, singles := walkCost(t, n, bad)
			if msm > levels*(n+1)/2 || singles > n {
				t.Fatalf("n=%d stride=%d: the flood cost %d batched proofs and %d single checks, want ≤ %d and ≤ %d", n, stride, msm, singles, levels*(n+1)/2, n)
			}
			walk, parent := n+msm+singleCost*singles, n+parentCost(n)
			if float64(walk) > floodBound*float64(parent) {
				t.Fatalf("n=%d stride=%d: the flood costs %d batched-proof units, %.2f × the replaced rule's %d", n, stride, walk, float64(walk)/float64(parent), parent)
			}
		}
	}
}

// TestCancellingProofsBothConvicted drives the attack the weights exist
// for through the walk: two proofs whose own defects are g^δ and g^−δ,
// at seeded positions, so that any range holding both has the identity
// for its defect under equal weights and the pair would walk free.
func TestCancellingProofsBothConvicted(t *testing.T) {
	const n, runs = 40, 25
	clean := proofSubs(t, n)
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < runs; run++ {
		subs := append([]onion.Submission(nil), clean...)
		pair := rng.Perm(n)[:2]
		sort.Ints(pair)
		delta := group.MustRandomScalar()
		subs[pair[0]].Proof.S = subs[pair[0]].Proof.S.Sub(delta)
		subs[pair[1]].Proof.S = subs[pair[1]].Proof.S.Add(delta)
		if got := VerifySubmissionProofs(subs, 1, 0); !equalInts(got, pair) {
			t.Fatalf("run %d: blamed %v, want the cancelling pair %v", run, got, pair)
		}
	}
}
