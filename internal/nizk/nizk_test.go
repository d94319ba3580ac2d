package nizk

import (
	"fmt"
	"testing"

	"repro/internal/group"
)

func TestDlogProofVerifies(t *testing.T) {
	x := group.MustRandomScalar()
	base := group.Generator()
	public := base.Mul(x)
	p := ProveDlog("ctx", base, x)
	if err := VerifyDlog("ctx", base, public, p); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

func TestDlogProofNonGeneratorBase(t *testing.T) {
	// AHS uses chained bases bpk_{i-1}, not just g.
	base := group.Base(group.MustRandomScalar())
	x := group.MustRandomScalar()
	p := ProveDlog("ctx", base, x)
	if err := VerifyDlog("ctx", base, base.Mul(x), p); err != nil {
		t.Fatalf("valid proof over chained base rejected: %v", err)
	}
}

func TestDlogProofWrongStatement(t *testing.T) {
	base := group.Generator()
	x := group.MustRandomScalar()
	p := ProveDlog("ctx", base, x)
	other := base.Mul(group.MustRandomScalar())
	if err := VerifyDlog("ctx", base, other, p); err == nil {
		t.Fatal("proof accepted for a different public key")
	}
}

func TestDlogProofContextBinding(t *testing.T) {
	base := group.Generator()
	x := group.MustRandomScalar()
	public := base.Mul(x)
	p := ProveDlog("round-1/chain-2", base, x)
	if err := VerifyDlog("round-1/chain-3", base, public, p); err == nil {
		t.Fatal("proof replayed across contexts")
	}
}

func TestDlogProofTamperedResponse(t *testing.T) {
	base := group.Generator()
	x := group.MustRandomScalar()
	public := base.Mul(x)
	p := ProveDlog("ctx", base, x)
	p.S = p.S.Add(group.NewScalar(1))
	if err := VerifyDlog("ctx", base, public, p); err == nil {
		t.Fatal("tampered response accepted")
	}
	p2 := ProveDlog("ctx", base, x)
	p2.C = p2.C.Add(group.NewScalar(1))
	if err := VerifyDlog("ctx", base, public, p2); err == nil {
		t.Fatal("tampered challenge accepted")
	}
}

func TestDlogRejectsIdentityInputs(t *testing.T) {
	x := group.MustRandomScalar()
	p := ProveDlog("ctx", group.Generator(), x)
	if err := VerifyDlog("ctx", group.Identity(), group.Base(x), p); err == nil {
		t.Fatal("identity base accepted")
	}
	if err := VerifyDlog("ctx", group.Generator(), group.Identity(), p); err == nil {
		t.Fatal("identity public key accepted")
	}
}

func TestDleqProofVerifies(t *testing.T) {
	x := group.MustRandomScalar()
	b1 := group.Generator()
	b2 := group.Base(group.MustRandomScalar())
	p := ProveDleq("ctx", b1, b2, x)
	if err := VerifyDleq("ctx", b1, b1.Mul(x), b2, b2.Mul(x), p); err != nil {
		t.Fatalf("valid DLEQ rejected: %v", err)
	}
}

// TestDleqShuffleCertificate exercises the exact statement the AHS
// mixing step proves: (∏ X_j)^bsk = ∏ X'_j against bpk_{i-1}, bpk_i.
func TestDleqShuffleCertificate(t *testing.T) {
	bsk := group.MustRandomScalar()
	bpkPrev := group.Base(group.MustRandomScalar())
	bpkCur := bpkPrev.Mul(bsk)

	var in, out []group.Point
	for j := 0; j < 10; j++ {
		x := group.Base(group.MustRandomScalar())
		in = append(in, x)
		out = append(out, x.Mul(bsk))
	}
	// Shuffle out (a rotation suffices: product is invariant).
	out = append(out[3:], out[:3]...)

	prodIn := group.Product(in)
	prodOut := group.Product(out)
	p := ProveDleq("round/chain/server", prodIn, bpkPrev, bsk)
	if err := VerifyDleq("round/chain/server", prodIn, prodOut, bpkPrev, bpkCur, p); err != nil {
		t.Fatalf("shuffle certificate rejected: %v", err)
	}

	// Dropping one message must break the certificate.
	shortOut := group.Product(out[1:])
	if err := VerifyDleq("round/chain/server", prodIn, shortOut, bpkPrev, bpkCur, p); err == nil {
		t.Fatal("certificate accepted after a dropped message")
	}
}

func TestDleqDifferentExponentsRejected(t *testing.T) {
	x := group.MustRandomScalar()
	y := x.Add(group.NewScalar(1))
	b1 := group.Generator()
	b2 := group.Base(group.MustRandomScalar())
	p := ProveDleq("ctx", b1, b2, x)
	if err := VerifyDleq("ctx", b1, b1.Mul(x), b2, b2.Mul(y), p); err == nil {
		t.Fatal("DLEQ accepted with mismatched exponents")
	}
}

func TestDleqContextBinding(t *testing.T) {
	x := group.MustRandomScalar()
	b1 := group.Generator()
	b2 := group.Base(group.MustRandomScalar())
	p := ProveDleq("ctx-a", b1, b2, x)
	if err := VerifyDleq("ctx-b", b1, b1.Mul(x), b2, b2.Mul(x), p); err == nil {
		t.Fatal("DLEQ replayed across contexts")
	}
}

func BenchmarkProveDlog(b *testing.B) {
	x := group.MustRandomScalar()
	base := group.Generator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ProveDlog("bench", base, x)
	}
}

func BenchmarkVerifyDlog(b *testing.B) {
	x := group.MustRandomScalar()
	base := group.Generator()
	public := base.Mul(x)
	p := ProveDlog("bench", base, x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := VerifyDlog("bench", base, public, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProveDleq(b *testing.B) {
	x := group.MustRandomScalar()
	b1 := group.Generator()
	b2 := group.Base(group.MustRandomScalar())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ProveDleq("bench", b1, b2, x)
	}
}

func BenchmarkVerifyDleq(b *testing.B) {
	x := group.MustRandomScalar()
	b1 := group.Generator()
	b2 := group.Base(group.MustRandomScalar())
	p := ProveDleq("bench", b1, b2, x)
	y1, y2 := b1.Mul(x), b2.Mul(x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := VerifyDleq("bench", b1, y1, b2, y2, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- commitment-format (batchable) knowledge proofs ---

func TestDlogCommitProofVerifies(t *testing.T) {
	x := group.MustRandomScalar()
	base := group.Generator()
	p := ProveDlogCommit("ctx", base, x)
	if err := VerifyDlogCommit("ctx", base, base.Mul(x), p); err != nil {
		t.Fatalf("valid commitment-format proof rejected: %v", err)
	}
	if err := VerifyDlogCommit("other", base, base.Mul(x), p); err == nil {
		t.Fatal("proof replayed across contexts")
	}
	if err := VerifyDlogCommit("ctx", base, base.Mul(group.MustRandomScalar()), p); err == nil {
		t.Fatal("proof accepted for a different public key")
	}
	bad := p
	bad.S = bad.S.Add(group.NewScalar(1))
	if err := VerifyDlogCommit("ctx", base, base.Mul(x), bad); err == nil {
		t.Fatal("tampered response accepted")
	}
	bad = p
	bad.T = bad.T.Add(base)
	if err := VerifyDlogCommit("ctx", base, base.Mul(x), bad); err == nil {
		t.Fatal("tampered commitment accepted")
	}
	if err := VerifyDlogCommit("ctx", group.Identity(), base.Mul(x), p); err == nil {
		t.Fatal("identity base accepted")
	}
	if err := VerifyDlogCommit("ctx", base, group.Identity(), p); err == nil {
		t.Fatal("identity public key accepted")
	}
}

func TestDlogProofEncodingRoundTrip(t *testing.T) {
	x := group.MustRandomScalar()
	p := ProveDlogCommit("ctx", group.Generator(), x)
	b := p.Bytes()
	if len(b) != DlogProofSize {
		t.Fatalf("encoded size = %d, want %d", len(b), DlogProofSize)
	}
	got, err := ParseDlogProof(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDlogCommit("ctx", group.Generator(), group.Base(x), got); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
	if _, err := ParseDlogProof(b[:DlogProofSize-1]); err == nil {
		t.Fatal("short encoding accepted")
	}
	garbage := make([]byte, DlogProofSize)
	for i := range garbage {
		garbage[i] = 0xff
	}
	if _, err := ParseDlogProof(garbage); err == nil {
		t.Fatal("off-curve commitment accepted")
	}
}

// batchFixture builds n valid commitment-format proofs with distinct
// contexts and secrets.
func batchFixture(t *testing.T, n int) (contexts []string, publics []group.Point, proofs []DlogProof) {
	t.Helper()
	base := group.Generator()
	for i := 0; i < n; i++ {
		ctx := fmt.Sprintf("batch/msg=%d", i)
		x := group.MustRandomScalar()
		contexts = append(contexts, ctx)
		publics = append(publics, base.Mul(x))
		proofs = append(proofs, ProveDlogCommit(ctx, base, x))
	}
	return contexts, publics, proofs
}

// TestDlogBatchMatchesSingle pins batch-vs-single equivalence: a
// batch of valid proofs accepts, and flipping any one proof, public
// key or context — at the start, middle and end of a 100-proof batch
// — makes the whole batch reject, exactly as the corresponding single
// verification would.
func TestDlogBatchMatchesSingle(t *testing.T) {
	const n = 100
	base := group.Generator()
	contexts, publics, proofs := batchFixture(t, n)

	if err := VerifyDlogBatch(contexts, base, publics, proofs); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		// Tampered response.
		mutated := append([]DlogProof(nil), proofs...)
		mutated[i].S = mutated[i].S.Add(group.NewScalar(1))
		if err := VerifyDlogBatch(contexts, base, publics, mutated); err == nil {
			t.Fatalf("batch accepted with proof %d tampered", i)
		}
		// Tampered commitment.
		mutated = append([]DlogProof(nil), proofs...)
		mutated[i].T = mutated[i].T.Add(base)
		if err := VerifyDlogBatch(contexts, base, publics, mutated); err == nil {
			t.Fatalf("batch accepted with commitment %d tampered", i)
		}
		// Wrong public key.
		keys := append([]group.Point(nil), publics...)
		keys[i] = base.Mul(group.MustRandomScalar())
		if err := VerifyDlogBatch(contexts, base, keys, proofs); err == nil {
			t.Fatalf("batch accepted with public key %d swapped", i)
		}
		// Wrong context (replay into a different round/chain).
		ctxs := append([]string(nil), contexts...)
		ctxs[i] = "batch/other"
		if err := VerifyDlogBatch(ctxs, base, publics, proofs); err == nil {
			t.Fatalf("batch accepted with context %d flipped", i)
		}
	}
}

func TestDlogBatchEdgeCases(t *testing.T) {
	base := group.Generator()
	if err := VerifyDlogBatch(nil, base, nil, nil); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
	contexts, publics, proofs := batchFixture(t, 1)
	if err := VerifyDlogBatch(contexts, base, publics, proofs); err != nil {
		t.Fatalf("singleton batch rejected: %v", err)
	}
	if err := VerifyDlogBatch(contexts, group.Identity(), publics, proofs); err == nil {
		t.Fatal("identity base accepted")
	}
	publics[0] = group.Identity()
	if err := VerifyDlogBatch(contexts, base, publics, proofs); err == nil {
		t.Fatal("identity public key accepted")
	}
	if err := VerifyDlogBatch(contexts[:1], base, nil, proofs[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestDlogBatchSizesAcrossMSMPaths walks batch sizes spanning the
// MSM's naive, Straus and Pippenger paths (the point count is twice
// the proof count).
func TestDlogBatchSizesAcrossMSMPaths(t *testing.T) {
	base := group.Generator()
	for _, n := range []int{1, 2, 5, 15, 16, 40, 70} {
		contexts, publics, proofs := batchFixture(t, n)
		if err := VerifyDlogBatch(contexts, base, publics, proofs); err != nil {
			t.Fatalf("valid batch of %d rejected: %v", n, err)
		}
		i := n - 1
		proofs[i].S = proofs[i].S.Add(group.NewScalar(1))
		if err := VerifyDlogBatch(contexts, base, publics, proofs); err == nil {
			t.Fatalf("batch of %d accepted with a tampered proof", n)
		}
	}
}
