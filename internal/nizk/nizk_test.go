package nizk

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/group"
)

// proveDlogOf proves knowledge of x for base^x, computing the public
// key the provers are handed.
func proveDlogOf(context string, base group.Point, x group.Scalar) Proof {
	return ProveDlogPrecomputed(context, base, base.Mul(x), x)
}

// proveDlogCommitOf is proveDlogOf in commitment format, with a fresh
// nonce.
func proveDlogCommitOf(context string, base group.Point, x group.Scalar) DlogProof {
	v := group.MustRandomScalar()
	return ProveDlogCommitPrecomputed(context, base, base.Mul(x), x, v, base.Mul(v))
}

func TestDlogProofVerifies(t *testing.T) {
	x := group.MustRandomScalar()
	base := group.Generator()
	public := base.Mul(x)
	p := proveDlogOf("ctx", base, x)
	if err := VerifyDlog("ctx", base, public, p); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
}

func TestDlogProofNonGeneratorBase(t *testing.T) {
	// AHS uses chained bases bpk_{i-1}, not just g.
	base := group.Base(group.MustRandomScalar())
	x := group.MustRandomScalar()
	p := proveDlogOf("ctx", base, x)
	if err := VerifyDlog("ctx", base, base.Mul(x), p); err != nil {
		t.Fatalf("valid proof over chained base rejected: %v", err)
	}
}

func TestDlogProofWrongStatement(t *testing.T) {
	base := group.Generator()
	x := group.MustRandomScalar()
	p := proveDlogOf("ctx", base, x)
	other := base.Mul(group.MustRandomScalar())
	if err := VerifyDlog("ctx", base, other, p); err == nil {
		t.Fatal("proof accepted for a different public key")
	}
}

func TestDlogProofContextBinding(t *testing.T) {
	base := group.Generator()
	x := group.MustRandomScalar()
	public := base.Mul(x)
	p := proveDlogOf("round-1/chain-2", base, x)
	if err := VerifyDlog("round-1/chain-3", base, public, p); err == nil {
		t.Fatal("proof replayed across contexts")
	}
}

func TestDlogProofTamperedResponse(t *testing.T) {
	base := group.Generator()
	x := group.MustRandomScalar()
	public := base.Mul(x)
	p := proveDlogOf("ctx", base, x)
	p.S = p.S.Add(group.NewScalar(1))
	if err := VerifyDlog("ctx", base, public, p); err == nil {
		t.Fatal("tampered response accepted")
	}
	p2 := proveDlogOf("ctx", base, x)
	p2.C = p2.C.Add(group.NewScalar(1))
	if err := VerifyDlog("ctx", base, public, p2); err == nil {
		t.Fatal("tampered challenge accepted")
	}
}

func TestDlogRejectsIdentityInputs(t *testing.T) {
	x := group.MustRandomScalar()
	p := proveDlogOf("ctx", group.Generator(), x)
	if err := VerifyDlog("ctx", group.Identity(), group.Base(x), p); err == nil {
		t.Fatal("identity base accepted")
	}
	if err := VerifyDlog("ctx", group.Generator(), group.Identity(), p); err == nil {
		t.Fatal("identity public key accepted")
	}
}

// verifyDlogLadders is the reference verifier: the commitment recomputed
// as base^s · (public^c)^−1 with two separate multiplications, as
// VerifyDlog did before it took one two-term product.
func verifyDlogLadders(context string, base, public group.Point, p Proof) error {
	if base.IsIdentity() || public.IsIdentity() {
		return ErrInvalidProof
	}
	commit := base.Mul(p.S).Add(public.Mul(p.C).Neg())
	if !dlogChallenge(context, base, public, commit).Equal(p.C) {
		return ErrInvalidProof
	}
	return nil
}

// TestVerifyDlogMatchesLadders holds VerifyDlog's verdict to the
// two-ladder reference over bare, Precomputed and generator bases, on
// valid proofs from both provers and on each tampering a verifier must
// catch.
func TestVerifyDlogMatchesLadders(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 10
	}
	one := group.NewScalar(1)
	for i := 0; i < 3*n; i++ {
		var base group.Point
		switch i % 3 {
		case 0:
			base = group.Base(group.MustRandomScalar())
		case 1:
			base = group.Base(group.MustRandomScalar()).Precomputed()
		default:
			base = group.Generator()
		}
		x := group.MustRandomScalar()
		public := base.Mul(x)
		p := proveDlogOf("ctx", base, x)
		if i%2 == 1 {
			p = ProveDlogPrecomputed("ctx", base, public, x)
		}
		cases := []struct {
			name         string
			ctx          string
			base, public group.Point
			p            Proof
			valid        bool
		}{
			{"valid", "ctx", base, public, p, true},
			{"wrong public", "ctx", base, public.Add(base), p, false},
			{"wrong context", "ctx2", base, public, p, false},
			{"C+1", "ctx", base, public, Proof{C: p.C.Add(one), S: p.S}, false},
			{"S+1", "ctx", base, public, Proof{C: p.C, S: p.S.Add(one)}, false},
			{"identity base", "ctx", group.Identity(), public, p, false},
			{"identity public", "ctx", base, group.Identity(), p, false},
		}
		for _, tc := range cases {
			got := VerifyDlog(tc.ctx, tc.base, tc.public, tc.p)
			want := verifyDlogLadders(tc.ctx, tc.base, tc.public, tc.p)
			if (got == nil) != (want == nil) || (got == nil) != tc.valid {
				t.Fatalf("base %d (kind %d), %s: VerifyDlog = %v, reference = %v", i, i%3, tc.name, got, want)
			}
		}
	}
}

// TestDlogGoldenTranscript pins the knowledge proof's (c, s) at a fixed
// nonce: the key proofs on the wire are unchanged by the prover reusing
// its caller's public key. The values were computed by the prover that
// raised base^x itself.
func TestDlogGoldenTranscript(t *testing.T) {
	base := group.Base(hexScalar(t, "0b1"))
	x := hexScalar(t, "6d1f3c8e5a7b9d0123456789abcdef00fedcba98765432100f1e2d3c4b5a6978")
	v := hexScalar(t, "1badc0de5eed5eed0123456789abcdef13579bdf2468ace0f0e1d2c3b4a59687")
	want := Proof{
		C: hexScalar(t, "e0947af913e29be261dd26d49a7c4a1112f767e3da78438a7a1ac7983eca6e85"),
		S: hexScalar(t, "da59ee14a8684f5301a701250218998683b07b3647497ba355e7807b31185bf6"),
	}
	got := proveDlog("xrd/test/dlog-golden", base, base.Mul(x), x, v)
	if !got.C.Equal(want.C) || !got.S.Equal(want.S) {
		t.Fatalf("transcript changed: c=%x s=%x", got.C.Bytes(), got.S.Bytes())
	}
	if err := VerifyDlog("xrd/test/dlog-golden", base, base.Mul(x), want); err != nil {
		t.Fatalf("golden proof rejected: %v", err)
	}
}

// TestDlogPrecomputedWrongPublic: the prover trusts the public key it is
// handed, and a wrong one buys nothing — the proof verifies for neither
// the true statement nor the false one.
func TestDlogPrecomputedWrongPublic(t *testing.T) {
	for _, base := range []group.Point{group.Generator(), group.Base(group.MustRandomScalar())} {
		x := group.MustRandomScalar()
		public := base.Mul(x)
		wrong := base.Mul(group.MustRandomScalar())
		p := ProveDlogPrecomputed("ctx", base, wrong, x)
		if err := VerifyDlog("ctx", base, public, p); err == nil {
			t.Fatal("proof made over a wrong public verifies for the true statement")
		}
		if err := VerifyDlog("ctx", base, wrong, p); err == nil {
			t.Fatal("proof made over a wrong public verifies for the false statement")
		}
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

// BenchmarkProveDlog is the prover servers call, handed the public key
// they hold, on the generator (an inner-key proof, a chain's first
// position: one table walk) and on a bare base (a key proof past the
// first position: one ladder).
func BenchmarkProveDlog(b *testing.B) {
	x := group.MustRandomScalar()
	for _, bc := range []struct {
		name string
		base group.Point
	}{
		{"generator", group.Generator()},
		{"bare", group.Base(group.MustRandomScalar())},
	} {
		public := bc.base.Mul(x)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ProveDlogPrecomputed("bench", bc.base, public, x)
			}
		})
	}
}

// BenchmarkVerifyDlog is the verifier on the generator (an inner-key
// proof) and on a bare base (a key proof past a chain's first
// position); both are one two-term product.
func BenchmarkVerifyDlog(b *testing.B) {
	x := group.MustRandomScalar()
	for _, bc := range []struct {
		name string
		base group.Point
	}{
		{"generator", group.Generator()},
		{"bare", group.Base(group.MustRandomScalar())},
	} {
		public := bc.base.Mul(x)
		p := proveDlogOf("bench", bc.base, x)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := VerifyDlog("bench", bc.base, public, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDleq times the Chaum-Pedersen prover both ways and the
// verifier over bare bases, as a server's are past the first position:
// prove raises every base to x as well as to the nonce (four ladders),
// provePrecomputed is handed both powers (two), verify is two two-term
// products.
func BenchmarkDleq(b *testing.B) {
	x := group.MustRandomScalar()
	b1 := group.Base(group.MustRandomScalar())
	b2 := group.Base(group.MustRandomScalar())
	y1, y2 := b1.Mul(x), b2.Mul(x)
	p := ProveDleq("bench", b1, b2, x)
	b.Run("prove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ProveDleq("bench", b1, b2, x)
		}
	})
	b.Run("provePrecomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ProveDleqPrecomputed("bench", b1, y1, b2, y2, x)
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := VerifyDleq("bench", b1, y1, b2, y2, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func hexScalar(t *testing.T, h string) group.Scalar {
	t.Helper()
	n, ok := new(big.Int).SetString(h, 16)
	if !ok {
		t.Fatalf("bad hex scalar %q", h)
	}
	return group.ScalarFromBig(n)
}

// TestDleqGoldenTranscript pins the DLEQ wire format across the prover
// rewrite. The (c, s) below were computed by the four-ladder prover
// this package had before ProveDleqPrecomputed (commit 2db2217) with
// its nonce fixed to v; both names must still emit exactly that, and
// three proofs that prover made with nonces of its own must still
// verify.
func TestDleqGoldenTranscript(t *testing.T) {
	b1, b2 := group.Base(hexScalar(t, "0b1")), group.Base(hexScalar(t, "0b2"))
	x := hexScalar(t, "6d1f3c8e5a7b9d0123456789abcdef00fedcba98765432100f1e2d3c4b5a6978")
	v := hexScalar(t, "1badc0de5eed5eed0123456789abcdef13579bdf2468ace0f0e1d2c3b4a59687")
	want := Proof{
		C: hexScalar(t, "a36e757d75e010488d1ab8fe9be37516bd90ed88f70bb11f00b3f7d58c5dc56a"),
		S: hexScalar(t, "df75601b6592e9ca00df12b7855632f9bdbd92a2cbda59da1fbc015deeca09d3"),
	}
	y1, y2 := b1.Mul(x), b2.Mul(x)
	got := proveDleq("xrd/test/dleq-golden", b1, y1, b2, y2, x, v)
	if !got.C.Equal(want.C) || !got.S.Equal(want.S) {
		t.Fatalf("transcript changed: c=%x s=%x", got.C.Bytes(), got.S.Bytes())
	}
	if err := VerifyDleq("xrd/test/dleq-golden", b1, y1, b2, y2, want); err != nil {
		t.Fatalf("golden proof rejected: %v", err)
	}
	// Both exported names run that one body, over the same statement.
	for name, p := range map[string]Proof{
		"ProveDleq":            ProveDleq("ctx", b1, b2, x),
		"ProveDleqPrecomputed": ProveDleqPrecomputed("ctx", b1, y1, b2, y2, x),
	} {
		if err := VerifyDleq("ctx", b1, y1, b2, y2, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	vectors := []struct {
		b1   group.Point
		c, s string
	}{
		{b1, "339c7c2e09d9b9f216eab5d73713d68036b4d473d32f42462c2bde4410dc2167", "055e3ee8ee6132595d21af4a9d593ea2489849d041e1c0572fa20f0292056720"},
		{group.Generator(), "63573caca7e9dd9b2c42d2a729feda28c80ed9cae32449ac4f75de81999611f9", "5e230e80ba04bb1f435ea1220af04c6eb4a71688ad276405674ccbaa3c9524f3"},
		{b1, "52f56f7debcb73c3fa59a9cd8ea41518f0e89b15ddb6f31854924a3ca30980cf", "8a61b74ee9db92585f69b159e0d0529d3e2e5245c091e6df07688b90b60ca21a"},
	}
	for i, vec := range vectors {
		ctx := fmt.Sprintf("xrd/test/dleq-vector/%d", i)
		p := Proof{C: hexScalar(t, vec.c), S: hexScalar(t, vec.s)}
		if err := VerifyDleq(ctx, vec.b1, vec.b1.Mul(x), b2, y2, p); err != nil {
			t.Fatalf("vector %d from the old prover rejected: %v", i, err)
		}
		p.S = p.S.Add(group.NewScalar(1))
		if err := VerifyDleq(ctx, vec.b1, vec.b1.Mul(x), b2, y2, p); err == nil {
			t.Fatalf("vector %d verifies with a wrong response", i)
		}
	}
}

// TestDleqPrecomputedWrongPower: the prover trusts the powers it is
// handed, and a wrong one buys nothing — the proof does not verify
// against the true statement or against the false one.
func TestDleqPrecomputedWrongPower(t *testing.T) {
	x := group.MustRandomScalar()
	b1 := group.Base(group.MustRandomScalar())
	b2 := group.Base(group.MustRandomScalar())
	y1, y2 := b1.Mul(x), b2.Mul(x)
	wrong := b1.Mul(group.MustRandomScalar())
	p := ProveDleqPrecomputed("ctx", b1, wrong, b2, y2, x)
	if err := VerifyDleq("ctx", b1, y1, b2, y2, p); err == nil {
		t.Fatal("proof made over a wrong y1 verifies for the true statement")
	}
	if err := VerifyDleq("ctx", b1, wrong, b2, y2, p); err == nil {
		t.Fatal("proof made over a wrong y1 verifies for the false statement")
	}
	p = ProveDleqPrecomputed("ctx", b1, y1, b2, wrong, x)
	if err := VerifyDleq("ctx", b1, y1, b2, y2, p); err == nil {
		t.Fatal("proof made over a wrong y2 verifies")
	}
}

// --- commitment-format (batchable) knowledge proofs ---

func TestDlogCommitProofVerifies(t *testing.T) {
	x := group.MustRandomScalar()
	base := group.Generator()
	p := proveDlogCommitOf("ctx", base, x)
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
	p := proveDlogCommitOf("ctx", group.Generator(), x)
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

// FuzzParseDlogProof: an accepted encoding is the one Bytes writes for
// the proof it decodes to.
func FuzzParseDlogProof(f *testing.F) {
	p := proveDlogCommitOf("ctx", group.Generator(), group.MustRandomScalar())
	f.Add(p.Bytes())
	f.Add(make([]byte, DlogProofSize))
	f.Add(p.Bytes()[:DlogProofSize-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseDlogProof(data)
		if err != nil {
			return
		}
		if enc := p.Bytes(); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, re-encodes as %x", data, enc)
		}
	})
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
		proofs = append(proofs, proveDlogCommitOf(ctx, base, x))
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
// MSM's Straus and Pippenger paths (the point count is twice the proof
// count).
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

// mustPrepare prepares a batch over the generator.
func mustPrepare(t *testing.T, contexts []string, publics []group.Point, proofs []DlogProof) *DlogBatch {
	t.Helper()
	b, err := PrepareDlogBatch(contexts, group.Generator(), publics, proofs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDlogBatchDefectsMultiply pins what the halving walk rests on:
// within one preparation the defects of adjacent ranges multiply to the
// defect of their union, a clean range's is the identity, and a range
// holding a bad proof's is not. A build that drew fresh weights per
// Defect call would fail the first of these.
func TestDlogBatchDefectsMultiply(t *testing.T) {
	const n = 40
	contexts, publics, proofs := batchFixture(t, n)
	proofs[7].S = proofs[7].S.Add(group.NewScalar(1))
	proofs[31].T = proofs[31].T.Add(group.Generator())
	b := mustPrepare(t, contexts, publics, proofs)
	whole := b.Defect(0, n)
	if whole.IsIdentity() {
		t.Fatal("a batch with two bad proofs has the identity for its defect")
	}
	for _, mid := range []int{0, 1, 7, 8, 20, 31, 32, n} {
		if got := b.Defect(0, mid).Add(b.Defect(mid, n)); !got.Equal(whole) {
			t.Fatalf("defects of [0,%d) and [%d,%d) do not multiply to the whole's", mid, mid, n)
		}
	}
	for _, r := range [][2]int{{0, 7}, {8, 31}, {32, n}, {12, 12}} {
		if !b.Defect(r[0], r[1]).IsIdentity() {
			t.Fatalf("clean range %v has a defect", r)
		}
	}
	for _, r := range [][2]int{{7, 8}, {0, 8}, {31, 32}, {20, n}} {
		if b.Defect(r[0], r[1]).IsIdentity() {
			t.Fatalf("range %v holds a bad proof and has none", r)
		}
	}
}

// TestDlogBatchWeightsAreFresh: two preparations of the same proofs
// weigh them differently, so nothing learnt from one call's outcome
// helps aim at the next. A build that kept a chunk's weights for the
// next call would fail here.
func TestDlogBatchWeightsAreFresh(t *testing.T) {
	contexts, publics, proofs := batchFixture(t, 4)
	proofs[2].S = proofs[2].S.Add(group.NewScalar(1))
	first := mustPrepare(t, contexts, publics, proofs).Defect(0, 4)
	second := mustPrepare(t, contexts, publics, proofs).Defect(0, 4)
	if first.IsIdentity() || second.IsIdentity() || first.Equal(second) {
		t.Fatal("two preparations of one bad batch produced the same defect")
	}
}

// TestDlogBatchCancellingDefectsConvicted is the attack the weights
// exist for: two proofs whose own defects are Δ and −Δ, which any
// unweighted (or equally weighted) product would pass. A thousand
// draws, every one must leave a defect on the pair and on each alone.
func TestDlogBatchCancellingDefectsConvicted(t *testing.T) {
	contexts, publics, proofs := batchFixture(t, 2)
	// The response is not hashed into the challenge, so shifting it by
	// ∓δ moves a proof's defect by exactly ±g^δ and nothing else.
	delta := group.MustRandomScalar()
	proofs[0].S = proofs[0].S.Sub(delta)
	proofs[1].S = proofs[1].S.Add(delta)
	for run := 0; run < 1000; run++ {
		b := mustPrepare(t, contexts, publics, proofs)
		if b.Defect(0, 2).IsIdentity() || b.Defect(0, 1).IsIdentity() || b.Defect(1, 2).IsIdentity() {
			t.Fatalf("run %d: cancelling defects passed", run)
		}
	}
}

// TestDlogBatchRefusedPublic: a proof VerifyDlogCommit refuses without
// looking at it — an identity public key, for which a prover can make
// the equation hold — fails every range it is in and no other.
func TestDlogBatchRefusedPublic(t *testing.T) {
	const n, at = 12, 5
	contexts, publics, proofs := batchFixture(t, n)
	v := group.MustRandomScalar()
	publics[at] = group.Identity()
	proofs[at] = DlogProof{T: group.Base(v), S: v} // g^s = T·1^c
	if err := VerifyDlogCommit(contexts[at], group.Generator(), publics[at], proofs[at]); err == nil {
		t.Fatal("the serial check accepts an identity public key")
	}
	b := mustPrepare(t, contexts, publics, proofs)
	if b.Defect(0, n).IsIdentity() || b.Defect(at, at+1).IsIdentity() {
		t.Fatal("an identity public key left no defect")
	}
	if !b.Defect(0, at).IsIdentity() || !b.Defect(at+1, n).IsIdentity() {
		t.Fatal("an identity public key left a defect on its neighbours")
	}
}
