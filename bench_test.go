package repro

// The benchmarks of the paper's evaluation (§8) that run this
// repository's real code and have no home in a package: Figure 7's
// blame runs, the round pipeline's worker scaling, AHS against the
// paper's Algorithm 1, the AEAD choice and batched submission-proof
// verification. The figures that are formulas (internal/model,
// churn.Simulate) are what cmd/xrd-experiments prints; EXPERIMENTS.md's
// figure ledger names the one command behind every figure.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/mix"
	"repro/internal/model"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// BenchmarkFig7BlameLatency regenerates Figure 7 at laptop scale: a
// real chain runs the real blame protocol against real malicious
// submissions, and the per-user cost scales the model to the paper's
// axis. The batch is 512 honest messages and the malicious ones fail
// at two layers (k/3 and k−1, alternately), so a cost per batch — a
// position mixing the survivors over again — shows as a step per
// blame run over the malicious=0 row; the figure's shape, and the
// model's, is a line in the number of convicts.
func BenchmarkFig7BlameLatency(b *testing.B) {
	scheme := aead.ChaCha20Poly1305()
	const k, honest = 8, 512
	for _, bad := range []int{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("real/malicious=%d", bad), func(b *testing.B) {
			chain, err := mix.NewChain(0, k, scheme)
			if err != nil {
				b.Fatal(err)
			}
			if err := chain.BeginRound(1); err != nil {
				b.Fatal(err)
			}
			params := chain.Params()
			subs := makeHonestSubs(b, chain, honest)
			for i := 0; i < bad; i++ {
				layer := k - 1
				if i%2 == 1 {
					layer = k / 3
				}
				m, err := mix.MaliciousSubmission(scheme, params, 1, 0, layer)
				if err != nil {
					b.Fatal(err)
				}
				subs = append(subs, m)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := chain.RunRound(1, 0, subs)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.BlamedUsers) != bad || len(res.Delivered) != honest {
					b.Fatalf("blamed %d and delivered %d, want %d and %d", len(res.BlamedUsers), len(res.Delivered), bad, honest)
				}
			}
		})
	}
	cal := model.PaperCalibration()
	for _, u := range []int{5_000, 20_000, 50_000, 80_000, 100_000} {
		b.Run(fmt.Sprintf("model/malicious=%d", u), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s = cal.BlameLatency(u, 100)
			}
			b.ReportMetric(s, "blame-s")
		})
	}
}

// BenchmarkRoundPipeline measures the parallel round pipeline:
// end-to-end rounds (build fan-out over registry shards, concurrent
// chain mixing, concurrent mailbox delivery) swept over user counts
// and build-worker counts. Per-round user throughput is reported as
// users/s; comparing workers=1 against workers=GOMAXPROCS shows the
// pipeline's scaling on the host (near-linear until the chain-mix
// stage saturates). EXPERIMENTS.md's figure ledger has the sweep.
func BenchmarkRoundPipeline(b *testing.B) {
	maxWorkers := runtime.GOMAXPROCS(0)
	workerCounts := []int{1}
	for w := 2; w <= maxWorkers; w *= 2 {
		workerCounts = append(workerCounts, w)
	}
	if last := workerCounts[len(workerCounts)-1]; last != maxWorkers {
		workerCounts = append(workerCounts, maxWorkers)
	}
	for _, users := range []int{100, 1_000, 10_000} {
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("users=%d/workers=%d", users, workers), func(b *testing.B) {
				fe, err := core.NewFrontend(core.FrontendConfig{MailboxServers: 4, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				net, err := core.NewNetwork(core.Config{
					NumServers:          6,
					ChainLengthOverride: 2,
					Seed:                []byte("pipeline"),
					Shards:              []core.GatewayShard{fe},
				})
				if err != nil {
					b.Fatal(err)
				}
				population := make([]*client.User, users)
				for i := range population {
					population[i] = fe.NewUser()
				}
				// A tenth of the population converses so the batches
				// carry a realistic mix of loopbacks and messages.
				for i := 0; i+1 < len(population)/10; i += 2 {
					a, p := population[i], population[i+1]
					if err := a.StartConversation(p.PublicKey()); err != nil {
						b.Fatal(err)
					}
					if err := p.StartConversation(a.PublicKey()); err != nil {
						b.Fatal(err)
					}
				}
				l := net.Plan().L
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := net.RunRound()
					if err != nil {
						b.Fatal(err)
					}
					if len(rep.HaltedChains) != 0 {
						b.Fatal("halted")
					}
					if rep.Delivered != users*l {
						b.Fatalf("delivered %d, want %d", rep.Delivered, users*l)
					}
					fe.PruneBefore(rep.Round)
				}
				b.StopTimer()
				b.ReportMetric(float64(users)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
			})
		}
	}
}

// BenchmarkAblationAHSVsBaseline quantifies what active-attack
// protection costs (§6's motivation): the same batch through a chain
// of the same length with AHS verification versus plain Algorithm 1
// (algorithm1 below, which exists only for this question).
func BenchmarkAblationAHSVsBaseline(b *testing.B) {
	scheme := aead.ChaCha20Poly1305()
	const k, msgs = 8, 64
	chain, err := mix.NewChain(0, k, scheme)
	if err != nil {
		b.Fatal(err)
	}
	if err := chain.BeginRound(1); err != nil {
		b.Fatal(err)
	}
	b.Run("ahs", func(b *testing.B) {
		subs := makeHonestSubs(b, chain, msgs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := chain.RunRound(1, 0, subs)
			if err != nil || len(res.Delivered) != msgs {
				b.Fatalf("err=%v delivered=%d", err, len(res.Delivered))
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		a := newAlgorithm1(scheme, k)
		nonce := aead.RoundNonce(1, 0)
		cts := make([][]byte, msgs)
		for i := range cts {
			cts[i] = a.wrap(nonce, makeMailboxMsg(b, scheme, nonce, byte(i)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out := a.run(nonce, cts); len(out) != msgs {
				b.Fatalf("delivered %d of %d", len(out), msgs)
			}
		}
	})
}

// algorithm1 is the paper's naive mix chain (Algorithm 1, onions as in
// Algorithm 2), secure only against passive adversaries: every layer
// carries its own ephemeral Diffie-Hellman key, and each position
// peels its layer with a plain key pair and shuffles, proving nothing.
// A message that fails to open is dropped with nobody blamed, which is
// what AHS (§6) exists to prevent. XRD itself never runs it.
type algorithm1 struct {
	scheme aead.Scheme
	keys   []group.KeyPair // one per position, first first
}

func newAlgorithm1(scheme aead.Scheme, k int) algorithm1 {
	a := algorithm1{scheme: scheme, keys: make([]group.KeyPair, k)}
	for i := range a.keys {
		a.keys[i] = group.GenerateBaseKeyPair()
	}
	return a
}

// algorithm1Size is an onion's size through k positions: each layer
// prepends an ephemeral key and appends an AEAD tag.
func algorithm1Size(k int) int {
	return onion.MailboxMessageSize + k*(group.PointSize+aead.Overhead)
}

// wrap builds cᵢ = (g^xᵢ, AEnc(DH(pkᵢ, xᵢ), ρ, cᵢ₊₁)) around a mailbox
// message, innermost layer for the last position.
func (a algorithm1) wrap(nonce [aead.NonceSize]byte, msg []byte) []byte {
	ct := append([]byte(nil), msg...)
	for i := len(a.keys) - 1; i >= 0; i-- {
		x := group.MustRandomScalar()
		key := [aead.KeySize]byte(kdf.OnionKey(group.DH(a.keys[i].Public, x)))
		ct = a.scheme.Seal(group.Base(x).Bytes(), &key, &nonce, ct)
	}
	return ct
}

// peel removes position i's layer.
func (a algorithm1) peel(i int, nonce [aead.NonceSize]byte, ct []byte) ([]byte, error) {
	if len(ct) < group.PointSize+aead.Overhead {
		return nil, fmt.Errorf("layer of %d bytes", len(ct))
	}
	eph, err := group.ParsePoint(ct[:group.PointSize])
	if err != nil {
		return nil, err
	}
	key := [aead.KeySize]byte(kdf.OnionKey(group.DH(eph, a.keys[i].Private)))
	return a.scheme.Open(nil, &key, &nonce, ct[group.PointSize:])
}

// run passes a batch through every position in turn: each peels its
// layer of every message on GOMAXPROCS goroutines, silently drops the
// ones that fail and shuffles the rest.
func (a algorithm1) run(nonce [aead.NonceSize]byte, cts [][]byte) [][]byte {
	cur := cts
	for i := range a.keys {
		next := make([][]byte, len(cur))
		var wg sync.WaitGroup
		workers := runtime.GOMAXPROCS(0)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(cur); j += workers {
					next[j], _ = a.peel(i, nonce, cur[j])
				}
			}(w)
		}
		wg.Wait()
		kept := next[:0]
		for _, m := range next {
			if m != nil {
				kept = append(kept, m)
			}
		}
		rand.Shuffle(len(kept), func(x, y int) { kept[x], kept[y] = kept[y], kept[x] })
		cur = kept
	}
	return cur
}

// TestBaselineOnionPeelsToMailboxMessage: algorithm1's onion has its
// fixed size and its positions peel it, in order, to the mailbox
// message.
func TestBaselineOnionPeelsToMailboxMessage(t *testing.T) {
	const k = 5
	a := newAlgorithm1(aead.ChaCha20Poly1305(), k)
	nonce := aead.RoundNonce(1, 0)
	msg := makeMailboxMsg(t, a.scheme, nonce, 1)
	ct := a.wrap(nonce, msg)
	if len(ct) != algorithm1Size(k) {
		t.Fatalf("ciphertext size %d, want %d", len(ct), algorithm1Size(k))
	}
	for i := 0; i < k; i++ {
		var err error
		if ct, err = a.peel(i, nonce, ct); err != nil {
			t.Fatalf("position %d peel: %v", i, err)
		}
	}
	if string(ct) != string(msg) {
		t.Fatal("peeled onion does not match mailbox message")
	}
}

func TestBaselinePeelOutOfOrderFails(t *testing.T) {
	a := newAlgorithm1(aead.ChaCha20Poly1305(), 3)
	nonce := aead.RoundNonce(1, 0)
	ct := a.wrap(nonce, makeMailboxMsg(t, a.scheme, nonce, 1))
	if _, err := a.peel(1, nonce, ct); err == nil {
		t.Fatal("second position peeled the first layer")
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	a := newAlgorithm1(aead.ChaCha20Poly1305(), 4)
	nonce := aead.RoundNonce(1, 0)
	const n = 10
	cts := make([][]byte, n)
	want := make(map[string]bool, n)
	for i := range cts {
		msg := makeMailboxMsg(t, a.scheme, nonce, byte(i))
		want[string(msg)] = true
		cts[i] = a.wrap(nonce, msg)
	}
	out := a.run(nonce, cts)
	if len(out) != n {
		t.Fatalf("delivered %d of %d", len(out), n)
	}
	for _, m := range out {
		if !want[string(m)] {
			t.Fatal("delivered an unexpected message")
		}
	}
}

// TestBaselineSilentlyDropsTampered documents why AHS exists: Algorithm
// 1 cannot attribute tampering, or even report it.
func TestBaselineSilentlyDropsTampered(t *testing.T) {
	a := newAlgorithm1(aead.ChaCha20Poly1305(), 3)
	nonce := aead.RoundNonce(1, 0)
	ct := a.wrap(nonce, makeMailboxMsg(t, a.scheme, nonce, 1))
	ct[40] ^= 1
	if out := a.run(nonce, [][]byte{ct}); len(out) != 0 {
		t.Fatal("tampered message was delivered")
	}
}

// BenchmarkAblationAEAD compares the from-scratch ChaCha20-Poly1305
// against stdlib AES-GCM on the system's message size.
func BenchmarkAblationAEAD(b *testing.B) {
	for _, s := range []aead.Scheme{aead.ChaCha20Poly1305(), aead.AESGCM()} {
		b.Run(s.Name(), func(b *testing.B) {
			var key [aead.KeySize]byte
			nonce := aead.RoundNonce(1, 0)
			msg := make([]byte, onion.PlaintextSize)
			buf := make([]byte, 0, len(msg)+aead.Overhead)
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				buf = s.Seal(buf[:0], &key, &nonce, msg)
			}
		})
	}
}

// --- helpers ---

func makeMailboxMsg(b testing.TB, scheme aead.Scheme, nonce [aead.NonceSize]byte, tag byte) []byte {
	b.Helper()
	recipient := group.Base(group.NewScalar(int64(tag) + 1))
	var key [32]byte
	key[0] = tag
	var kk [aead.KeySize]byte
	copy(kk[:], key[:])
	pt, err := (onion.Payload{Kind: onion.KindLoopback}).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	return append(recipient.Bytes(), scheme.Seal(nil, &kk, &nonce, pt)...)
}

func makeHonestSubs(b *testing.B, chain *mix.Chain, n int) []onion.Submission {
	b.Helper()
	scheme := aead.ChaCha20Poly1305()
	params := chain.Params()
	nonce := aead.RoundNonce(params.Round, 0)
	subs := make([]onion.Submission, n)
	for i := range subs {
		msg := makeMailboxMsg(b, scheme, nonce, byte(i))
		sub, err := onion.WrapAHS(scheme, params.InnerAggregate, params.MixKeys, params.Round, params.ChainID, nonce, msg)
		if err != nil {
			b.Fatal(err)
		}
		subs[i] = sub
	}
	return subs
}

// BenchmarkSubmissionVerify measures the tentpole of the batched
// verification work: the per-round submission proof check, serial
// (one VerifyDlogCommit per proof, as the seed did) versus batched
// (mix.VerifySubmissionProofs: one multi-scalar multiplication per
// chunk, fanned over the worker pool). The us/proof metrics are the
// comparable series; batch must stay well above 2x at 4096. The dirty
// rows price blame attribution: bad proofs at the end of the batch (1,
// 2), spread evenly (16) and one in every bisection leaf (n/8, the
// flood), as us/convict beside us/proof — the clean row of the same n
// is what a convict is paid over.
func BenchmarkSubmissionVerify(b *testing.B) {
	const round, chain = 1, 0
	makeProofSubs := func(n int) []onion.Submission {
		ctx := onion.SubmitContext(round, chain)
		subs := make([]onion.Submission, n)
		for i := range subs {
			x, v := group.MustRandomScalar(), group.MustRandomScalar()
			subs[i] = onion.Submission{
				Envelope: onion.Envelope{DHKey: group.Base(x)},
				Proof:    nizk.ProveDlogCommitPrecomputed(ctx, group.Generator(), group.Base(x), x, v, group.Base(v)),
			}
		}
		return subs
	}
	for _, n := range []int{256, 400, 1024, 4096} {
		subs := makeProofSubs(n)
		b.Run(fmt.Sprintf("serial/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range subs {
					if err := onion.VerifySubmission(subs[j], round, chain); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "us/proof")
		})
		b.Run(fmt.Sprintf("batch/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if bad := mix.VerifySubmissionProofs(subs, round, chain); len(bad) != 0 {
					b.Fatalf("valid batch blamed %v", bad)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(n), "us/proof")
		})
		if n != 400 && n != 4096 {
			continue
		}
		for _, bad := range []int{1, 2, 16, n / 8} {
			dirty := append([]onion.Submission(nil), subs...)
			for t := 0; t < bad; t++ {
				i := n - 1 - t // 1, 2: the end of the last chunk
				if bad > 2 {
					i = t * (n / bad)
				}
				dirty[i].Proof.S = dirty[i].Proof.S.Add(group.NewScalar(1))
			}
			b.Run(fmt.Sprintf("dirty/n=%d/bad=%d", n, bad), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := mix.VerifySubmissionProofs(dirty, round, chain); len(got) != bad {
						b.Fatalf("blamed %d of %d bad proofs", len(got), bad)
					}
				}
				us := float64(b.Elapsed().Microseconds()) / float64(b.N)
				b.ReportMetric(us/float64(n), "us/proof")
				b.ReportMetric(us/float64(bad), "us/convict")
			})
		}
	}
}
