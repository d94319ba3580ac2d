package repro

// One benchmark per table/figure of the paper's evaluation (§8), plus
// the ablation benches DESIGN.md calls out. Large-scale latency
// points come from the calibrated analytic models (internal/model);
// per-message crypto costs, wire sizes, blame runs and small
// end-to-end rounds are measured on this repository's real code. Each
// bench reports its figure's series through b.ReportMetric so
// `go test -bench` output doubles as the figure data.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/aead"
	"repro/internal/chainsel"
	"repro/internal/churn"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/model"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/topology"
)

// BenchmarkFig2UserBandwidth regenerates Figure 2: bytes each user
// uploads per round versus the number of servers, for XRD (from this
// repo's real wire sizes), Pung XPIR/SealPIR and Stadium (published
// models).
func BenchmarkFig2UserBandwidth(b *testing.B) {
	cal := model.PaperCalibration()
	for _, n := range []int{100, 500, 1000, 1500, 2000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			var bw int
			for i := 0; i < b.N; i++ {
				bw = cal.XRDUserBandwidth(n)
			}
			b.ReportMetric(float64(bw), "xrd-B")
			b.ReportMetric(float64(model.PungXPIRBandwidth(1_000_000)), "pung-xpir-1M-B")
			b.ReportMetric(float64(model.PungXPIRBandwidth(4_000_000)), "pung-xpir-4M-B")
			b.ReportMetric(float64(model.PungSealPIRBandwidth()), "pung-sealpir-B")
			b.ReportMetric(float64(model.StadiumBandwidth()), "stadium-B")
		})
	}
}

// BenchmarkFig3UserCompute regenerates Figure 3: single-core client
// computation per round versus servers. The XRD series is measured:
// the bench actually builds a full round of AHS submissions.
func BenchmarkFig3UserCompute(b *testing.B) {
	for _, n := range []int{36, 105} { // real builds at laptop scale
		b.Run(fmt.Sprintf("real/servers=%d", n), func(b *testing.B) {
			net, err := core.NewNetwork(core.Config{
				NumServers:          n,
				ChainLengthOverride: 32,
				Seed:                []byte("fig3"),
			})
			if err != nil {
				b.Fatal(err)
			}
			u := net.NewUser()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := u.BuildRound(net.Round(), net); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	cal := model.PaperCalibration()
	for _, n := range []int{100, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("model/servers=%d", n), func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s = cal.XRDUserCompute(n)
			}
			b.ReportMetric(s, "xrd-s")
			b.ReportMetric(model.PungUserCompute(1_000_000), "pung-1M-s")
			b.ReportMetric(model.StadiumUserCompute(), "stadium-s")
		})
	}
}

// BenchmarkFig4LatencyVsUsers regenerates Figure 4: end-to-end
// latency with 100 servers as users grow, for all four systems.
func BenchmarkFig4LatencyVsUsers(b *testing.B) {
	cal := model.PaperCalibration()
	for _, m := range []int{1_000_000, 2_000_000, 4_000_000, 8_000_000} {
		b.Run(fmt.Sprintf("users=%dM", m/1_000_000), func(b *testing.B) {
			var x float64
			for i := 0; i < b.N; i++ {
				x = cal.XRDLatency(m, 100)
			}
			b.ReportMetric(x, "xrd-s")
			b.ReportMetric(cal.AtomLatency(m, 100), "atom-s")
			b.ReportMetric(cal.PungLatency(m, 100), "pung-s")
			b.ReportMetric(cal.StadiumLatency(m, 100), "stadium-s")
		})
	}
}

// BenchmarkFig5LatencyVsServers regenerates Figure 5: latency for 2M
// users as servers grow; XRD falls as √2/√N, others as 1/N.
func BenchmarkFig5LatencyVsServers(b *testing.B) {
	cal := model.PaperCalibration()
	for _, n := range []int{50, 100, 150, 200, 1000, 3000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			var x float64
			for i := 0; i < b.N; i++ {
				x = cal.XRDLatency(2_000_000, n)
			}
			b.ReportMetric(x, "xrd-s")
			b.ReportMetric(cal.AtomLatency(2_000_000, n), "atom-s")
			b.ReportMetric(cal.PungLatency(2_000_000, n), "pung-s")
			b.ReportMetric(cal.StadiumLatency(2_000_000, n), "stadium-s")
		})
	}
}

// BenchmarkFig6ImpactOfF regenerates Figure 6: latency versus the
// assumed malicious fraction, driven by k(f) ∝ −1/log f.
func BenchmarkFig6ImpactOfF(b *testing.B) {
	cal := model.PaperCalibration()
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.45} {
		b.Run(fmt.Sprintf("f=%.2f", f), func(b *testing.B) {
			var x float64
			for i := 0; i < b.N; i++ {
				x = cal.XRDLatencyWithF(2_000_000, 100, f)
			}
			b.ReportMetric(x, "xrd-s")
			b.ReportMetric(float64(topology.ChainLength(f, 100, 64)), "k")
		})
	}
}

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

// BenchmarkFig8ChurnFailure regenerates Figure 8: conversation
// failure fraction under server churn, by Monte-Carlo simulation over
// the real topology and chain-selection plan.
func BenchmarkFig8ChurnFailure(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		for _, rate := range []float64{0.01, 0.02, 0.04} {
			b.Run(fmt.Sprintf("servers=%d/churn=%.2f", n, rate), func(b *testing.B) {
				var fail float64
				for i := 0; i < b.N; i++ {
					res, err := churn.Simulate(churn.Config{
						NumServers: n,
						F:          0.2,
						ChurnRate:  rate,
						Pairs:      2000,
						Trials:     10,
						Seed:       int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					fail = res.FailureRate
				}
				b.ReportMetric(fail, "failure-rate")
			})
		}
	}
}

// BenchmarkHeadlineEndToEnd measures a real, complete XRD round at
// laptop scale (the §8.2 experiment shrunk to one machine): 60 users
// on 12 chains of 8 servers, conversations on, covers on, AHS on.
func BenchmarkHeadlineEndToEnd(b *testing.B) {
	net, err := core.NewNetwork(core.Config{
		NumServers:          12,
		ChainLengthOverride: 8,
		Seed:                []byte("headline"),
	})
	if err != nil {
		b.Fatal(err)
	}
	users := make([]*client.User, 60)
	for i := range users {
		users[i] = net.NewUser()
	}
	for i := 0; i+1 < len(users); i += 2 {
		users[i].StartConversation(users[i+1].PublicKey())
		users[i+1].StartConversation(users[i].PublicKey())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := net.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.HaltedChains) != 0 {
			b.Fatal("halted")
		}
	}
}

// BenchmarkRoundPipeline measures the parallel round pipeline:
// end-to-end rounds (build fan-out over registry shards, concurrent
// chain mixing, concurrent mailbox delivery) swept over user counts
// and build-worker counts. Per-round user throughput is reported as
// users/s; comparing workers=1 against workers=GOMAXPROCS shows the
// pipeline's scaling on the host (near-linear until the chain-mix
// stage saturates). EXPERIMENTS.md records trajectories.
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
				net, err := core.NewNetwork(core.Config{
					NumServers:          6,
					ChainLengthOverride: 2,
					Seed:                []byte("pipeline"),
					MailboxServers:      4,
					Workers:             workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				population := make([]*client.User, users)
				for i := range population {
					population[i] = net.NewUser()
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
					net.PruneBefore(rep.Round)
				}
				b.StopTimer()
				b.ReportMetric(float64(users)*float64(b.N)/b.Elapsed().Seconds(), "users/s")
			})
		}
	}
}

// BenchmarkAblationAHSVsBaseline quantifies what active-attack
// protection costs (§6's motivation): the same batch through the same
// chain with AHS verification versus plain Algorithm 1.
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
		nonce := aead.RoundNonce(1, 0)
		params := chain.Params()
		cts := make([][]byte, msgs)
		for i := range cts {
			msg := makeMailboxMsg(b, scheme, nonce, byte(i))
			ct, err := onion.WrapBaseline(scheme, params.BaselineKeys, nonce, msg)
			if err != nil {
				b.Fatal(err)
			}
			cts[i] = ct
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := chain.RunRoundBaseline(1, 0, cts)
			if err != nil || len(out) != msgs {
				b.Fatalf("err=%v delivered=%d", err, len(out))
			}
		}
	})
}

// BenchmarkAblationVerifiableShuffle compares AHS's per-message
// server cost (1 DH + 1 blinding exponentiation) against the ≥8
// exponentiations per message of a Neff-style verifiable shuffle —
// the paper's core efficiency claim against [39,24,8,26].
func BenchmarkAblationVerifiableShuffle(b *testing.B) {
	p := group.Base(group.MustRandomScalar())
	s := group.MustRandomScalar()
	b.Run("ahs-2-exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Mul(s)
			p.Mul(s)
		}
	})
	b.Run("verifiable-shuffle-8-exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for e := 0; e < 8; e++ {
				p.Mul(s)
			}
		}
	})
}

// BenchmarkAblationStaggering measures §5.2.1's utilisation
// optimisation: position spread with and without staggering.
func BenchmarkAblationStaggering(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "staggered"
		if disabled {
			name = "aligned"
		}
		b.Run(name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				topo, err := topology.Build(topology.Config{
					NumServers:        64,
					F:                 0.2,
					Seed:              []byte("ablation"),
					DisableStaggering: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for s := 0; s < 64; s++ {
					sum += topo.PositionSpread(s)
				}
				spread = sum / 64
			}
			b.ReportMetric(spread, "position-spread")
		})
	}
}

// BenchmarkAblationCoverMessages quantifies §5.3.3: cover traffic
// doubles the client's build cost ("the cover messages make up half
// of the client overhead", §8.1).
func BenchmarkAblationCoverMessages(b *testing.B) {
	net, err := core.NewNetwork(core.Config{
		NumServers:          36,
		ChainLengthOverride: 8,
		Seed:                []byte("covers"),
	})
	if err != nil {
		b.Fatal(err)
	}
	u := net.NewUser()
	b.Run("with-covers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := u.BuildRound(net.Round(), net); err != nil {
				b.Fatal(err)
			}
		}
	})
	cal := model.PaperCalibration()
	b.Run("bandwidth-ratio", func(b *testing.B) {
		var with int
		for i := 0; i < b.N; i++ {
			with = cal.XRDUserBandwidth(100)
		}
		b.ReportMetric(float64(with), "with-covers-B")
		b.ReportMetric(float64(with)/2, "without-covers-B")
	})
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

// BenchmarkChainSelection measures the publicly computable plan
// construction users run at join time (§5.3.1).
func BenchmarkChainSelection(b *testing.B) {
	for _, n := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("chains=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chainsel.NewPlan(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- helpers ---

func makeMailboxMsg(b *testing.B, scheme aead.Scheme, nonce [aead.NonceSize]byte, tag byte) []byte {
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
			x := group.MustRandomScalar()
			subs[i] = onion.Submission{
				Envelope: onion.Envelope{DHKey: group.Base(x)},
				Proof:    nizk.ProveDlogCommit(ctx, group.Generator(), x),
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
