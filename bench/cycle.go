package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/onion"
)

// roundStat is what the harness saw around one RunRound call.
type roundStat struct {
	rho        uint64
	traced     bool
	start, end int64 // recorder clock, traced rounds only
	wall, cpu  float64
	delivered  int
	blame      int
	// Exact counter differences across the RunRound call (conns) and
	// across the whole cycle including submissions (store).
	hopIn, hopOut, hopWrites, shardBytes int64
	storeAppends, storeSyncs, storeBytes int64
}

// runner drives one deployment through its rounds and keeps the
// samples.
type runner struct {
	d    *deployment
	in   *inputs
	gens int

	// probes build on behalf of in-process users (see probeBuilds).
	probes []*client.User

	rounds      []roundStat
	buildMs     []float64
	submitMs    []float64
	fetchMs     []float64
	openUs      []float64
	submitWall  float64
	submitted   int
	uploadBytes int
	// injected is the blame workload's submissions of the last round,
	// per chain, for the verify probe.
	injected map[int][]onion.Submission

	attempted, failed int
	structural        bool // a non-counted check failed
	notes             []string
	mu                sync.Mutex
}

func (r *runner) fail(n int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed += n
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// parallel runs fn(g, i) for every i in [0,n) over the generator
// goroutines, user i always on generator i mod gens.
func (r *runner) parallel(n int, fn func(g, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < r.gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += r.gens {
				fn(g, i)
			}
		}(g)
	}
	wg.Wait()
}

// paramsCache serves one round's chain parameters from memory: every
// user needs the same values, and fetching them per build would time
// the gateway's parameter endpoint, not the build.
type paramsCache map[[2]uint64]mix.Params

func fetchParams(src client.ParamsSource, chains int, rho uint64) (paramsCache, error) {
	c := make(paramsCache, 2*chains)
	for chain := 0; chain < chains; chain++ {
		for _, round := range []uint64{rho, rho + 1} {
			p, err := src.ChainParams(chain, round)
			if err != nil {
				return nil, err
			}
			c[[2]uint64{uint64(chain), round}] = p
		}
	}
	return c, nil
}

func (c paramsCache) ChainParams(chain int, round uint64) (mix.Params, error) {
	p, ok := c[[2]uint64{uint64(chain), round}]
	if !ok {
		return mix.Params{}, fmt.Errorf("bench: no cached parameters for chain %d round %d", chain, round)
	}
	return p, nil
}

func submissionBytes(sub onion.Submission) int {
	return len(sub.DHKey.Bytes()) + len(sub.Ct) + len(sub.Proof.Bytes())
}

func outputBytes(out *client.RoundOutput) int {
	n := 0
	for _, cm := range out.Current {
		n += submissionBytes(cm.Sub)
	}
	for _, cm := range out.Cover {
		n += submissionBytes(cm.Sub)
	}
	return n
}

// cycle runs one round end to end: generate and submit the round's
// inputs, run it, fetch and check its outputs. Only the RunRound call
// is the timed region; the generator is idle while it runs.
func (r *runner) cycle(traced bool) error {
	d, s := r.d, r.d.spec
	rho := d.net.Round()
	chains := d.net.NumChains()
	ell := len(d.users[0].Chains())
	store0 := [3]int64{d.stores.appends.Load(), d.stores.syncs.Load(), d.stores.bytes.Load()}

	offline := make(map[int]bool)
	for _, i := range r.in.Offline(rho) {
		offline[i] = true
		d.fes[0].SetOnline(d.users[i], false)
	}
	for i, u := range d.users {
		if offline[i] {
			continue
		}
		if err := u.QueueMessage(r.in.Body(rho, i)); err != nil {
			return fmt.Errorf("user %d queue: %w", i, err)
		}
	}

	var src client.ParamsSource = d.net
	if s.Wire {
		cache, err := fetchParams(d.fronts[0], chains, rho)
		if err != nil {
			return err
		}
		src = cache
	}
	if s.InProcess {
		if err := r.probeBuild(rho, src); err != nil {
			return err
		}
	} else if err := r.buildAndSubmit(rho, src); err != nil {
		return err
	}

	r.injected = make(map[int][]onion.Submission)
	wantBlamed := make(map[string]int)
	for c := 0; c < chains; c++ {
		for _, inj := range r.in.Injections(rho, c) {
			params, err := d.net.ChainParams(c, rho)
			if err != nil {
				return err
			}
			var sub onion.Submission
			if inj.InvalidProof {
				sub, err = mix.InvalidProofSubmission(aead.ChaCha20Poly1305(), params, rho, client.LaneCurrent)
			} else {
				sub, err = mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, rho, client.LaneCurrent, inj.Layer)
			}
			if err != nil {
				return err
			}
			d.net.InjectSubmission(c, sub)
			r.injected[c] = append(r.injected[c], sub)
			wantBlamed[fmt.Sprintf("injected:%d", c)]++
		}
	}

	// Collect the generator's garbage now, so the round is not billed
	// for it.
	runtime.GC()
	st := roundStat{rho: rho, traced: traced}
	hop0 := [3]int64{d.hopConns.in.Load(), d.hopConns.out.Load(), d.hopConns.writes.Load()}
	shard0 := d.shardConns.in.Load() + d.shardConns.out.Load()
	if traced {
		d.rec.on.Store(true)
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	rep, err := d.net.RunRound()
	st.wall, st.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if traced {
		st.start = t0.Sub(d.rec.epoch).Nanoseconds()
		st.end = st.start + int64(st.wall*1e9)
		d.rec.addSpan(span{Layer: "core", Name: "round", Round: rho, Chain: -1, Pos: -1, Shard: -1,
			Start: st.start, End: st.end, Count: s.Users})
		d.rec.on.Store(false)
	}
	st.hopIn, st.hopOut, st.hopWrites = d.hopConns.in.Load()-hop0[0], d.hopConns.out.Load()-hop0[1], d.hopConns.writes.Load()-hop0[2]
	st.shardBytes = d.shardConns.in.Load() + d.shardConns.out.Load() - shard0

	r.attempted++
	if err != nil || rep == nil {
		r.fail(1, "round %d: %v", rho, err)
		return fmt.Errorf("round %d: %w", rho, err)
	}
	st.delivered, st.blame = rep.Delivered, rep.BlameRounds
	r.checkReport(rep, s.Users*ell, len(offline), wantBlamed)
	r.fetchAndCheck(rho, ell, offline)

	// Back online, and back in conversation: spent covers told the
	// partner she left (§5.3.3), so both sides start over.
	for i := range offline {
		d.fes[0].SetOnline(d.users[i], true)
		if err := converse(d.users[i], d.users[r.in.Partner[i]]); err != nil {
			return err
		}
	}
	// Keep one round of mail, as an operator's retention would, so the
	// heap does not grow with the number of rounds a run fits in.
	for _, fe := range d.fes {
		fe.PruneBefore(rho)
	}
	st.storeAppends = d.stores.appends.Load() - store0[0]
	st.storeSyncs = d.stores.syncs.Load() - store0[1]
	st.storeBytes = d.stores.bytes.Load() - store0[2]
	r.rounds = append(r.rounds, st)
	return nil
}

// buildAndSubmit is the external users' half of a round: every user
// builds her ℓ messages and ℓ covers, then hands them to her gateway —
// a function call locally, a MultiClient.Submit on the wire. Building
// and submitting are separate phases so the submit rate is the
// gateway's, not the builder's.
func (r *runner) buildAndSubmit(rho uint64, src client.ParamsSource) error {
	d := r.d
	n := len(d.users)
	outs := make([]*client.RoundOutput, n)
	buildMs := make([]float64, n)
	errs := make([]error, n)
	r.parallel(n, func(_, i int) {
		t := time.Now()
		outs[i], errs[i] = d.users[i].BuildRound(rho, src)
		buildMs[i] = time.Since(t).Seconds() * 1e3
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("user %d build: %w", i, err)
		}
	}
	r.buildMs = append(r.buildMs, buildMs...)
	r.uploadBytes = outputBytes(outs[0])

	submitMs := make([]float64, n)
	t0 := time.Now()
	r.parallel(n, func(g, i int) {
		mb := d.users[i].Mailbox()
		t := time.Now()
		if d.spec.Wire {
			errs[i] = d.fronts[g].Submit(mb, outs[i])
		} else {
			errs[i] = d.fes[0].SubmitExternal(string(mb), outs[i])
		}
		submitMs[i] = time.Since(t).Seconds() * 1e3
	})
	wall := time.Since(t0).Seconds()
	r.attempted += n
	for i, err := range errs {
		if err != nil {
			r.fail(1, "round %d: user %d submit: %v", rho, i, err)
		}
	}
	if d.spec.Wire {
		r.submitMs = append(r.submitMs, submitMs...)
		r.submitWall += wall
		r.submitted += n
	}
	return nil
}

// probeBuild times BuildRound on users the harness holds itself,
// against the same parameters the gateway's own users are built with.
func (r *runner) probeBuild(rho uint64, src client.ParamsSource) error {
	if r.probes == nil {
		for g := 0; g < r.gens; g++ {
			r.probes = append(r.probes, client.NewUser(nil, r.d.net.Plan()))
		}
	}
	buildMs := make([]float64, probeBuilds)
	errs := make([]error, probeBuilds)
	outs := make([]*client.RoundOutput, r.gens)
	r.parallel(probeBuilds, func(g, i int) {
		t := time.Now()
		outs[g], errs[i] = r.probes[g].BuildRound(rho, src)
		buildMs[i] = time.Since(t).Seconds() * 1e3
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("probe build: %w", err)
		}
	}
	r.buildMs = append(r.buildMs, buildMs...)
	r.uploadBytes = outputBytes(outs[0])
	return nil
}

// checkReport holds the round's report against what the inputs say it
// must be. Every shortfall is a failed operation.
func (r *runner) checkReport(rep *core.RoundReport, wantDelivered, wantCovered int, wantBlamed map[string]int) {
	r.attempted += wantDelivered
	if rep.Delivered != wantDelivered {
		miss := wantDelivered - rep.Delivered
		if miss < 0 {
			miss = -miss
		}
		r.fail(miss, "round %d: delivered %d, want %d", rep.Round, rep.Delivered, wantDelivered)
	}
	if len(rep.HaltedChains)+len(rep.DeadChains)+len(rep.FailedChains)+len(rep.DeadShards)+len(rep.Stranded) > 0 {
		r.structural = true
		r.fail(1, "round %d: halted=%v dead=%v failed=%v deadShards=%v stranded=%d",
			rep.Round, rep.HaltedChains, rep.DeadChains, rep.FailedChains, rep.DeadShards, len(rep.Stranded))
	}
	if rep.OfflineCovered != wantCovered {
		r.structural = true
		r.fail(1, "round %d: %d offline users covered, want %d", rep.Round, rep.OfflineCovered, wantCovered)
	}
	// Blame verdicts: the convicted must be exactly the injected set.
	got := make(map[string]int)
	for _, who := range rep.BlamedUsers {
		got[who]++
	}
	for who, want := range wantBlamed {
		r.attempted += want
		if got[who] < want {
			r.fail(want-got[who], "round %d: %s convicted %d times, want %d", rep.Round, who, got[who], want)
		}
	}
	for who, n := range got {
		if n > wantBlamed[who] {
			r.structural = true
			r.fail(n-wantBlamed[who], "round %d: %q convicted but never injected", rep.Round, who)
		}
	}
	if wantRounds := len(wantBlamed) * 2; rep.BlameRounds != wantRounds {
		r.structural = true
		r.fail(1, "round %d: %d blame rounds, want %d", rep.Round, rep.BlameRounds, wantRounds)
	}
}

// fetchAndCheck downloads and opens every user's mailbox: ℓ messages,
// none undecryptable, and from the partner exactly the seeded body —
// or, where the partner was away, her covers' offline signal.
func (r *runner) fetchAndCheck(rho uint64, ell int, offline map[int]bool) {
	d := r.d
	n := len(d.users)
	fetchMs := make([]float64, n)
	openUs := make([]float64, n)
	r.parallel(n, func(g, i int) {
		u := d.users[i]
		var msgs [][]byte
		t := time.Now()
		if d.spec.Wire {
			var err error
			if msgs, err = d.fronts[g].Fetch(rho, u.Mailbox()); err != nil {
				r.fail(1, "round %d: user %d fetch: %v", rho, i, err)
				return
			}
		} else {
			msgs = d.frontendFor(u.Mailbox()).Fetch(u, rho)
		}
		fetchMs[i] = time.Since(t).Seconds() * 1e3
		t = time.Now()
		recv, bad := u.OpenMailbox(rho, msgs)
		openUs[i] = time.Since(t).Seconds() * 1e6

		partner := r.in.Partner[i]
		wantKind, wantBody := onion.KindConversation, r.in.Body(rho, partner)
		if offline[partner] {
			wantKind, wantBody = onion.KindOffline, nil
		}
		ok := false
		for _, m := range recv {
			if (m.FromPartner || m.FromFormerPartner) && m.Kind == wantKind && bytes.Equal(m.Body, wantBody) {
				ok = true
			}
		}
		if len(msgs) != ell || bad != 0 || !ok {
			r.fail(1, "round %d: user %d got %d messages (%d undecryptable), partner's message found=%v",
				rho, i, len(msgs), bad, ok)
		}
	})
	r.attempted += n
	r.openUs = append(r.openUs, openUs...)
	if d.spec.Wire {
		r.fetchMs = append(r.fetchMs, fetchMs...)
	}
}

// timed returns the timed rounds' statistics, traced or untraced.
func (r *runner) timed(traced bool) []roundStat {
	var out []roundStat
	for _, st := range r.rounds[warmupRounds:] {
		if st.traced == traced {
			out = append(out, st)
		}
	}
	return out
}

// column applies f to every element: one column of a table of rounds.
func column[T any](rows []T, f func(T) float64) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = f(row)
	}
	return out
}
