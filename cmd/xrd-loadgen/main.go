// Command xrd-loadgen drives open-loop load against a running XRD
// deployment and reports latency/throughput numbers in the same JSON
// shape benchjson archives (BENCH_*.json), so load-harness runs sit
// next to microbenchmark runs in the repo's performance trajectory.
//
// The harness models the paper's user population split: a large
// registered base (mailbox identifiers known to the gateway shards,
// §5.2 — they cost registry space and offline-cover bookkeeping but
// no per-round work) and a smaller active set that actually submits
// each round. Active users are real client.User instances arranged in
// conversation pairs, so every delivered message is decryptable and a
// sample is verified end to end after the round.
//
// Phases, each timed and reported as one benchmark entry:
//
//  1. register: push (registered - active) synthetic mailbox
//     identifiers plus every active user's real mailbox to the owning
//     gateway shards, in chunks (metric users/s).
//
//  2. build: every active user builds its round locally — onion
//     encryption for current + cover lanes (metric users/s).
//
//  3. submit: upload every active user's round output, open-loop at
//     -rate arrivals/s (0 = closed-loop as fast as the connections
//     go), recording per-submission latency from scheduled arrival to
//     acknowledgement (metrics subs/s, p50/p90/p99/max ms).
//
//  4. round: trigger one mixing round on the coordinator and wait for
//     delivery (metrics round-s, users/s, delivered).
//
//     xrd-loadgen -addr 127.0.0.1:7900 -cert xrd-gateway.pem \
//     -gateways "127.0.0.1:7911=gw1.pem,127.0.0.1:7912=gw2.pem" \
//     -registered 1000000 -active 100000 -out BENCH_load.json
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/rpc"
	"repro/internal/trace"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7900", "coordinator address")
		cert       = flag.String("cert", "xrd-gateway.pem", "coordinator certificate")
		gateways   = flag.String("gateways", "", `gateway shards as "addr=certfile,..." (empty: users talk to -addr directly)`)
		registered = flag.Int("registered", 1_000_000, "total registered user population")
		active     = flag.Int("active", 100_000, "users that submit this round (must be even; <= registered)")
		rate       = flag.Float64("rate", 0, "open-loop submission arrival rate per second (0 = closed loop)")
		workers    = flag.Int("workers", 4*runtime.GOMAXPROCS(0), "concurrent submission connections")
		sample     = flag.Int("sample", 64, "receivers to verify end to end after the round")
		out        = flag.String("out", "", "write the benchjson report here (default stdout)")
		seed       = flag.Int64("seed", 1, "workload seed: pairing, message bodies and the synthetic registered population are reproducible for a given seed (keys stay random)")
		admin      = flag.String("admin", "", `comma-separated admin endpoints ("host:port,...") to scrape after the round, merging server-side phase timings into the report`)
	)
	flag.Parse()
	if *active%2 != 0 {
		*active++ // conversation pairs
	}
	if *registered < *active {
		*registered = *active
	}

	endpoints, err := rpc.ParseEndpoints(*addr, *cert, *gateways)
	if err != nil {
		log.Fatal(err)
	}
	front, err := rpc.NewMultiClient(endpoints)
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	if err := front.Refresh(); err != nil {
		log.Fatalf("discovering gateways: %v", err)
	}
	st, err := front.Status()
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	fmt.Printf("xrd-loadgen: deployment at round %d, %d chains of %d, l=%d, %d gateway(s)\n",
		st.Round, st.NumChains, st.ChainLength, st.L, len(endpoints))
	plan, err := chainsel.NewPlan(st.NumChains)
	if err != nil {
		log.Fatal(err)
	}

	report := &benchReport{Goos: runtime.GOOS, Goarch: runtime.GOARCH}
	label := fmt.Sprintf("registered=%d,active=%d", *registered, *active)

	// Phase 1: active users (real keys) + synthetic registered base.
	fmt.Printf("xrd-loadgen: creating %d active users (seed %d)...\n", *active, *seed)
	users := makeUsers(plan, *active, *seed)
	regStart := time.Now()
	count := registerAll(front, users, *registered-*active, *seed)
	regDur := time.Since(regStart)
	fmt.Printf("xrd-loadgen: registered %d users in %s (%.0f users/s)\n",
		count, regDur.Round(time.Millisecond), float64(count)/regDur.Seconds())
	report.add("LoadgenRegister/"+label, int64(count), map[string]float64{
		"ns/op":   float64(regDur.Nanoseconds()) / float64(count),
		"users/s": float64(count) / regDur.Seconds(),
	})

	// Phase 2: build every active user's round output locally.
	round := st.Round
	fmt.Printf("xrd-loadgen: building round %d for %d users...\n", round, len(users))
	buildStart := time.Now()
	outs := buildAll(users, round, front)
	buildDur := time.Since(buildStart)
	fmt.Printf("xrd-loadgen: built %d round outputs in %s (%.0f users/s)\n",
		len(outs), buildDur.Round(time.Millisecond), float64(len(outs))/buildDur.Seconds())
	report.add("LoadgenBuild/"+label, int64(len(outs)), map[string]float64{
		"ns/op":   float64(buildDur.Nanoseconds()) / float64(len(outs)),
		"users/s": float64(len(outs)) / buildDur.Seconds(),
	})

	// Phase 3: open-loop submission.
	fmt.Printf("xrd-loadgen: submitting %d round outputs (rate=%v/s, %d workers)...\n",
		len(outs), *rate, *workers)
	subDur, lats := submitAll(endpoints, users, outs, *rate, *workers)
	h := histogram(lats)
	fmt.Printf("xrd-loadgen: %d submissions in %s (%.0f subs/s) latency p50=%.1fms p90=%.1fms p99=%.1fms max=%.1fms\n",
		len(outs), subDur.Round(time.Millisecond), float64(len(outs))/subDur.Seconds(),
		h["p50-ms"], h["p90-ms"], h["p99-ms"], h["max-ms"])
	metrics := map[string]float64{
		"ns/op":  float64(subDur.Nanoseconds()) / float64(len(outs)),
		"subs/s": float64(len(outs)) / subDur.Seconds(),
	}
	for k, v := range h {
		metrics[k] = v
	}
	report.add("LoadgenSubmit/"+label, int64(len(outs)), metrics)

	// Phase 4: the mixing round itself.
	coordTLS, err := rpc.ClientTLSFromFile(*cert)
	if err != nil {
		log.Fatal(err)
	}
	driver, err := rpc.Dial(*addr, coordTLS)
	if err != nil {
		log.Fatalf("dialing coordinator: %v", err)
	}
	driver.Timeout = 60 * time.Minute
	defer driver.Close()
	fmt.Println("xrd-loadgen: triggering round...")
	roundStart := time.Now()
	rep, err := driver.RunRound()
	if err != nil {
		log.Fatalf("round: %v", err)
	}
	roundDur := time.Since(roundStart)
	fmt.Printf("xrd-loadgen: round %d done in %s: delivered=%d halted=%v failed=%v\n",
		rep.Round, roundDur.Round(time.Millisecond), rep.Delivered, rep.HaltedChains, rep.FailedChains)
	if rep.Delivered < len(outs) {
		log.Fatalf("round delivered %d messages for %d submissions", rep.Delivered, len(outs))
	}
	report.add("LoadgenRound/"+label, 1, map[string]float64{
		"ns/op":     float64(roundDur.Nanoseconds()),
		"round-s":   roundDur.Seconds(),
		"users/s":   float64(len(outs)) / roundDur.Seconds(),
		"delivered": float64(rep.Delivered),
	})

	verifySample(front, users, rep.Round, *sample)

	if *admin != "" {
		scrapeAdmin(report, *admin)
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("xrd-loadgen: wrote %s\n", *out)
}

// makeUsers creates n client users and arranges them into the
// conversation pairing the seeded workload generator produces, each
// direction with one queued message from the workload's bodies. The
// pairing and bodies are reproducible for a given seed; the users'
// cryptographic keys are not (client keygen draws from crypto/rand),
// so a seed fixes the workload shape, not the wire bytes.
func makeUsers(plan *chainsel.Plan, n int, seed int64) []*client.User {
	w, err := trace.Generate(trace.Config{
		NumUsers:       n,
		PairedFraction: 1.0,
		BodySize:       64,
		Seed:           seed,
	})
	if err != nil {
		log.Fatalf("generating workload: %v", err)
	}
	users := make([]*client.User, n)
	par(len(users), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			users[i] = client.NewUser(nil, plan)
		}
	})
	for i, p := range w.Pairs {
		a, b := users[p[0]], users[p[1]]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			log.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			log.Fatal(err)
		}
		if err := a.QueueMessage(w.Bodies[i]); err != nil {
			log.Fatal(err)
		}
		if err := b.QueueMessage(w.Bodies[i]); err != nil {
			log.Fatal(err)
		}
	}
	return users
}

// syntheticRNG derives the deterministic stream the synthetic
// registered population's mailbox identifiers are drawn from.
func syntheticRNG(seed int64) *rand.ChaCha8 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	key := sha256.Sum256(buf[:])
	return rand.NewChaCha8(key)
}

// registerAll registers every active user's mailbox plus `synthetic`
// seeded identifiers, in chunks, and returns how many registered.
func registerAll(front *rpc.MultiClient, users []*client.User, synthetic int, seed int64) int {
	const chunk = 50_000
	total := 0
	push := func(batch [][]byte) {
		n, err := front.Register(batch)
		total += n
		if err != nil {
			log.Fatalf("register: after %d: %v", total, err)
		}
	}
	batch := make([][]byte, 0, chunk)
	for _, u := range users {
		batch = append(batch, u.Mailbox())
		if len(batch) == chunk {
			push(batch)
			batch = batch[:0]
		}
	}
	mbLen := 33
	if len(users) > 0 {
		mbLen = len(users[0].Mailbox())
	}
	rng := syntheticRNG(seed)
	for i := 0; i < synthetic; i++ {
		mb := make([]byte, mbLen)
		if _, err := rng.Read(mb); err != nil {
			log.Fatal(err)
		}
		batch = append(batch, mb)
		if len(batch) == chunk {
			push(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		push(batch)
	}
	return total
}

// buildAll builds every user's round output. Parameters are fetched
// once and served from memory: every user needs the same per-chain
// values, and 100k RPCs for identical bytes would measure the
// parameter cache, not the build.
func buildAll(users []*client.User, round uint64, src client.ParamsSource) []*client.RoundOutput {
	cache, err := newParamsCache(src, round)
	if err != nil {
		log.Fatalf("fetching chain parameters: %v", err)
	}
	outs := make([]*client.RoundOutput, len(users))
	par(len(users), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out, err := users[i].BuildRound(round, cache)
			if err != nil {
				log.Fatalf("user %d build: %v", i, err)
			}
			outs[i] = out
		}
	})
	return outs
}

// submitAll uploads every round output, open-loop when rate > 0:
// submission i is scheduled at start + i/rate and its latency runs
// from that scheduled arrival (so queueing delay counts, as it should
// in an open-loop harness). Each worker keeps its own connections.
func submitAll(endpoints []rpc.Endpoint, users []*client.User, outs []*client.RoundOutput, rate float64, workers int) (time.Duration, []time.Duration) {
	if workers < 1 {
		workers = 1
	}
	lats := make([]time.Duration, len(outs))
	var idx int64
	var mu sync.Mutex
	next := func() int {
		mu.Lock()
		defer mu.Unlock()
		if idx >= int64(len(outs)) {
			return -1
		}
		i := idx
		idx++
		return int(i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			front, err := rpc.NewMultiClient(endpoints)
			if err != nil {
				log.Fatal(err)
			}
			defer front.Close()
			if err := front.Refresh(); err != nil {
				log.Fatalf("worker refresh: %v", err)
			}
			for {
				i := next()
				if i < 0 {
					return
				}
				scheduled := start
				if rate > 0 {
					scheduled = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if d := time.Until(scheduled); d > 0 {
						time.Sleep(d)
					}
				} else {
					scheduled = time.Now()
				}
				if err := front.Submit(users[i].Mailbox(), outs[i]); err != nil {
					log.Fatalf("submit %d: %v", i, err)
				}
				lats[i] = time.Since(scheduled)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), lats
}

// verifySample fetches and decrypts a sample of receivers' mailboxes.
func verifySample(front *rpc.MultiClient, users []*client.User, round uint64, sample int) {
	if sample > len(users) {
		sample = len(users)
	}
	stride := 1
	if sample > 0 {
		stride = len(users) / sample
	}
	checked, got := 0, 0
	for i := 0; i < len(users) && checked < sample; i += stride {
		u := users[i]
		msgs, err := front.Fetch(round, u.Mailbox())
		if err != nil {
			log.Fatalf("fetch user %d: %v", i, err)
		}
		recv, bad := u.OpenMailbox(round, msgs)
		if bad != 0 {
			log.Fatalf("user %d: %d undecryptable messages", i, bad)
		}
		checked++
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation {
				got++
				break
			}
		}
	}
	if got < checked {
		log.Fatalf("verification: only %d of %d sampled users received their partner's message", got, checked)
	}
	fmt.Printf("xrd-loadgen: verified %d sampled mailboxes end to end\n", checked)
}

// paramsCache snapshots every chain's parameters for one round and
// the next, serving BuildRound from memory.
type paramsCache struct {
	round uint64
	cur   []mix.Params
	next  []mix.Params
}

func newParamsCache(src client.ParamsSource, round uint64) (*paramsCache, error) {
	st, err := src.(*rpc.MultiClient).Status()
	if err != nil {
		return nil, err
	}
	pc := &paramsCache{round: round, cur: make([]mix.Params, st.NumChains), next: make([]mix.Params, st.NumChains)}
	for c := 0; c < st.NumChains; c++ {
		if pc.cur[c], err = src.ChainParams(c, round); err != nil {
			return nil, err
		}
		if pc.next[c], err = src.ChainParams(c, round+1); err != nil {
			return nil, err
		}
	}
	return pc, nil
}

func (p *paramsCache) ChainParams(chain int, round uint64) (mix.Params, error) {
	if chain < 0 || chain >= len(p.cur) {
		return mix.Params{}, fmt.Errorf("loadgen: chain %d out of range", chain)
	}
	switch round {
	case p.round:
		return p.cur[chain], nil
	case p.round + 1:
		return p.next[chain], nil
	}
	return mix.Params{}, fmt.Errorf("loadgen: parameters for round %d not cached", round)
}

// par splits [0, n) across GOMAXPROCS goroutines.
func par(n int, f func(lo, hi int)) {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	per := (n + w - 1) / w
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// histogram reduces latencies to percentile metrics in milliseconds.
func histogram(lats []time.Duration) map[string]float64 {
	if len(lats) == 0 {
		return nil
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i].Microseconds()) / 1000
	}
	return map[string]float64{
		"p50-ms": at(0.50),
		"p90-ms": at(0.90),
		"p95-ms": at(0.95),
		"p99-ms": at(0.99),
		"max-ms": at(1.0),
	}
}

// benchReport mirrors cmd/benchjson's archived Report shape.
type benchReport struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func (r *benchReport) add(name string, iters int64, metrics map[string]float64) {
	r.Benchmarks = append(r.Benchmarks, benchmark{
		Pkg: "repro/cmd/xrd-loadgen", Name: name, Iterations: iters, Metrics: metrics,
	})
}
