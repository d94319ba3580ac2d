// Command xrd-sim drives an in-process XRD deployment with a
// synthetic workload (internal/trace): every user in a conversation,
// user churn and an optional attack, printing per-round reports and
// timing — the laptop-scale counterpart of the paper's testbed runs.
//
//	xrd-sim -users 200 -servers 20 -k 6 -rounds 5 -user-churn 0.05
//
// -workers sizes the round pipeline's build worker pool (0 = one per
// CPU); -workers 1 reproduces the serial build for comparisons.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/obs"
	"repro/internal/trace"
)

func main() {
	var (
		users     = flag.Int("users", 100, "number of users")
		servers   = flag.Int("servers", 20, "number of mix servers N")
		k         = flag.Int("k", 6, "chain length override")
		rounds    = flag.Int("rounds", 3, "rounds to run")
		userChurn = flag.Float64("user-churn", 0, "per-round probability a user goes offline")
		attack    = flag.Bool("attack", false, "corrupt one server with a product-preserving tamper")
		seed      = flag.Int64("seed", 1, "workload seed")
		workers   = flag.Int("workers", 0, "build worker pool size (0 = GOMAXPROCS)")
		adminAddr = flag.String("admin-addr", "", "plain-HTTP admin listen address serving /metrics, /healthz and /debug/pprof (empty = disabled)")
	)
	flag.Parse()

	// The users live on one full-range Frontend, the coordinator's only
	// gateway shard.
	fe, err := core.NewFrontend(core.FrontendConfig{Workers: *workers})
	if err != nil {
		log.Fatalf("assembling gateway: %v", err)
	}
	net, err := core.NewNetwork(core.Config{
		NumServers:          *servers,
		ChainLengthOverride: *k,
		Seed:                []byte("xrd-sim"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		log.Fatalf("assembling network: %v", err)
	}
	if *adminAddr != "" {
		as, err := obs.ServeAdmin(*adminAddr, obs.AdminConfig{Health: func() obs.Health {
			return obs.Health{
				Role:   "sim",
				Epoch:  net.Epoch(),
				Round:  net.Round(),
				Users:  fe.NumUsers(),
				Chains: net.NumChains(),
			}
		}})
		if err != nil {
			log.Fatalf("starting admin endpoint: %v", err)
		}
		defer as.Close()
		fmt.Printf("xrd-sim: admin endpoint on http://%s (/metrics, /healthz, /debug/pprof)\n", as.Addr())
	}
	w, err := trace.Generate(trace.Config{
		NumUsers:       *users,
		PairedFraction: 1,
		BodySize:       64,
		Seed:           *seed,
	})
	if err != nil {
		log.Fatalf("generating workload: %v", err)
	}
	population := make([]*client.User, *users)
	for i := range population {
		population[i] = fe.NewUser()
	}
	for i, p := range w.Pairs {
		a, b := population[p[0]], population[p[1]]
		if err := a.StartConversation(b.PublicKey()); err != nil {
			log.Fatal(err)
		}
		if err := b.StartConversation(a.PublicKey()); err != nil {
			log.Fatal(err)
		}
		if err := a.QueueMessage(w.Bodies[i]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("xrd-sim: %d users (%d conversing, %d idle) on %d chains of %d, l=%d, %d build workers\n",
		*users, w.PairedUsers(), w.IdleUsers(), net.NumChains(), net.Topology().ChainLength, net.Plan().L, fe.Workers())

	if *attack {
		if err := net.CorruptServer(0, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
			log.Fatal(err)
		}
		fmt.Println("xrd-sim: server (chain 0, position 1) is tampering")
	}

	sched, err := trace.GenerateChurn(*users, *rounds, *userChurn, *seed)
	if err != nil {
		log.Fatal(err)
	}

	for r := 0; r < *rounds; r++ {
		for _, u := range sched[r] {
			fe.SetOnline(population[u], false)
		}
		start := time.Now()
		rep, err := net.RunRound()
		if err != nil {
			log.Fatalf("round: %v", err)
		}
		elapsed := time.Since(start)

		received, undecryptable := 0, 0
		for _, u := range population {
			recv, bad := u.OpenMailbox(rep.Round, fe.Fetch(u, rep.Round))
			received += len(recv)
			undecryptable += bad
		}
		fmt.Printf("round %d: %.3fs delivered=%d received=%d undecryptable=%d halted=%v blamed-servers=%v covered=%d\n",
			rep.Round, elapsed.Seconds(), rep.Delivered, received, undecryptable,
			rep.HaltedChains, rep.BlamedServers, rep.OfflineCovered)
		if rep.Reformed {
			fmt.Printf("round %d: re-formed chains at epoch %d after evicting servers %v\n",
				rep.Round, rep.Epoch, rep.Evicted)
		}

		for _, u := range sched[r] {
			fe.SetOnline(population[u], true)
		}
		fe.PruneBefore(rep.Round)
	}
}
