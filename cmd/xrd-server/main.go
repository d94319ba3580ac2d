// Command xrd-server runs one process of an XRD deployment. Three
// roles:
//
// Role "coordinator" (default) assembles the deployment — mix chains,
// chain-selection plan, round driver (Figure 1) — and drives one
// logical round per interval (or per client trigger). With no
// -gateways it also hosts the entire user base in-process: the
// single-machine monolith. With -gateways the user base lives in
// separate gateway-shard processes, each owning a contiguous slice of
// the 64-shard registry, and the coordinator fans each round out to
// them (begin/batch/deliver/finish; see internal/core/shard.go).
//
// Role "gateway" hosts one gateway shard: registration, submission
// intake, cover banking and mailbox storage for the users whose
// mailbox identifiers hash into its -shard-range. It serves users
// (xrd-client, xrd-loadgen) and its coordinator on one TLS listener,
// and learns the epoch/round/parameters from the coordinator.
//
// Role "mix" hosts a single mix server at one chain position. It
// starts keyless and unbound; the coordinator binds it to its
// position (and supplies the base its keys chain off) during setup.
// Which position it serves is decided by the coordinator's -hops or
// -mix-servers flag.
//
// -hops keys remote processes by chain coordinate ("chain:pos=...").
// -mix-servers keys them by server identity ("id=...") instead, which
// is what epoch recovery needs: after a halt the coordinator evicts
// the blamed server, re-forms the chains from the survivors and
// re-binds each surviving process at its new coordinate — only a
// stable identity survives that re-shuffle. -mix-servers therefore
// enables recovery (-recover) by default.
//
// Every process writes its pinned TLS certificate to -cert-out (the
// paper's assumed PKI distributes server identities; the files play
// that role here): clients pin the gateways', the coordinator pins
// each mix and gateway process's.
//
//	xrd-server -role mix -addr 127.0.0.1:7901 -cert-out mix1.pem
//	xrd-server -role mix -addr 127.0.0.1:7902 -cert-out mix2.pem
//	xrd-server -role mix -addr 127.0.0.1:7903 -cert-out mix3.pem
//	xrd-server -role gateway -addr 127.0.0.1:7911 -shard-range 0:32 -cert-out gw1.pem
//	xrd-server -role gateway -addr 127.0.0.1:7912 -shard-range 32:64 -cert-out gw2.pem
//	xrd-server -addr 127.0.0.1:7900 -servers 3 -chains 1 -k 3 \
//	    -mix-servers "0=127.0.0.1:7901=mix1.pem,1=127.0.0.1:7902=mix2.pem,2=127.0.0.1:7903=mix3.pem" \
//	    -gateways "0:32=127.0.0.1:7911=gw1.pem,32:64=127.0.0.1:7912=gw2.pem"
//
// -faults injects deterministic connection faults (drops, delays,
// corruption, partitions — see internal/faults) into the hop
// transport: on the coordinator it wraps every hop connection it
// dials, on a mix it wraps every connection it accepts. The chaos
// end-to-end suite drives a live deployment through halts and
// recovery with it.
package main

import (
	"crypto/tls"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/store"
)

func main() {
	var (
		role       = flag.String("role", "coordinator", "process role: coordinator (chains + round driver), gateway (one user-base shard) or mix (one remote chain position)")
		addr       = flag.String("addr", "127.0.0.1:7900", "TLS listen address")
		certOut    = flag.String("cert-out", "xrd-gateway.pem", "file to write the pinned TLS certificate to")
		servers    = flag.Int("servers", 20, "number of mix servers N (coordinator)")
		chains     = flag.Int("chains", 0, "number of chains n (0 means n = N as in the paper)")
		k          = flag.Int("k", 6, "chain length override (0 derives k from -f)")
		f          = flag.Float64("f", 0.2, "assumed fraction of malicious servers")
		seed       = flag.String("seed", "public-beacon", "public randomness seed for chain formation")
		boxes      = flag.Int("mailboxes", 2, "mailbox server count (coordinator monolith or gateway shard)")
		workers    = flag.Int("workers", 0, "build worker pool size (0 = GOMAXPROCS)")
		interval   = flag.Duration("interval", 10*time.Second, "round interval (0 = rounds only via client trigger)")
		hops       = flag.String("hops", "", `remote chain positions as "chain:pos=addr=certfile,..." (coordinator role)`)
		mixServers = flag.String("mix-servers", "", `remote mix processes as "id=addr=certfile,..." keyed by server identity (coordinator role; enables -recover)`)
		gateways   = flag.String("gateways", "", `remote gateway shards as "lo:hi=addr=certfile,..." partitioning the 64 registry shards (coordinator role)`)
		shardRange = flag.String("shard-range", "0:64", `registry-shard range this gateway owns, as "lo:hi" (gateway role)`)
		dataDir    = flag.String("data-dir", "", "directory for durable WAL+snapshot state; restart with the same directory to recover (gateway role; empty = in-memory only)")
		recoverOn  = flag.Bool("recover", false, "evict blamed servers and re-form chains after a halt (on by default with -mix-servers)")
		pipeline   = flag.Int("pipeline", 1, "round pipeline depth (coordinator role): 2 overlaps the next round's build with the current mix — for gateway-hosted users only; remote clients find no submission window open after round 1")
		faultSpec  = flag.String("faults", "", `fault-injection spec, e.g. "delay,target=srv1,delay=2s,after=3;drop,target=srv2" (see internal/faults)`)
		faultSeed  = flag.Int64("fault-seed", 1, "deterministic seed for -faults probability coins")
		adminAddr  = flag.String("admin-addr", "", "plain-HTTP admin listen address serving /metrics, /healthz and /debug/pprof (empty = disabled; bind to loopback or a management network)")
	)
	flag.Parse()

	var inj *faults.Injector
	if *faultSpec != "" {
		var err error
		inj, err = faults.Parse(*faultSpec, *faultSeed)
		if err != nil {
			log.Fatalf("parsing -faults: %v", err)
		}
	}

	switch *role {
	case "coordinator":
		runCoordinator(coordinatorOpts{
			addr:        *addr,
			certOut:     *certOut,
			servers:     *servers,
			chains:      *chains,
			k:           *k,
			f:           *f,
			seed:        *seed,
			boxes:       *boxes,
			workers:     *workers,
			interval:    *interval,
			hopSpec:     *hops,
			serverSpec:  *mixServers,
			gatewaySpec: *gateways,
			recover:     *recoverOn || *mixServers != "",
			pipeline:    *pipeline,
			inj:         inj,
			adminAddr:   *adminAddr,
		})
	case "gateway":
		runGatewayShard(*addr, *certOut, *shardRange, *dataDir, *adminAddr, *boxes, *workers)
	case "mix":
		runMix(*addr, *certOut, *adminAddr, inj)
	default:
		log.Fatalf("unknown role %q (want coordinator, gateway or mix)", *role)
	}
}

// startAdmin starts the observability endpoint when -admin-addr is
// set; it returns a closer (a no-op when disabled).
func startAdmin(addr, role string, health func() obs.Health) func() {
	if addr == "" {
		return func() {}
	}
	as, err := obs.ServeAdmin(addr, obs.AdminConfig{Health: health})
	if err != nil {
		log.Fatalf("starting admin endpoint: %v", err)
	}
	fmt.Printf("xrd-server[%s]: admin endpoint on http://%s (/metrics, /healthz, /debug/pprof)\n", role, as.Addr())
	return func() { as.Close() }
}

// runMix hosts one chain position behind the hop transport and waits.
func runMix(addr, certOut, adminAddr string, inj *faults.Injector) {
	hs, err := rpc.NewHopServer(addr, nil)
	if err != nil {
		log.Fatalf("starting hop endpoint: %v", err)
	}
	defer hs.Close()
	closeAdmin := startAdmin(adminAddr, "mix", func() obs.Health {
		bound, epoch, chain, index, round := hs.HealthInfo()
		h := obs.Health{Role: "mix", Epoch: epoch, Round: round}
		if bound {
			h.Chain, h.Position = chain, index
		}
		return h
	})
	defer closeAdmin()
	if inj != nil {
		hs.SetConnWrapper(inj.Wrapper("accept@" + addr))
	}
	if err := writeCert(hs.CertificatePEM, certOut); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("xrd-server[mix]: hop endpoint on %s (certificate in %s), waiting for coordinator binding\n", hs.Addr(), certOut)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("\nxrd-server[mix]: shutting down")
}

// runGatewayShard hosts one gateway front-end shard and waits for its
// coordinator (shard.init pushes epoch/round/parameters) and users.
// With -data-dir the shard's registry, mailboxes and pending
// submissions live in a WAL+snapshot store there: a SIGKILLed process
// restarted over the same directory replays to its pre-crash
// watermark and resumes serving (the coordinator re-adopts it through
// the ordinary rebalance path).
func runGatewayShard(addr, certOut, shardRange, dataDir, adminAddr string, boxes, workers int) {
	lo, hi, err := parseIntPair(shardRange, "lo:hi")
	if err != nil {
		log.Fatalf("parsing -shard-range: %v", err)
	}
	cfg := core.FrontendConfig{
		Range:          core.ShardRange{Lo: lo, Hi: hi},
		MailboxServers: boxes,
		Workers:        workers,
	}
	var serverTLS, clientTLS *tls.Config
	if dataDir != "" {
		st, rec, err := store.Open(dataDir, store.Options{})
		if err != nil {
			log.Fatalf("opening -data-dir %s: %v", dataDir, err)
		}
		cfg.Store, cfg.Recovered = st, rec
		fmt.Printf("xrd-server[gateway]: recovered %d records over %d snapshot bytes from %s (torn tail: %v)\n",
			len(rec.Records), len(rec.Snapshot), dataDir, rec.Truncated)
		// The TLS identity persists beside the WAL: peers pinned this
		// shard's certificate at deployment time, so a restart must
		// present the same one or be refused as an impostor.
		host, _, err := net.SplitHostPort(addr)
		if err != nil || host == "" {
			host = "127.0.0.1"
		}
		serverTLS, clientTLS, err = rpc.LoadOrCreateTLSIdentity(filepath.Join(dataDir, "identity.pem"), host)
		if err != nil {
			log.Fatalf("loading TLS identity: %v", err)
		}
	}
	fe, err := core.NewFrontend(cfg)
	if err != nil {
		log.Fatalf("building gateway shard: %v", err)
	}
	closeAdmin := startAdmin(adminAddr, "gateway", func() obs.Health {
		rng := fe.Range()
		return obs.Health{
			Role:    "gateway",
			Epoch:   fe.Epoch(),
			Round:   fe.Round(),
			ShardLo: rng.Lo,
			ShardHi: rng.Hi,
			Users:   fe.NumUsers(),
		}
	})
	defer closeAdmin()
	ss, err := rpc.NewShardServerTLS(fe, addr, serverTLS, clientTLS)
	if err != nil {
		log.Fatalf("starting gateway shard: %v", err)
	}
	defer ss.Close()
	if err := writeCert(ss.CertificatePEM, certOut); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("xrd-server[gateway]: shard %d:%d on %s (certificate in %s), waiting for coordinator\n",
		lo, hi, ss.Addr(), certOut)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("\nxrd-server[gateway]: shutting down")
	if err := fe.Close(); err != nil {
		log.Printf("closing durable store: %v", err)
	}
}

type coordinatorOpts struct {
	addr, certOut   string
	servers, chains int
	k               int
	f               float64
	seed            string
	boxes           int
	workers         int
	interval        time.Duration
	hopSpec         string // chain:pos-keyed remote mixes
	serverSpec      string // server-identity-keyed remote mixes
	gatewaySpec     string // shard-range-keyed remote gateways
	recover         bool
	pipeline        int
	inj             *faults.Injector
	adminAddr       string
}

// runCoordinator assembles the deployment (dialing remote gateways
// and hops first), serves users (directly when monolithic), and
// drives rounds.
func runCoordinator(o coordinatorOpts) {
	remotes, err := parseHopSpecs(o.hopSpec)
	if err != nil {
		log.Fatalf("parsing -hops: %v", err)
	}
	byServer, err := parseServerSpecs(o.serverSpec)
	if err != nil {
		log.Fatalf("parsing -mix-servers: %v", err)
	}
	if len(remotes) > 0 && len(byServer) > 0 {
		log.Fatal("-hops and -mix-servers are mutually exclusive")
	}
	for id := range byServer {
		if id < 0 || id >= o.servers {
			log.Fatalf("-mix-servers entry %d is outside the server set 0..%d", id, o.servers-1)
		}
	}
	gwSpecs, err := parseGatewaySpecs(o.gatewaySpec)
	if err != nil {
		log.Fatalf("parsing -gateways: %v", err)
	}

	used := make(map[[2]int]bool)
	cfg := core.Config{
		NumServers:          o.servers,
		NumChains:           o.chains,
		ChainLengthOverride: o.k,
		F:                   o.f,
		Seed:                []byte(o.seed),
		MailboxServers:      o.boxes,
		Workers:             o.workers,
		Recover:             o.recover,
		PipelineDepth:       o.pipeline,
	}
	var shardClients []*rpc.ShardClient
	for _, gs := range gwSpecs {
		tlsCfg, err := rpc.ClientTLSFromFile(gs.certFile)
		if err != nil {
			log.Fatalf("-gateways %d:%d: %v", gs.lo, gs.hi, err)
		}
		sc, err := rpc.NewShardClient(gs.lo, gs.hi, gs.addr, tlsCfg)
		if err != nil {
			log.Fatalf("-gateways %d:%d: %v", gs.lo, gs.hi, err)
		}
		shardClients = append(shardClients, sc)
		cfg.Shards = append(cfg.Shards, sc)
	}
	if len(remotes) > 0 {
		cfg.RemoteHops = func(chain, pos int, base group.Point) (mix.Hop, error) {
			spec, ok := remotes[[2]int{chain, pos}]
			if !ok {
				return nil, nil
			}
			hc, err := dialSpec(spec, fmt.Sprintf("hop%d:%d", chain, pos), o.inj)
			if err != nil {
				return nil, err
			}
			if _, err := hc.Init(chain, pos, base); err != nil {
				return nil, fmt.Errorf("binding %s to %d:%d: %w", spec.addr, chain, pos, err)
			}
			used[[2]int{chain, pos}] = true
			return hc, nil
		}
	}
	usedServers := make(map[int]bool)
	if len(byServer) > 0 {
		// One client per process, reused across epochs: after a
		// re-form the surviving process is re-bound in place via
		// InitEpoch, keeping its connection pool.
		var mu sync.Mutex
		clients := make(map[int]*rpc.HopClient)
		cfg.HopForServer = func(epoch uint64, server, chain, pos int, base group.Point) (mix.Hop, error) {
			spec, ok := byServer[server]
			if !ok {
				return nil, nil
			}
			mu.Lock()
			hc, ok := clients[server]
			if !ok {
				var err error
				hc, err = dialSpec(spec, fmt.Sprintf("srv%d", server), o.inj)
				if err != nil {
					mu.Unlock()
					return nil, err
				}
				clients[server] = hc
			}
			usedServers[server] = true
			mu.Unlock()
			if _, err := hc.InitEpoch(epoch, chain, pos, base); err != nil {
				return nil, fmt.Errorf("binding server %d (%s) to %d:%d at epoch %d: %w",
					server, spec.addr, chain, pos, epoch, err)
			}
			return hc, nil
		}
	}

	net, err := core.NewNetwork(cfg)
	if err != nil {
		log.Fatalf("assembling network: %v", err)
	}
	closeAdmin := startAdmin(o.adminAddr, "coordinator", func() obs.Health {
		return obs.Health{
			Role:   "coordinator",
			Epoch:  net.Epoch(),
			Round:  net.Round(),
			Users:  net.NumUsers(),
			Chains: net.NumChains(),
		}
	})
	defer closeAdmin()
	for key := range remotes {
		if !used[key] {
			log.Fatalf("-hops entry %d:%d matches no chain position of this topology", key[0], key[1])
		}
	}
	for id := range byServer {
		if !usedServers[id] {
			log.Fatalf("-mix-servers entry %d holds no chain position of this topology", id)
		}
	}
	// Push the founding round/parameter state to every gateway shard
	// so they can serve clients before the first round.
	for _, sc := range shardClients {
		if err := sc.Init(net); err != nil {
			log.Fatal(err)
		}
	}

	gw, err := rpc.NewServer(net, o.addr)
	if err != nil {
		log.Fatalf("starting coordinator endpoint: %v", err)
	}
	defer gw.Close()
	if err := writeCert(gw.CertificatePEM, o.certOut); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("xrd-server: %d chains of %d servers, l=%d chains per user, %d remote positions, %d gateway shards, recover=%v\n",
		net.NumChains(), net.Topology().ChainLength, net.Plan().L, len(remotes)+len(byServer), len(shardClients), o.recover)
	fmt.Printf("xrd-server: listening on %s (certificate in %s)\n", gw.Addr(), o.certOut)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)

	if o.interval <= 0 {
		fmt.Println("xrd-server: rounds run on client trigger only")
		<-stop
		return
	}
	ticker := time.NewTicker(o.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Println("\nxrd-server: shutting down")
			return
		case <-ticker.C:
			rep, err := net.RunRound()
			if err != nil {
				// A non-nil report alongside the error means the
				// round itself completed (announcing the next one
				// failed — typically a dead remote hop, whose chain
				// halted); its attribution is still worth printing.
				log.Printf("round failed: %v", err)
				if rep == nil {
					continue
				}
			}
			fmt.Printf("round %d: epoch=%d delivered=%d halted=%v failed=%v dead=%v dead-shards=%v stranded=%d blamed-users=%v covered=%d\n",
				rep.Round, rep.Epoch, rep.Delivered, rep.HaltedChains, rep.FailedChains,
				rep.DeadChains, rep.DeadShards, len(rep.Stranded), rep.BlamedUsers, rep.OfflineCovered)
			if rep.Reformed {
				fmt.Printf("round %d: re-formed chains at epoch %d after evicting servers %v\n",
					rep.Round, rep.Epoch, rep.Evicted)
			}
		}
	}
}
