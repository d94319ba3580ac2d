package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/rpc"
	"repro/internal/store"
)

// deployment is one workload's topology, stood up in this process.
// The harness owns the gateway front ends and drives every user-facing
// operation on them directly, so the same code serves a plain shard
// and a decorated one.
type deployment struct {
	spec spec
	net  *core.Network
	// fes are the gateway front ends hosted here: one full-range
	// locally, the two halves behind ShardServers on the wire.
	fes   []*core.Frontend
	users []*client.User

	// Wire only.
	dirs         []string
	hopServers   []*rpc.HopServer
	hopClients   []*rpc.HopClient
	shardServers []*rpc.ShardServer
	shardClients []*rpc.ShardClient
	// fronts holds one client per generator goroutine, so the closed
	// loop has exactly that many connections per gateway.
	fronts []*rpc.MultiClient

	// Traced only: rec is nil in an untraced deployment and none of
	// the decorators below is installed.
	rec        *recorder
	hopConns   connCounters
	shardConns connCounters
	stores     storeCounters
}

var wireRanges = []core.ShardRange{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}}

func quiet(string, ...any) {}

// generators is the closed loop's width: at most nproc goroutines and
// connections drive the system.
func generators() int { return runtime.GOMAXPROCS(0) }

// setup stands a workload up until its first round is runnable:
// topology keyed, hops initialised, users registered and paired. dir
// is where the wire workload keeps its data directories. A non-nil rec
// installs the tracing decorators.
func setup(s spec, in *inputs, rec *recorder, dir string) (d *deployment, err error) {
	d = &deployment{spec: s, rec: rec}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	cfg := core.Config{
		NumServers:          s.Servers,
		ChainLengthOverride: s.K,
		Seed:                in.TopologySeed(),
	}
	if s.Wire {
		if err := d.setupWire(&cfg, dir); err != nil {
			return d, err
		}
	} else {
		fe, err := core.NewFrontend(core.FrontendConfig{})
		if err != nil {
			return d, err
		}
		d.fes = []*core.Frontend{fe}
		cfg.Shards = []core.GatewayShard{d.traceShard(fe, 0)}
		if rec != nil {
			cfg.RemoteHops = func(chain, pos int, base group.Point) (mix.Hop, error) {
				return spanHop{Hop: mix.LocalHop(mix.NewChainServer(chain, pos, base, nil)), rec: rec, chain: chain, pos: pos}, nil
			}
		}
	}
	if d.net, err = core.NewNetwork(cfg); err != nil {
		return d, err
	}
	if got := d.net.NumChains(); got != s.Servers {
		return d, fmt.Errorf("workload %s: %d chains formed, want %d", s.Name, got, s.Servers)
	}
	var endpoints []rpc.Endpoint
	for i, sc := range d.shardClients {
		if err := sc.Init(d.net); err != nil {
			return d, err
		}
		endpoints = append(endpoints, rpc.Endpoint{Addr: d.shardServers[i].Addr(), TLS: d.shardServers[i].ClientTLS()})
	}
	if s.Wire {
		for g := 0; g < generators(); g++ {
			front, err := rpc.NewMultiClient(endpoints)
			if err != nil {
				return d, err
			}
			d.fronts = append(d.fronts, front)
			if err := front.Refresh(); err != nil {
				return d, err
			}
		}
	}
	if err := d.addUsers(in); err != nil {
		return d, err
	}
	return d, nil
}

func (d *deployment) traceShard(sh core.GatewayShard, i int) core.GatewayShard {
	if d.rec == nil {
		return sh
	}
	return spanShard{GatewayShard: sh, rec: d.rec, shard: i}
}

// setupWire hosts every chain position on its own HopServer and the
// two registry halves on WAL-backed ShardServers, all on loopback TLS,
// and points cfg at them.
func (d *deployment) setupWire(cfg *core.Config, dir string) error {
	s := d.spec
	for i := 0; i < s.Servers*s.K; i++ {
		hs, err := rpc.NewHopServer("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		hs.Logf = quiet
		d.hopServers = append(d.hopServers, hs)
	}
	for i, r := range wireRanges {
		sub := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		d.dirs = append(d.dirs, sub)
		dur, _, err := store.Open(sub, store.Options{})
		if err != nil {
			return err
		}
		var st store.Store = dur
		if d.rec != nil {
			st = countingStore{Store: dur, c: &d.stores}
		}
		fe, err := core.NewFrontend(core.FrontendConfig{Range: r, Store: st, SnapshotEvery: 4})
		if err != nil {
			dur.Close()
			return err
		}
		d.fes = append(d.fes, fe)
		ss, err := rpc.NewShardServer(fe, "127.0.0.1:0")
		if err != nil {
			return err
		}
		ss.Logf = quiet
		if d.rec != nil {
			ss.SetConnWrapper(d.shardConns.wrap)
		}
		d.shardServers = append(d.shardServers, ss)
		sc, err := rpc.NewShardClient(r.Lo, r.Hi, ss.Addr(), ss.ClientTLS())
		if err != nil {
			return err
		}
		d.shardClients = append(d.shardClients, sc)
		cfg.Shards = append(cfg.Shards, d.traceShard(sc, i))
	}
	cfg.RemoteHops = func(chain, pos int, base group.Point) (mix.Hop, error) {
		hs := d.hopServers[chain*s.K+pos]
		hc := rpc.DialHop(hs.Addr(), hs.ClientTLS())
		d.hopClients = append(d.hopClients, hc)
		if d.rec != nil {
			hc.SetConnWrapper(d.hopConns.wrap)
		}
		if _, err := hc.Init(chain, pos, base); err != nil {
			return nil, err
		}
		if d.rec == nil {
			return hc, nil
		}
		return spanHop{Hop: hc, rec: d.rec, chain: chain, pos: pos}, nil
	}
	return nil
}

// frontendFor returns the in-process front end owning a mailbox.
func (d *deployment) frontendFor(mailbox []byte) *core.Frontend {
	for _, fe := range d.fes {
		if fe.Range().Owns(mailbox) {
			return fe
		}
	}
	return nil // unreachable: the ranges partition the space
}

// addUsers creates the active population, registers it (and on the
// wire the registered-only mailboxes) and starts every conversation.
func (d *deployment) addUsers(in *inputs) error {
	s := d.spec
	plan := d.net.Plan()
	d.users = make([]*client.User, s.Users)
	mailboxes := make([][]byte, 0, s.Users+s.Registered)
	for i := range d.users {
		if s.InProcess {
			d.users[i] = d.fes[0].NewUser()
			continue
		}
		d.users[i] = client.NewUser(nil, plan)
		mailboxes = append(mailboxes, d.users[i].Mailbox())
	}
	if s.Wire {
		mailboxes = append(mailboxes, in.RegisteredMailboxes(group.PointSize)...)
		const chunk = 10000
		for lo := 0; lo < len(mailboxes); lo += chunk {
			hi := min(lo+chunk, len(mailboxes))
			if _, err := d.fronts[0].Register(mailboxes[lo:hi]); err != nil {
				return err
			}
		}
	} else {
		for _, mb := range mailboxes {
			if err := d.fes[0].Register(mb); err != nil {
				return err
			}
		}
	}
	for _, p := range in.Pairs {
		if err := converse(d.users[p[0]], d.users[p[1]]); err != nil {
			return err
		}
	}
	return nil
}

// converse (re)starts the conversation between a pair; it is a no-op
// on a side that still has it.
func converse(a, b *client.User) error {
	if err := a.StartConversation(b.PublicKey()); err != nil {
		return err
	}
	return b.StartConversation(a.PublicKey())
}

// close stops every endpoint and releases the shards' stores. The
// listeners' Close waits for their connection goroutines.
func (d *deployment) close() error {
	var errs []error
	for _, f := range d.fronts {
		f.Close()
	}
	for _, c := range d.shardClients {
		c.Close()
	}
	for _, c := range d.hopClients {
		c.Close()
	}
	for _, s := range d.shardServers {
		s.Close()
	}
	for _, s := range d.hopServers {
		s.Close()
	}
	for _, fe := range d.fes {
		errs = append(errs, fe.Close())
	}
	return errors.Join(errs...)
}

// replayed reopens the wire workload's data directories after close,
// the way a restarted gateway does, and checks each shard comes back
// at the watermark of the last finished round.
func (d *deployment) replayed(wantRound uint64) error {
	for i, dir := range d.dirs {
		dur, rec, err := store.Open(dir, store.Options{})
		if err != nil {
			return fmt.Errorf("reopening %s: %w", dir, err)
		}
		fe, err := core.NewFrontend(core.FrontendConfig{Range: wireRanges[i], Store: dur, Recovered: rec})
		if err != nil {
			dur.Close()
			return fmt.Errorf("replaying %s: %w", dir, err)
		}
		got := fe.Round()
		if err := fe.Close(); err != nil {
			return err
		}
		if got != wantRound {
			return fmt.Errorf("shard %s replayed to round %d, want %d", wireRanges[i], got, wantRound)
		}
	}
	return nil
}
