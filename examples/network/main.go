// Network: the same conversation as quickstart, but deployed the way
// a production XRD network runs — users on the far side of a real TLS
// connection, and the mix chain itself spanning separate server
// processes. Three hop endpoints stand in for three machines: the
// gateway binds each to one chain position and relays the round's
// onion batches hop to hop over the TLS hop transport (one exchange
// per mixing step, pinned certificates), so every mixing step here
// crosses a real socket. Users trust the gateway only for
// availability.
//
// The gateway names each hop endpoint by the server identity it
// stands for, as `xrd-server -mix-servers` does, so the same provider
// would re-bind the survivors if chains re-formed after an eviction.
//
// Run with: go run ./examples/network
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/rpc"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

const greeting = "hello across three processes"

// run holds the example logic so the smoke test can execute it end to
// end without spawning a process; it fails unless Bob reads Alice's
// exact message.
func run(w io.Writer) error {
	// "Machines": one hop endpoint per mix server, each with its own
	// pinned certificate. In a real deployment these are
	// `xrd-server -role mix` processes on separate hosts.
	const chainLen = 3
	hopServers := make([]*rpc.HopServer, chainLen)
	for i := range hopServers {
		hs, err := rpc.NewHopServer("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		defer hs.Close()
		hopServers[i] = hs
		fmt.Fprintf(w, "mix server %d listening on %s\n", i, hs.Addr())
	}

	// Gateway side: one full-range Frontend holds the users, and the
	// coordinator assembles a single chain whose every position is
	// remote. The provider is called in position order because each
	// position's keys chain off the previous one's blinding key.
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		return err
	}
	net, err := core.NewNetwork(core.Config{
		NumServers:          chainLen,
		NumChains:           1,
		ChainLengthOverride: chainLen,
		Seed:                []byte("network-demo"),
		Shards:              []core.GatewayShard{fe},
		HopForServer: func(epoch uint64, server, chain, pos int, base group.Point) (mix.Hop, error) {
			hs := hopServers[server]
			hc := rpc.DialHop(hs.Addr(), hs.ClientTLS())
			if _, err := hc.InitEpoch(epoch, chain, pos, base); err != nil {
				return nil, err
			}
			return hc, nil
		},
	})
	if err != nil {
		return err
	}
	gateway, err := rpc.NewServer(net, fe, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer gateway.Close()
	fmt.Fprintf(w, "gateway listening on %s (TLS 1.3, pinned certificate)\n", gateway.Addr())

	// Client side: the users play through one MultiClient; the gateway
	// is also the coordinator here, so it triggers the round too.
	front, err := rpc.NewMultiClient([]rpc.Endpoint{{Addr: gateway.Addr(), TLS: gateway.ClientTLS()}})
	if err != nil {
		return err
	}
	defer front.Close()

	alice := client.NewUser(nil, net.Plan())
	bob := client.NewUser(nil, net.Plan())
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		return err
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		return err
	}
	if err := alice.QueueMessage([]byte(greeting)); err != nil {
		return err
	}

	st, err := front.Status()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "deployment: round %d, %d chain(s) of %d, l=%d\n", st.Round, st.NumChains, st.ChainLength, st.L)

	round, err := front.Play(alice, bob)
	if err != nil {
		return err
	}
	rep, err := front.Clients()[0].RunRound()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "round %d executed over the distributed chain: %d messages delivered\n", rep.Round, rep.Delivered)

	recv, err := front.Receive(round, bob)
	if err != nil {
		return err
	}
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			fmt.Fprintf(w, "bob reads: %q\n", r.Body)
			if string(r.Body) != greeting {
				return fmt.Errorf("bob read %q, want %q", r.Body, greeting)
			}
			return nil
		}
	}
	return fmt.Errorf("bob received no message from alice")
}
