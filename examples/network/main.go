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
// Run with: go run ./examples/network
package main

import (
	"fmt"
	"log"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
	"repro/internal/rpc"
)

func main() {
	// "Machines": one hop endpoint per chain position, each with its
	// own pinned certificate. In a real deployment these are
	// `xrd-server -role mix` processes on separate hosts.
	const chainLen = 3
	hopServers := make([]*rpc.HopServer, chainLen)
	for i := range hopServers {
		hs, err := rpc.NewHopServer("127.0.0.1:0", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer hs.Close()
		hopServers[i] = hs
		fmt.Printf("mix position %d listening on %s\n", i, hs.Addr())
	}

	// Gateway side: assemble a single chain whose every position is
	// remote. The provider is called in position order because each
	// position's keys chain off the previous one's blinding key.
	net, err := core.NewNetwork(core.Config{
		NumServers:          chainLen,
		NumChains:           1,
		ChainLengthOverride: chainLen,
		Seed:                []byte("network-demo"),
		RemoteHops: func(chain, pos int, base group.Point) (mix.Hop, error) {
			hc := rpc.DialHop(hopServers[pos].Addr(), hopServers[pos].ClientTLS())
			if _, err := hc.Init(chain, pos, base); err != nil {
				return nil, err
			}
			return hc, nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	gateway, err := rpc.NewServer(net, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer gateway.Close()
	fmt.Printf("gateway listening on %s (TLS 1.3, pinned certificate)\n", gateway.Addr())

	// Client side: each user dials the gateway independently.
	dial := func() *rpc.Client {
		c, err := rpc.Dial(gateway.Addr(), gateway.ClientTLS())
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	aliceConn, bobConn, driver := dial(), dial(), dial()
	defer aliceConn.Close()
	defer bobConn.Close()
	defer driver.Close()

	alice := client.NewUser(nil, net.Plan())
	bob := client.NewUser(nil, net.Plan())
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		log.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		log.Fatal(err)
	}
	if err := alice.QueueMessage([]byte("hello across three processes")); err != nil {
		log.Fatal(err)
	}

	st, err := driver.Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: round %d, %d chain(s) of %d, l=%d\n", st.Round, st.NumChains, st.ChainLength, st.L)

	// Build and submit both users' rounds remotely; the rpc.Client is
	// a client.ParamsSource, so the user code is identical to the
	// in-process path.
	for name, pair := range map[string]struct {
		u *client.User
		c *rpc.Client
	}{"alice": {alice, aliceConn}, "bob": {bob, bobConn}} {
		out, err := pair.u.BuildRound(st.Round, pair.c)
		if err != nil {
			log.Fatalf("%s build: %v", name, err)
		}
		if err := pair.c.Submit(pair.u.Mailbox(), out); err != nil {
			log.Fatalf("%s submit: %v", name, err)
		}
	}

	rep, err := driver.RunRound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round %d executed over the distributed chain: %d messages delivered\n", rep.Round, rep.Delivered)

	msgs, err := bobConn.Fetch(rep.Round, bob.Mailbox())
	if err != nil {
		log.Fatal(err)
	}
	recv, bad := bob.OpenMailbox(rep.Round, msgs)
	if bad != 0 {
		log.Fatalf("%d undecryptable messages", bad)
	}
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			fmt.Printf("bob reads: %q\n", r.Body)
		}
	}
}
