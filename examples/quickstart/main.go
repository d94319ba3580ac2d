// Quickstart: assemble an in-process XRD network, have Alice and Bob
// hold a metadata-private conversation for three rounds, and show
// that an idle bystander's traffic is indistinguishable in volume.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/onion"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run holds the example logic so the smoke test can execute it end to
// end without spawning a process; it fails unless Bob reads each of
// Alice's lines in its round and every mailbox holds exactly ℓ
// messages.
func run(w io.Writer) error {
	// The one gateway shard: a single-process deployment's users live
	// on one full-range Frontend, the coordinator reaches it per round.
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		return err
	}
	// A small deployment: 12 mix servers organised into 12 chains of
	// 4 (production would derive k from the malicious fraction f;
	// see core.Config.F).
	net, err := core.NewNetwork(core.Config{
		NumServers:          12,
		ChainLengthOverride: 4,
		Seed:                []byte("quickstart-public-beacon"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		return err
	}
	l := net.Plan().L
	fmt.Fprintf(w, "network: %d chains of %d servers, l=%d chains per user\n\n",
		net.NumChains(), net.Topology().ChainLength, l)

	alice := fe.NewUser()
	bob := fe.NewUser()
	carol := fe.NewUser() // idle bystander

	// Conversations start by out-of-band agreement (§3.1): both sides
	// set each other as partner for the same round.
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		return err
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		return err
	}

	script := []string{
		"hey bob — this channel hides that we're talking at all",
		"every user sends the same l messages either way",
		"see you at the crossroads",
	}
	for _, line := range script {
		if err := alice.QueueMessage([]byte(line)); err != nil {
			return err
		}
		rep, err := net.RunRound()
		if err != nil {
			return err
		}

		// Bob downloads his mailbox and decrypts.
		recv, bad := bob.OpenMailbox(rep.Round, fe.Fetch(bob, rep.Round))
		if bad != 0 {
			return fmt.Errorf("round %d: %d undecryptable messages", rep.Round, bad)
		}
		read := false
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation {
				fmt.Fprintf(w, "round %d | bob reads: %q\n", rep.Round, r.Body)
				if string(r.Body) != line {
					return fmt.Errorf("round %d: bob read %q, want %q", rep.Round, r.Body, line)
				}
				read = true
			}
		}
		if !read {
			return fmt.Errorf("round %d: bob received nothing from alice", rep.Round)
		}

		// The observable pattern is identical for everyone.
		sizes := [3]int{
			len(fe.Fetch(alice, rep.Round)),
			len(fe.Fetch(bob, rep.Round)),
			len(fe.Fetch(carol, rep.Round)),
		}
		fmt.Fprintf(w, "round %d | mailbox sizes: alice=%d bob=%d carol(idle)=%d\n",
			rep.Round, sizes[0], sizes[1], sizes[2])
		for _, n := range sizes {
			if n != l {
				return fmt.Errorf("round %d: mailbox sizes %v, want %d each", rep.Round, sizes, l)
			}
		}
	}
	fmt.Fprintln(w, "\nan observer sees every user send and receive exactly l messages per round")
	return nil
}
