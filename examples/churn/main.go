// Churn: what happens when users and servers disappear mid-protocol
// (§5.2.3, §5.3.3).
//
// Alice talks to Bob, then drops offline without warning. The cover
// messages she pre-submitted run in her place for one round, carrying
// the "I'm gone" signal to Bob, who silently reverts to loopback
// traffic — an observer never learns the conversation existed, let
// alone that it ended. Then a mix server crashes, and only the chains
// containing it are affected.
//
// Run with: go run ./examples/churn
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
// end without spawning a process.
func run(w io.Writer) error {
	// The one gateway shard: a single-process deployment's users live
	// on one full-range Frontend, the coordinator reaches it per round.
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		return err
	}
	net, err := core.NewNetwork(core.Config{
		NumServers:          10,
		ChainLengthOverride: 3,
		Seed:                []byte("churn-demo"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		return err
	}
	alice := fe.NewUser()
	bob := fe.NewUser()
	for i := 0; i < 4; i++ {
		fe.NewUser() // bystanders
	}
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		return err
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		return err
	}
	if err := alice.QueueMessage([]byte("if I vanish, my covers will tell you")); err != nil {
		return err
	}

	// Round 1: normal conversation; covers for round 2 are banked.
	rep, err := net.RunRound()
	if err != nil {
		return err
	}
	read := false
	recv, _ := bob.OpenMailbox(rep.Round, fe.Fetch(bob, rep.Round))
	for _, r := range recv {
		if r.FromPartner {
			fmt.Fprintf(w, "round %d | bob reads: %q\n", rep.Round, r.Body)
			read = true
		}
	}
	if !read {
		return fmt.Errorf("round %d: bob received nothing from alice", rep.Round)
	}

	// Round 2: Alice vanishes. Her banked covers run instead.
	fe.SetOnline(alice, false)
	rep, err = net.RunRound()
	if err != nil {
		return err
	}
	if rep.OfflineCovered == 0 {
		return fmt.Errorf("round %d: alice's covers did not run", rep.Round)
	}
	fmt.Fprintf(w, "round %d | users covered by pre-submitted covers: %d\n", rep.Round, rep.OfflineCovered)
	signalled := false
	recv, _ = bob.OpenMailbox(rep.Round, fe.Fetch(bob, rep.Round))
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindOffline {
			fmt.Fprintf(w, "round %d | bob receives the offline signal; conversation ends quietly\n", rep.Round)
			signalled = true
		}
	}
	if !signalled {
		return fmt.Errorf("round %d: offline signal never reached bob", rep.Round)
	}
	fmt.Fprintf(w, "round %d | bob still received a full mailbox of %d messages\n",
		rep.Round, len(fe.Fetch(bob, rep.Round)))

	// Round 3: Bob is back to loopbacks; traffic pattern unchanged.
	rep, err = net.RunRound()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "round %d | bob's mailbox: %d messages (all loopbacks now)\n\n",
		rep.Round, len(fe.Fetch(bob, rep.Round)))

	// Server churn: crash one server; only its chains fail (§5.2.3).
	net.FailServer(3)
	rep, err = net.RunRound()
	if err != nil {
		return err
	}
	if len(rep.FailedChains) == 0 || len(rep.FailedChains) == net.NumChains() {
		return fmt.Errorf("round %d: expected a partial outage, got %d of %d chains failed",
			rep.Round, len(rep.FailedChains), net.NumChains())
	}
	fmt.Fprintf(w, "round %d | server 3 crashed: %d of %d chains failed, %d messages still delivered\n",
		rep.Round, len(rep.FailedChains), net.NumChains(), rep.Delivered)
	net.RestoreServer(3)
	rep, err = net.RunRound()
	if err != nil {
		return err
	}
	if len(rep.FailedChains) != 0 {
		return fmt.Errorf("round %d: chains still failed after restore: %v", rep.Round, rep.FailedChains)
	}
	fmt.Fprintf(w, "round %d | server restored: %d failed chains\n", rep.Round, len(rep.FailedChains))
	return nil
}
