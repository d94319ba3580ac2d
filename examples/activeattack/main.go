// Active attacks against XRD and how aggregate hybrid shuffle (§6)
// answers them:
//
//  1. A malicious server applies the strongest algebraic tamper — a
//     product-preserving key shift that passes the shuffle
//     certificate — and is convicted by the blame protocol; the chain
//     halts with nothing delivered and no privacy lost. The next round
//     evicts the convicted server and re-forms the chains over the
//     survivors, and every message is delivered again.
//  2. A malicious user submits a ciphertext that fails deep inside
//     the chain; the blame protocol walks the decryption chain,
//     convicts exactly that user, and the round completes for
//     everyone else.
//
// Run with: go run ./examples/activeattack
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
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
		ChainLengthOverride: 4,
		Seed:                []byte("active-attack-demo"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		return err
	}
	users := make([]*client.User, 8)
	for i := range users {
		users[i] = fe.NewUser()
	}

	fmt.Fprintln(w, "=== attack 1: tampering mix server ===")
	// Pick a chain carrying at least two messages — the tamper shifts
	// a PAIR of outputs so their key product is preserved.
	counts := make([]int, net.NumChains())
	for _, u := range users {
		for _, c := range u.Chains() {
			counts[c]++
		}
	}
	target := 0
	for c, n := range counts {
		if n >= 2 {
			target = c
			break
		}
	}
	// The server at position 1 of the target chain shifts two users'
	// DH keys in opposite directions: the key product — and therefore
	// its shuffle certificate — still verifies, but it cannot forge
	// the downstream AEAD keys, so the next server's decryption fails
	// and the blame protocol runs.
	if err := net.CorruptServer(target, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
		return err
	}
	rep, err := net.RunRound()
	if err != nil {
		return err
	}
	if len(rep.HaltedChains) != 1 || len(rep.BlamedServers) == 0 {
		return fmt.Errorf("tampering server escaped blame: %+v", rep)
	}
	if len(rep.BlamedUsers) != 0 {
		return fmt.Errorf("honest users blamed: %v", rep.BlamedUsers)
	}
	fmt.Fprintf(w, "halted chains:  %v (only the attacked chain)\n", rep.HaltedChains)
	fmt.Fprintf(w, "blamed servers: %v (chain, position)\n", rep.BlamedServers)
	fmt.Fprintf(w, "blamed users:   %v (honest users are never convicted)\n", rep.BlamedUsers)
	fmt.Fprintf(w, "messages still delivered on healthy chains: %d\n\n", rep.Delivered)
	if err := net.CorruptServer(target, 1, nil); err != nil {
		return err
	}
	rep, err = net.RunRound()
	if err != nil {
		return err
	}
	if !rep.Reformed || len(rep.Evicted) != 1 || len(rep.HaltedChains) != 0 {
		return fmt.Errorf("the convicted server was not evicted: %+v", rep)
	}
	fmt.Fprintf(w, "next round:     evicted server %v, chains re-formed at epoch %d\n", rep.Evicted, rep.Epoch)
	fmt.Fprintf(w, "delivered:      %d of %d messages\n\n", rep.Delivered, len(users)*net.Plan().L)

	fmt.Fprintln(w, "=== attack 2: malicious user ===")
	// A user submits an onion whose outer layers authenticate at the
	// first servers but turn to garbage at layer 2.
	params, err := net.ChainParams(3, net.Round())
	if err != nil {
		return err
	}
	bad, err := mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, net.Round(), client.LaneCurrent, 2)
	if err != nil {
		return err
	}
	net.InjectSubmission(3, bad)
	rep, err = net.RunRound()
	if err != nil {
		return err
	}
	if rep.BlameRounds == 0 || len(rep.BlamedUsers) == 0 {
		return fmt.Errorf("malicious user escaped blame: %+v", rep)
	}
	if len(rep.HaltedChains) != 0 {
		return fmt.Errorf("honest chain halted: %v", rep.HaltedChains)
	}
	fmt.Fprintf(w, "blame protocol executions: %d\n", rep.BlameRounds)
	fmt.Fprintf(w, "blamed users:  %v (removed from the network)\n", rep.BlamedUsers)
	fmt.Fprintf(w, "halted chains: %v (none — honest traffic unaffected)\n", rep.HaltedChains)
	fmt.Fprintf(w, "delivered:     %d of %d honest messages\n",
		rep.Delivered, len(users)*net.Plan().L)
	return nil
}
