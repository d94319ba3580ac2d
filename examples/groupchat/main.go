// Group conversations (§9): three users hold a group chat by running
// pairwise conversations on the distinct chains where each pair
// meets. XRD supports this whenever no two of a user's partners share
// her meeting chain — the library rejects clashes, matching the
// limitation the paper states.
//
// Run with: go run ./examples/groupchat
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/onion"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run holds the example logic so the smoke test can execute it end to
// end without spawning a process; it fails unless every member reads
// the line each other member sent.
func run(w io.Writer) error {
	// The one gateway shard: a single-process deployment's users live
	// on one full-range Frontend, the coordinator reaches it per round.
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		return err
	}
	// Re-draw user identities until the three pairwise meeting chains
	// are distinct; with n=21 chains most triples qualify (the
	// paper's scenario: "(Alice, Bob), (Alice, Charlie), and
	// (Bob, Charlie) all intersect at different chains").
	net, err := core.NewNetwork(core.Config{
		NumServers:          21,
		ChainLengthOverride: 3,
		Seed:                []byte("groupchat"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		return err
	}
	var alice, bob, charlie *client.User
	for attempt := 0; ; attempt++ {
		if attempt > 200 {
			return errors.New("no clash-free triple found; enlarge the network")
		}
		alice, bob, charlie = fe.NewUser(), fe.NewUser(), fe.NewUser()
		plan := net.Plan()
		ab := plan.MeetingChainForUsers(alice.Mailbox(), bob.Mailbox())
		ac := plan.MeetingChainForUsers(alice.Mailbox(), charlie.Mailbox())
		bc := plan.MeetingChainForUsers(bob.Mailbox(), charlie.Mailbox())
		if ab != ac && ab != bc && ac != bc {
			fmt.Fprintf(w, "pairs meet on distinct chains: ab=%d ac=%d bc=%d\n\n", ab, ac, bc)
			break
		}
	}
	group := []*client.User{alice, bob, charlie}
	names := map[*client.User]string{alice: "alice", bob: "bob", charlie: "charlie"}

	// Every member starts a conversation with every other member; a
	// chain clash would surface as ErrChainClash here.
	for _, u := range group {
		for _, v := range group {
			if u == v {
				continue
			}
			if err := u.StartConversation(v.PublicKey()); err != nil {
				if errors.Is(err, client.ErrChainClash) {
					return fmt.Errorf("%s-%s clash on a meeting chain; rerun with another seed: %w",
						names[u], names[v], err)
				}
				return err
			}
		}
	}
	for _, u := range group {
		fmt.Fprintf(w, "%s converses on chains %v (of her %v)\n",
			names[u], keysOf(u.MeetingChains()), u.Chains())
	}

	// Each member broadcasts one line to the group: one queued body
	// per partner.
	line := func(u *client.User) string { return fmt.Sprintf("hi group, from %s", names[u]) }
	for _, u := range group {
		for _, p := range u.Partners() {
			if err := u.QueueMessageFor(p, []byte(line(u))); err != nil {
				return err
			}
		}
	}

	rep, err := net.RunRound()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nround %d: %d messages delivered\n\n", rep.Round, rep.Delivered)

	for _, u := range group {
		recv, bad := u.OpenMailbox(rep.Round, fe.Fetch(u, rep.Round))
		if bad != 0 {
			return fmt.Errorf("%s: %d undecryptable", names[u], bad)
		}
		want := make(map[string]bool)
		for _, v := range group {
			if v != u {
				want[line(v)] = true
			}
		}
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation {
				fmt.Fprintf(w, "%s reads: %q\n", names[u], r.Body)
				delete(want, string(r.Body))
			}
		}
		if len(want) != 0 {
			return fmt.Errorf("%s did not read %v", names[u], keysOf(want))
		}
	}
	fmt.Fprintln(w, "\neach member still sends exactly l fixed-size messages; the group is invisible")
	return nil
}

func keysOf[K comparable, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
