// Command xrd-client is a demonstration client for a running XRD
// deployment: it creates two local users, connects them to the
// gateway front end over TLS, exchanges a message through the mix
// network and prints the decrypted result.
//
// Against a monolithic deployment (one coordinator serving users
// directly) one address is enough:
//
//	xrd-client -addr 127.0.0.1:7900 -cert xrd-gateway.pem -msg "hello"
//
// Against a sharded front end, -gateways lists every gateway shard as
// "addr=certfile,..." and -addr names the coordinator (which drives
// rounds but no longer hosts users). The client discovers which
// gateway owns each user's mailbox from the gateways' status
// endpoints, and retries the next gateway when one fails at the
// transport level (refused connection, deadline):
//
//	xrd-client -addr 127.0.0.1:7900 -cert xrd-gateway.pem \
//	    -gateways "127.0.0.1:7911=gw1.pem,127.0.0.1:7912=gw2.pem" -msg "hello"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/onion"
	"repro/internal/rpc"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7900", "coordinator address (drives rounds; serves users when monolithic)")
		cert     = flag.String("cert", "xrd-gateway.pem", "coordinator certificate (from xrd-server -cert-out)")
		gateways = flag.String("gateways", "", `gateway shards as "addr=certfile,..." (empty: users talk to -addr directly)`)
		msg      = flag.String("msg", "hello from xrd-client", "message Alice sends Bob")
		cross    = flag.Bool("cross-shard", false, "place Alice and Bob on different gateway shards (needs >= 2 -gateways)")
		trigger  = flag.Bool("trigger-only", false, "trigger one round without submitting (advances a halted deployment so it can re-form)")
		drill    = flag.String("crash-drill", "", "crash-recovery drill: submit on the first -gateways shard, touch <dir>/submitted, wait for <dir>/restarted, then trigger and assert exactly-once delivery (see scripts/crash_e2e.sh)")
	)
	flag.Parse()

	endpoints, err := rpc.ParseEndpoints(*addr, *cert, *gateways)
	if err != nil {
		log.Fatal(err)
	}
	coordTLS, err := rpc.ClientTLSFromFile(*cert)
	if err != nil {
		log.Fatal(err)
	}
	driver, err := rpc.Dial(*addr, coordTLS)
	if err != nil {
		log.Fatalf("dialing coordinator: %v", err)
	}
	defer driver.Close()

	if *trigger {
		rep, err := driver.RunRound()
		if err != nil {
			log.Fatalf("round: %v", err)
		}
		fmt.Printf("round %d executed: %d messages delivered\n", rep.Round, rep.Delivered)
		return
	}

	front, err := rpc.NewMultiClient(endpoints)
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	if err := front.Refresh(); err != nil {
		log.Fatalf("discovering gateways: %v", err)
	}

	if *drill != "" {
		runCrashDrill(front, driver, *drill, *msg)
		return
	}

	st, err := front.Status()
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	fmt.Printf("deployment: round %d, %d chains of %d, l=%d, %d gateway(s)\n",
		st.Round, st.NumChains, st.ChainLength, st.L, len(endpoints))

	// Chain selection is publicly computable from the chain count.
	plan, err := chainsel.NewPlan(st.NumChains)
	if err != nil {
		log.Fatal(err)
	}
	alice := client.NewUser(nil, plan)
	bob := client.NewUser(nil, plan)
	if *cross {
		// Mailbox placement follows the (random) key, so draw users
		// until the pair provably spans two gateways.
		for tries := 0; front.ClientFor(alice.Mailbox()) == front.ClientFor(bob.Mailbox()); tries++ {
			if tries > 1000 {
				log.Fatal("-cross-shard: could not place users on different gateways (is more than one gateway configured?)")
			}
			bob = client.NewUser(nil, plan)
		}
		fmt.Printf("cross-shard: alice on %s, bob on %s\n",
			front.ClientFor(alice.Mailbox()).Addr(), front.ClientFor(bob.Mailbox()).Addr())
	}
	outA := submitPair(front, alice, bob, st.Round, *msg)
	fmt.Printf("submitted %d+%d messages (current + covers) per user; triggering round...\n",
		len(outA.Current), len(outA.Cover))

	rep, err := driver.RunRound()
	if err != nil {
		log.Fatalf("round: %v", err)
	}
	fmt.Printf("round %d executed: %d messages delivered\n", rep.Round, rep.Delivered)

	msgs, err := front.Fetch(rep.Round, bob.Mailbox())
	if err != nil {
		log.Fatalf("fetch: %v", err)
	}
	recv, bad := bob.OpenMailbox(rep.Round, msgs)
	if bad != 0 {
		log.Fatalf("%d undecryptable messages", bad)
	}
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			fmt.Printf("bob reads: %q\n", r.Body)
			return
		}
	}
	log.Fatal("conversation message not delivered")
}

// submitPair puts alice and bob in conversation with msg queued from
// alice, builds both users' outputs for the round and submits them.
// It returns alice's output.
func submitPair(front *rpc.MultiClient, alice, bob *client.User, round uint64, msg string) *client.RoundOutput {
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		log.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		log.Fatal(err)
	}
	if err := alice.QueueMessage([]byte(msg)); err != nil {
		log.Fatal(err)
	}
	outA, err := alice.BuildRound(round, front)
	if err != nil {
		log.Fatalf("alice build: %v", err)
	}
	outB, err := bob.BuildRound(round, front)
	if err != nil {
		log.Fatalf("bob build: %v", err)
	}
	if err := front.Submit(alice.Mailbox(), outA); err != nil {
		log.Fatalf("alice submit: %v", err)
	}
	if err := front.Submit(bob.Mailbox(), outB); err != nil {
		log.Fatalf("bob submit: %v", err)
	}
	return outA
}

// runCrashDrill is the client half of scripts/crash_e2e.sh. Both
// users are placed on the first -gateways shard (the one the script
// will SIGKILL), the message is submitted and acknowledged, and two
// marker files coordinate with the script: the drill touches
// <dir>/submitted once the durable gateway has acked the round
// outputs, then waits for <dir>/restarted before triggering the
// round. It then asserts the durability contract end to end: the
// message arrives exactly once within two rounds (the restarted shard
// replayed its WAL), the gateway redelivers until acked
// (at-least-once), the MultiClient suppresses the redelivery
// (exactly-once at the application), and an ack prunes it for good.
func runCrashDrill(front *rpc.MultiClient, driver *rpc.Client, dir, msg string) {
	st, err := front.Status()
	if err != nil {
		log.Fatalf("status: %v", err)
	}
	plan, err := chainsel.NewPlan(st.NumChains)
	if err != nil {
		log.Fatal(err)
	}
	// Both mailboxes — submissions and delivery — must live on the
	// gateway the script kills, or the drill proves nothing.
	target := front.Clients()[0].Addr()
	draw := func() *client.User {
		for tries := 0; ; tries++ {
			if tries > 2000 {
				log.Fatalf("crash-drill: could not place a user on %s", target)
			}
			if u := client.NewUser(nil, plan); front.ClientFor(u.Mailbox()).Addr() == target {
				return u
			}
		}
	}
	alice, bob := draw(), draw()
	submitPair(front, alice, bob, st.Round, msg)
	fmt.Printf("crash-drill: round %d outputs acknowledged by %s\n", st.Round, target)

	if err := os.WriteFile(filepath.Join(dir, "submitted"), nil, 0o644); err != nil {
		log.Fatal(err)
	}
	restarted := filepath.Join(dir, "restarted")
	for deadline := time.Now().Add(2 * time.Minute); ; {
		if _, err := os.Stat(restarted); err == nil {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("crash-drill: timed out waiting for %s", restarted)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// The restarted process needs a beat before its listener answers;
	// Refresh retries until the gateway set is reachable again.
	for deadline := time.Now().Add(time.Minute); ; {
		if err := front.Refresh(); err == nil {
			break
		} else if time.Now().After(deadline) {
			log.Fatalf("crash-drill: gateways unreachable after restart: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Exactly-once within two rounds: the replayed submissions feed
	// the round they were built for.
	copies, delivered := 0, uint64(0)
	for attempt := 1; attempt <= 2 && copies == 0; attempt++ {
		rep, err := driver.RunRound()
		if err != nil {
			log.Fatalf("round (attempt %d): %v", attempt, err)
		}
		fmt.Printf("crash-drill: round %d executed, %d delivered\n", rep.Round, rep.Delivered)
		msgs, err := front.Fetch(rep.Round, bob.Mailbox())
		if err != nil {
			log.Fatalf("fetch: %v", err)
		}
		recv, bad := bob.OpenMailbox(rep.Round, msgs)
		if bad != 0 {
			log.Fatalf("%d undecryptable messages", bad)
		}
		for _, r := range recv {
			if r.FromPartner && r.Kind == onion.KindConversation && string(r.Body) == msg {
				copies++
				delivered = rep.Round
			}
		}
	}
	if copies != 1 {
		log.Fatalf("crash-drill: %d copies delivered across two rounds, want exactly 1", copies)
	}
	fmt.Printf("crash-drill: bob reads %q exactly once after the crash\n", msg)

	// At-least-once underneath: the raw owner still redelivers the
	// unacked round verbatim...
	raw, err := front.ClientFor(bob.Mailbox()).Fetch(delivered, bob.Mailbox())
	if err != nil {
		log.Fatalf("raw refetch: %v", err)
	}
	if len(raw) == 0 {
		log.Fatal("crash-drill: unacked mailbox not redelivered on refetch")
	}
	// ...while the failover client's dedup window absorbs it...
	dup, err := front.Fetch(delivered, bob.Mailbox())
	if err != nil {
		log.Fatalf("refetch: %v", err)
	}
	if len(dup) != 0 {
		log.Fatalf("crash-drill: client dedup let %d duplicates through", len(dup))
	}
	// ...until the ack prunes it server-side.
	pruned, err := front.Ack(delivered, bob.Mailbox())
	if err != nil {
		log.Fatalf("ack: %v", err)
	}
	if pruned == 0 {
		log.Fatal("crash-drill: ack pruned nothing")
	}
	if raw, err = front.ClientFor(bob.Mailbox()).Fetch(delivered, bob.Mailbox()); err != nil || len(raw) != 0 {
		log.Fatalf("crash-drill: acked mailbox still holds %d messages (err %v)", len(raw), err)
	}
	fmt.Println("crash-drill: PASS")
}
