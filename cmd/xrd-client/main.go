// Command xrd-client is a demonstration client for a running XRD
// deployment: it creates two local users, connects them to the
// gateway front end over TLS, exchanges a message through the mix
// network and prints the decrypted result.
//
// Against a single-machine deployment (a coordinator started without
// -gateways, serving the users of its one in-process gateway shard)
// one address is enough:
//
//	xrd-client -addr 127.0.0.1:7900 -cert xrd-gateway.pem -msg "hello"
//
// Against a sharded front end, -gateways lists every gateway shard as
// "addr=certfile,..." and -addr names the coordinator, which drives
// rounds and refuses user submissions and fetches. The client discovers which
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
		addr     = flag.String("addr", "127.0.0.1:7900", "coordinator address (drives rounds; serves users when started without -gateways)")
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
	if *drill != "" {
		runCrashDrill(front, driver, plan, *drill, *msg)
		return
	}
	// Mailbox placement follows the (random) key, so with -cross-shard
	// bob is drawn until the pair provably spans two gateways.
	alice := client.NewUser(nil, plan)
	bob := drawUser(plan, func(u *client.User) bool {
		return !*cross || front.ClientFor(u.Mailbox()) != front.ClientFor(alice.Mailbox())
	})
	if *cross {
		fmt.Printf("cross-shard: alice on %s, bob on %s\n",
			front.ClientFor(alice.Mailbox()).Addr(), front.ClientFor(bob.Mailbox()).Addr())
	}
	round := playPair(front, alice, bob, *msg)
	fmt.Printf("submitted round %d for both users; triggering round...\n", round)
	if copies, _ := awaitBody(front, driver, bob, round, 1, *msg); copies == 0 {
		log.Fatal("conversation message not delivered")
	}
	fmt.Printf("bob reads: %q\n", *msg)
}

// drawUser draws users of plan until want accepts one.
func drawUser(plan *chainsel.Plan, want func(*client.User) bool) *client.User {
	for range 2000 {
		if u := client.NewUser(nil, plan); want(u) {
			return u
		}
	}
	log.Fatal("could not place a user on the gateway asked for (is more than one gateway configured?)")
	return nil
}

// playPair puts alice and bob in conversation with msg queued from
// alice and plays one round for both. It returns the round played.
func playPair(front *rpc.MultiClient, alice, bob *client.User, msg string) uint64 {
	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		log.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		log.Fatal(err)
	}
	if err := alice.QueueMessage([]byte(msg)); err != nil {
		log.Fatal(err)
	}
	round, err := front.Play(alice, bob)
	if err != nil {
		log.Fatalf("round %d: %v", round, err)
	}
	return round
}

// awaitBody triggers a round at a time, up to rounds of them from
// round on, and counts the copies of msg bob receives in each until one
// has any. It returns the count and the round that delivered them.
func awaitBody(front *rpc.MultiClient, driver *rpc.Client, bob *client.User, round uint64, rounds int, msg string) (copies int, delivered uint64) {
	for r := round; r < round+uint64(rounds) && copies == 0; r++ {
		rep, err := driver.RunRound()
		if err != nil {
			log.Fatalf("round: %v", err)
		}
		fmt.Printf("round %d executed: %d messages delivered\n", rep.Round, rep.Delivered)
		recv, err := front.Receive(r, bob)
		if err != nil {
			log.Fatalf("receive: %v", err)
		}
		for _, m := range recv {
			if m.FromPartner && m.Kind == onion.KindConversation && string(m.Body) == msg {
				copies, delivered = copies+1, r
			}
		}
	}
	return copies, delivered
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
func runCrashDrill(front *rpc.MultiClient, driver *rpc.Client, plan *chainsel.Plan, dir, msg string) {
	// Both mailboxes — submissions and delivery — must live on the
	// gateway the script kills, or the drill proves nothing.
	target := front.Clients()[0].Addr()
	onTarget := func(u *client.User) bool { return front.ClientFor(u.Mailbox()).Addr() == target }
	alice, bob := drawUser(plan, onTarget), drawUser(plan, onTarget)
	round := playPair(front, alice, bob, msg)
	fmt.Printf("crash-drill: round %d outputs acknowledged by %s\n", round, target)

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
	copies, delivered := awaitBody(front, driver, bob, round, 2, msg)
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
