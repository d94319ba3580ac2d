package rpc

import (
	"bytes"
	"crypto/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/onion"
)

// startHopFleet launches k hop endpoints on loopback TLS sockets —
// the in-test equivalent of k `xrd-server -role mix` processes.
func startHopFleet(t testing.TB, k int) []*HopServer {
	t.Helper()
	fleet := make([]*HopServer, k)
	for i := range fleet {
		hs, err := NewHopServer("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		hs.Logf = func(string, ...any) {}
		t.Cleanup(func() { hs.Close() })
		fleet[i] = hs
	}
	return fleet
}

// distributedNetwork assembles a deployment whose single chain of k
// positions is hosted entirely on the fleet, fleet[i] at position i,
// wired through the TLS hop transport.
func distributedNetwork(t testing.TB, fleet []*HopServer) (*core.Network, *core.Frontend) {
	t.Helper()
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          len(fleet),
		NumChains:           1,
		ChainLengthOverride: len(fleet),
		Seed:                []byte("distributed-test"),
		Shards:              []core.GatewayShard{fe},
		HopForServer: func(epoch uint64, _, chain, pos int, base group.Point) (mix.Hop, error) {
			hc := DialHop(fleet[pos].Addr(), fleet[pos].ClientTLS())
			if _, err := hc.InitEpoch(epoch, chain, pos, base); err != nil {
				return nil, err
			}
			return hc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, fe
}

// localTwin is the same deployment shape with every position
// in-process: the reference the distributed transport must match.
func localTwin(t testing.TB, k int) (*core.Network, *core.Frontend) {
	t.Helper()
	fe, err := core.NewFrontend(core.FrontendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.NewNetwork(core.Config{
		NumServers:          k,
		NumChains:           1,
		ChainLengthOverride: k,
		Seed:                []byte("distributed-test"),
		Shards:              []core.GatewayShard{fe},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, fe
}

// converse registers two users in conversation, with a message from
// alice queued each round by the caller.
func converse(t testing.TB, fe *core.Frontend) (alice, bob *coreUser) {
	t.Helper()
	a, b := fe.NewUser(), fe.NewUser()
	if err := a.StartConversation(b.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := b.StartConversation(a.PublicKey()); err != nil {
		t.Fatal(err)
	}
	return &coreUser{fe: fe, u: a}, &coreUser{fe: fe, u: b}
}

// TestDistributedChainParity pins the acceptance criterion: a chain
// spanning three separate hop endpoints over TLS completes rounds
// with delivery output identical to the in-process transport.
func TestDistributedChainParity(t *testing.T) {
	fleet := startHopFleet(t, 3)
	dist, distFE := distributedNetwork(t, fleet)
	local, localFE := localTwin(t, 3)

	da, db := converse(t, distFE)
	la, lb := converse(t, localFE)

	for round := 1; round <= 2; round++ {
		text := []byte{'r', byte('0' + round)}
		for _, a := range []*coreUser{da, la} {
			if err := a.u.QueueMessage(text); err != nil {
				t.Fatal(err)
			}
		}
		dRep, err := dist.RunRound()
		if err != nil {
			t.Fatalf("distributed round %d: %v", round, err)
		}
		lRep, err := local.RunRound()
		if err != nil {
			t.Fatalf("local round %d: %v", round, err)
		}
		if len(dRep.HaltedChains) != 0 || len(dRep.BlamedUsers) != 0 {
			t.Fatalf("distributed round %d misbehaved: %+v", round, dRep)
		}
		if dRep.Delivered != lRep.Delivered {
			t.Fatalf("round %d delivered %d over TLS, %d in-process", round, dRep.Delivered, lRep.Delivered)
		}
		if got := db.read(t, dRep.Round); string(got) != string(text) {
			t.Fatalf("round %d: bob read %q over the distributed chain, want %q", round, got, text)
		}
		if got := lb.read(t, lRep.Round); string(got) != string(text) {
			t.Fatalf("round %d: bob read %q in-process, want %q", round, got, text)
		}
	}
}

// TestDistributedBlameOverTransport runs the blame protocol across
// the hop transport: a malicious submission that fails decryption at
// position 1 forces blame reveals from position 0, re-certification
// of the surviving subset, and a restaged retry — all over TLS —
// while honest traffic still delivers.
func TestDistributedBlameOverTransport(t *testing.T) {
	fleet := startHopFleet(t, 3)
	dist, distFE := distributedNetwork(t, fleet)
	alice, bob := converse(t, distFE)
	if err := alice.u.QueueMessage([]byte("survives blame")); err != nil {
		t.Fatal(err)
	}

	params, err := dist.ChainParams(0, dist.Round())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := mix.MaliciousSubmission(aead.ChaCha20Poly1305(), params, dist.Round(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist.InjectSubmission(0, bad)

	rep, err := dist.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HaltedChains) != 0 {
		t.Fatalf("honest chain halted: %+v", rep)
	}
	if rep.BlameRounds == 0 {
		t.Fatal("blame protocol did not run")
	}
	blamed := false
	for _, who := range rep.BlamedUsers {
		if who == "injected:0" {
			blamed = true
		}
	}
	if !blamed {
		t.Fatalf("malicious submitter not convicted: %+v", rep)
	}
	if got := bob.read(t, rep.Round); string(got) != "survives blame" {
		t.Fatalf("honest message lost to blame round: %q", got)
	}
}

// TestDistributedCorruptServer: core.Network.CorruptServer corrupts a
// position hosted on a remote hop endpoint as it does an in-process
// one. The product-preserving tamper at position 1 is caught at
// position 2 over TLS, and the blame walk convicts position 1 alone.
func TestDistributedCorruptServer(t *testing.T) {
	dist, distFE := distributedNetwork(t, startHopFleet(t, 3))
	alice, bob := converse(t, distFE)
	for _, u := range []*coreUser{alice, bob} {
		if err := u.u.QueueMessage([]byte("tampered")); err != nil {
			t.Fatal(err)
		}
	}
	if err := dist.CorruptServer(0, 1, &mix.Corruption{TamperPairs: [][2]int{{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	rep, err := dist.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.HaltedChains, []int{0}) || !reflect.DeepEqual(rep.BlamedServers, [][2]int{{0, 1}}) {
		t.Fatalf("halted %v blaming %v, want chain 0 halted blaming [[0 1]]", rep.HaltedChains, rep.BlamedServers)
	}
	if rep.Delivered != 0 || len(rep.BlamedUsers) != 0 {
		t.Fatalf("delivered %d, blamed users %v; want neither", rep.Delivered, rep.BlamedUsers)
	}
}

// TestDistributedBlameTwoLayersMatchesLocal runs a batch wide enough
// for the batched hop kernel and its worker ranges through one set of
// three mix servers twice — reached over TLS, and in-process through
// mix.LocalHop — with ciphertexts that fail at two different
// positions. Each failing position re-mixes the survivors, recalling
// the failed call's exponentiations on whichever side of the wire the
// server sits; both chains must convict exactly the injected
// submissions and deliver the same messages.
func TestDistributedBlameTwoLayersMatchesLocal(t *testing.T) {
	const k, honest = 3, 260
	scheme := aead.ChaCha20Poly1305()
	fleet := startHopFleet(t, k)
	remote, local := make([]mix.Hop, k), make([]mix.Hop, k)
	base := group.Generator()
	for i, hs := range fleet {
		hc := DialHop(hs.Addr(), hs.ClientTLS())
		t.Cleanup(func() { hc.Close() })
		keys, err := hc.Init(0, i, base)
		if err != nil {
			t.Fatal(err)
		}
		remote[i], local[i], base = hc, mix.LocalHop(hs.srv), keys.Bpk
	}
	newChain := func(hops []mix.Hop) *mix.Chain {
		t.Helper()
		chain, err := mix.NewChainFromHops(0, hops, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.BeginRound(1); err != nil {
			t.Fatal(err)
		}
		return chain
	}
	overTLS, inProcess := newChain(remote), newChain(local)
	params, err := overTLS.ParamsFor(1)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]onion.Submission, honest)
	for i := range subs {
		if subs[i], err = mix.CraftValidOnion(scheme, params, 1, client.LaneCurrent, group.Generator()); err != nil {
			t.Fatal(err)
		}
	}
	injected := map[int]int{17: 1, 140: 2, 201: 1} // submission index → failing position
	var wantBlamed []int
	for at, layer := range injected {
		if subs[at], err = mix.MaliciousSubmission(scheme, params, 1, client.LaneCurrent, layer); err != nil {
			t.Fatal(err)
		}
		wantBlamed = append(wantBlamed, at)
	}
	sort.Ints(wantBlamed)

	results := make(map[string]*mix.RoundResult)
	for name, chain := range map[string]*mix.Chain{"over TLS": overTLS, "in-process": inProcess} {
		res, err := chain.RunRound(1, client.LaneCurrent, subs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Halted || len(res.BlamedServers) != 0 {
			t.Fatalf("%s: honest chain halted blaming %v", name, res.BlamedServers)
		}
		sort.Ints(res.BlamedUsers)
		if res.BlameRounds != 2 || !reflect.DeepEqual(res.BlamedUsers, wantBlamed) {
			t.Fatalf("%s: %d blame runs convicted %v, want 2 convicting %v", name, res.BlameRounds, res.BlamedUsers, wantBlamed)
		}
		if len(res.Delivered) != honest-len(injected) {
			t.Fatalf("%s: delivered %d of %d honest messages", name, len(res.Delivered), honest-len(injected))
		}
		sort.Slice(res.Delivered, func(i, j int) bool { return bytes.Compare(res.Delivered[i], res.Delivered[j]) < 0 })
		results[name] = res
	}
	if !reflect.DeepEqual(results["over TLS"].Delivered, results["in-process"].Delivered) {
		t.Fatal("the chain over TLS and the in-process chain delivered different messages")
	}
}

// TestDistributedBlameDuplicateSubmissions: two submitters send
// byte-identical submissions that fail at the middle position, to the
// same three mix servers reached over TLS and in-process. The copies
// are one envelope at every position, and each chain must still trace
// them to two submissions: both convicted, no server blamed, every
// honest message delivered.
func TestDistributedBlameDuplicateSubmissions(t *testing.T) {
	const k, honest = 3, 12
	scheme := aead.ChaCha20Poly1305()
	fleet := startHopFleet(t, k)
	remote, local := make([]mix.Hop, k), make([]mix.Hop, k)
	base := group.Generator()
	for i, hs := range fleet {
		hc := DialHop(hs.Addr(), hs.ClientTLS())
		t.Cleanup(func() { hc.Close() })
		keys, err := hc.Init(0, i, base)
		if err != nil {
			t.Fatal(err)
		}
		remote[i], local[i], base = hc, mix.LocalHop(hs.srv), keys.Bpk
	}
	for name, hops := range map[string][]mix.Hop{"over TLS": remote, "in-process": local} {
		chain, err := mix.NewChainFromHops(0, hops, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.BeginRound(1); err != nil {
			t.Fatal(err)
		}
		params, err := chain.ParamsFor(1)
		if err != nil {
			t.Fatal(err)
		}
		subs := make([]onion.Submission, honest)
		for i := range subs {
			if subs[i], err = mix.CraftValidOnion(scheme, params, 1, client.LaneCurrent, group.Generator()); err != nil {
				t.Fatal(err)
			}
		}
		bad, err := mix.MaliciousSubmission(scheme, params, 1, client.LaneCurrent, 1)
		if err != nil {
			t.Fatal(err)
		}
		subs[2], subs[9] = bad, bad
		res, err := chain.RunRound(1, client.LaneCurrent, subs)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(res.BlamedUsers)
		if res.Halted || len(res.BlamedServers) != 0 || !reflect.DeepEqual(res.BlamedUsers, []int{2, 9}) {
			t.Fatalf("%s: halted %v, blamed servers %v and users %v, want users [2 9] only", name, res.Halted, res.BlamedServers, res.BlamedUsers)
		}
		if len(res.Delivered) != honest-2 {
			t.Fatalf("%s: delivered %d of %d honest messages", name, len(res.Delivered), honest-2)
		}
	}
}

// TestDistributedHopDeath kills one hop endpoint mid-deployment. The
// round must absorb the loss — halt the chain, blame the position,
// return a report — instead of wedging or crashing; announcing the
// next round's keys fails, which the report-plus-error return
// surfaces.
func TestDistributedHopDeath(t *testing.T) {
	fleet := startHopFleet(t, 3)
	dist, distFE := distributedNetwork(t, fleet)
	alice, _ := converse(t, distFE)
	if err := alice.u.QueueMessage([]byte("doomed")); err != nil {
		t.Fatal(err)
	}

	fleet[1].Close()

	rep, err := dist.RunRound()
	if rep == nil {
		t.Fatalf("no report after hop death (err=%v)", err)
	}
	if len(rep.HaltedChains) != 1 || rep.HaltedChains[0] != 0 {
		t.Fatalf("chain not halted after hop death: %+v", rep)
	}
	if rep.Delivered != 0 {
		t.Fatalf("halted chain delivered %d messages", rep.Delivered)
	}
	if err == nil {
		t.Fatal("announcing through a dead hop succeeded")
	}
}

// TestLargeBatchRoundTrip carries round-sized bodies — bigger than any
// one read of the frame layer, bigger than the chunk bound the
// protocol used to have — through each seam in a single exchange and
// requires the remote answer to be the in-process one.
func TestLargeBatchRoundTrip(t *testing.T) {
	const megabyte = 1 << 20
	wireSize := func(v any) int {
		t.Helper()
		frame, err := encodeFrame("", v)
		if err != nil {
			t.Fatal(err)
		}
		return frame.Len()
	}

	// hop.mix: 4096 + 17 well-formed onions into one position and
	// back. The shuffle is the position's secret coin, so two mixes of
	// one batch differ in order and in nothing else: sorted, the
	// remote output is the in-process one.
	t.Run("hop.mix", func(t *testing.T) {
		hs, hc := startHop(t)
		chain, err := mix.NewChainFromHops(0, []mix.Hop{hc}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := chain.BeginRound(1); err != nil {
			t.Fatal(err)
		}
		params, err := chain.ParamsFor(1)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]onion.Envelope, 4096+17)
		for i := range in {
			sub, err := mix.CraftValidOnion(aead.ChaCha20Poly1305(), params, 1, client.LaneCurrent, group.Generator())
			if err != nil {
				t.Fatal(err)
			}
			in[i] = sub.Envelope
		}
		nonce := aead.RoundNonce(1, client.LaneCurrent)
		sorted := func(hop mix.Hop) []onion.Envelope {
			t.Helper()
			mr, err := hop.Mix(1, nonce, in)
			if err != nil {
				t.Fatal(err)
			}
			if len(mr.Failed) != 0 || len(mr.Out) != len(in) {
				t.Fatalf("%d inputs: %d failed, %d outputs", len(in), len(mr.Failed), len(mr.Out))
			}
			keys := hop.Keys()
			if err := mix.VerifyMix(1, 0, 0, 0, keys.BpkPrev, keys.Bpk, in, mr.Out, mr.Proof); err != nil {
				t.Fatal(err)
			}
			out := []onion.Envelope(mr.Out)
			sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Ct, out[j].Ct) < 0 })
			return out
		}
		remote, local := sorted(hc), sorted(mix.LocalHop(hs.srv))
		if !reflect.DeepEqual(remote, local) {
			t.Fatal("hop.mix over the wire and LocalHop disagree on the mixed batch")
		}
		if size := wireSize(remote); size < megabyte {
			t.Fatalf("batch is %d bytes on the wire, not a large one", size)
		}
	})

	// shard.begin and shard.finish against one full-range gateway
	// shard. A round's build is cached per user, so beginning the same
	// round in-process and over the wire yields the same submissions;
	// the deliveries go to the shard and to an in-process twin.
	t.Run("shard", func(t *testing.T) {
		newFrontend := func() *core.Frontend {
			fe, err := core.NewFrontend(core.FrontendConfig{MailboxServers: 2})
			if err != nil {
				t.Fatal(err)
			}
			return fe
		}
		fe, twin := newFrontend(), newFrontend()
		ss, err := NewShardServer(fe, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ss.Logf = func(string, ...any) {}
		defer ss.Close()
		sc, err := NewShardClient(0, 64, ss.Addr(), ss.ClientTLS())
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		n, err := core.NewNetwork(core.Config{
			NumServers:          4,
			ChainLengthOverride: 2,
			Seed:                []byte("large-batch"),
			Shards:              []core.GatewayShard{sc},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Init(n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2200/n.Plan().L; i++ {
			fe.NewUser()
		}
		rho := n.Round()
		br := &core.BeginRound{Round: rho, Params: n.Params()}
		bySubmitter := func(build *core.ShardBuild, err error) []map[string]onion.Submission {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			out := make([]map[string]onion.Submission, len(build.Batches))
			for c, b := range build.Batches {
				out[c] = make(map[string]onion.Submission, len(b.Subs))
				for i, who := range b.Submitters {
					out[c][who] = b.Subs[i]
				}
			}
			return out
		}
		local := bySubmitter(fe.BeginRound(br))
		build, err := sc.BeginRound(br)
		remote := bySubmitter(build, err)
		if !reflect.DeepEqual(remote, local) {
			t.Fatal("shard.begin over the wire and Frontend.BeginRound disagree on the build")
		}
		if size := wireSize(build); size < megabyte {
			t.Fatalf("build is %d bytes on the wire, not a large one", size)
		}

		fr := &core.FinishRound{Round: rho}
		for i := 0; i < 4000; i++ {
			msg := make([]byte, onion.MailboxMessageSize)
			if _, err := rand.Read(msg); err != nil {
				t.Fatal(err)
			}
			msg[0] = byte(i % 50) // 50 mailboxes, 80 messages each
			copy(msg[1:group.PointSize], "a mailbox identifier, 33 bytes..")
			fr.Delivered = append(fr.Delivered, msg)
		}
		got, err := sc.FinishRound(fr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.FinishRound(fr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got.Delivered != len(fr.Delivered) {
			t.Fatalf("shard.finish stored %+v, the in-process twin %+v, of %d sent", got, want, len(fr.Delivered))
		}
		for i := 0; i < 50; i++ {
			mailbox := fr.Delivered[i][:group.PointSize]
			if !reflect.DeepEqual(fe.FetchMailbox(rho, mailbox), twin.FetchMailbox(rho, mailbox)) {
				t.Fatalf("mailbox %d differs between the remote shard and its twin", i)
			}
		}
		if size := wireSize(fr); size < megabyte {
			t.Fatalf("finish is %d bytes on the wire, not a large one", size)
		}
	})
}

// coreUser wraps a registered user with mailbox reading.
type coreUser struct {
	fe *core.Frontend
	u  *client.User
}

func (c *coreUser) read(t testing.TB, round uint64) []byte {
	t.Helper()
	msgs := c.fe.FetchMailbox(round, c.u.Mailbox())
	recv, bad := c.u.OpenMailbox(round, msgs)
	if bad != 0 {
		t.Fatalf("%d undecryptable messages", bad)
	}
	for _, r := range recv {
		if r.FromPartner && r.Kind == onion.KindConversation {
			return r.Body
		}
	}
	return nil
}
