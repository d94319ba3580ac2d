package rpc

import (
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/aead"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// endpoints stands up one of each serving endpoint — a monolith
// Server, a ShardServer, a bound HopServer — the fixtures of the
// method-table tests and of FuzzDispatch.
type endpoints struct {
	n     *core.Network
	srv   *Server
	shard *ShardServer
	hop   *HopServer
	// sub is a real submission, so sample requests carry well-formed
	// elements.
	sub onion.Submission
}

func startEndpoints(t testing.TB) *endpoints {
	t.Helper()
	e := &endpoints{}
	e.n, e.srv = newDeployment(t)
	_, _, shards := newShardedDeployment(t)
	e.shard = shards[0]
	e.hop = startHopFleet(t, 1)[0]
	hc := DialHop(e.hop.Addr(), e.hop.ClientTLS())
	t.Cleanup(func() { hc.Close() })
	if _, err := hc.Init(0, 0, group.Generator()); err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(e.srv.Addr(), e.srv.ClientTLS())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out, err := newRemoteUser(t, e.n).BuildRound(e.n.Round(), conn)
	if err != nil {
		t.Fatal(err)
	}
	e.sub = out.Current[0].Sub
	return e
}

func (e *endpoints) tables() []*listenerCore {
	return []*listenerCore{e.srv.listenerCore, e.shard.listenerCore, e.hop.listenerCore}
}

// TestMethodTablesAgree pins the client policy table to the server
// handler tables: every served method has a policy entry and vice
// versa, and nothing that must not be re-sent is marked for retry.
func TestMethodTablesAgree(t *testing.T) {
	e := startEndpoints(t)
	served := make(map[string]bool)
	for _, lc := range e.tables() {
		for name := range lc.methods {
			served[name] = true
			if _, ok := policies[name]; !ok {
				t.Errorf("served method %q has no client policy entry", name)
			}
		}
	}
	for name, pol := range policies {
		if !served[name] {
			t.Errorf("policy entry %q is served by no endpoint", name)
		}
		if pol.retry && (strings.HasPrefix(name, "hop.") || name == "shard.finish") {
			t.Errorf("%s is marked for retry; a hop's failure is the chain's to blame and a re-sent finish would deliver twice", name)
		}
	}
}

// TestRetryPolicyDials drives every method against a gateway that
// reads the request and hangs up, and counts dials: exactly one for a
// method without retry — so "retry policy is data" cannot silently
// start double-delivering — and exactly two, the second on a fresh
// connection, for a retried one.
func TestRetryPolicyDials(t *testing.T) {
	ep, _ := startFakeGateway(t, func(conn net.Conn) {
		ReadFrame(conn)
		conn.Close()
	})
	for name, pol := range policies {
		var dials atomic.Int32
		count := func(c net.Conn) net.Conn { dials.Add(1); return c }
		var l *link
		if strings.HasPrefix(name, "hop.") {
			hc := DialHop(ep.Addr, ep.TLS)
			hc.SetConnWrapper(count)
			l = hc.link
		} else {
			l = NewClient(ep.Addr, ep.TLS).link
			l.wrap = count
		}
		var out struct{}
		err := l.call(name, struct{}{}, &out)
		l.close()
		if !IsTransportError(err) {
			t.Errorf("%s: error %v, want a transport error", name, err)
		}
		want := int32(1)
		if pol.retry {
			want = 2
		}
		if got := dials.Load(); got != want {
			t.Errorf("%s: %d dials after a transport failure, want %d", name, got, want)
		}
	}
}

func TestParseEndpoints(t *testing.T) {
	dir := t.TempDir()
	serverTLS, _, err := SelfSignedTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	pem, err := CertificatePEM(serverTLS)
	if err != nil {
		t.Fatal(err)
	}
	cert := filepath.Join(dir, "gw.pem")
	if err := os.WriteFile(cert, pem, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.pem")
	cases := []struct {
		name      string
		coordCert string
		gateways  string
		want      []string // addresses; nil means an error
	}{
		{"monolith: the coordinator serves users", cert, "", []string{"coord:1"}},
		{"blank list is the monolith too", cert, "  ", []string{"coord:1"}},
		{"one gateway", missing, "a:1=" + cert, []string{"a:1"}},
		{"two gateways, spaces around entries", missing, " a:1=" + cert + " , b:2=" + cert, []string{"a:1", "b:2"}},
		{"entry without a certificate", cert, "a:1", nil},
		{"entry with three parts", cert, "0:32=a:1=" + cert, nil},
		{"trailing comma", cert, "a:1=" + cert + ",", nil},
		{"unreadable gateway certificate", cert, "a:1=" + missing, nil},
		{"unreadable coordinator certificate", missing, "", nil},
	}
	for _, tc := range cases {
		eps, err := ParseEndpoints("coord:1", tc.coordCert, tc.gateways)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted as %v", tc.name, eps)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var got []string
		for _, ep := range eps {
			if ep.TLS == nil || ep.TLS.RootCAs == nil {
				t.Errorf("%s: endpoint %s has no pinned certificate", tc.name, ep.Addr)
			}
			got = append(got, ep.Addr)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("%s: endpoints %v, want %v", tc.name, got, tc.want)
		}
	}
}

// sampleRequests is one well-formed request per method — FuzzDispatch's
// seed corpus, which must cover every served method.
func sampleRequests(e *endpoints) map[string]any {
	g := group.Generator()
	sub := e.sub
	params := make([]mix.Params, 2)
	for c := range params {
		params[c], _ = e.n.ChainParams(c, e.n.Round())
	}
	return map[string]any{
		"params":   ParamsRequest{Chain: 0, Round: e.n.Round()},
		"submit":   SubmitRequest{Round: e.n.Round(), Mailbox: g.Bytes(), Current: []client.ChainMessage{{Chain: 0, Sub: sub}}},
		"register": RegisterRequest{Mailboxes: [][]byte{g.Bytes()}},
		"fetch":    FetchRequest{Round: 1, Mailbox: g.Bytes()},
		"ack":      AckRequest{Round: 1, Mailbox: g.Bytes()},
		"status":   struct{}{},
		"runround": struct{}{},

		"hop.init":    HopInitRequest{Chain: 0, Index: 0, Base: g},
		"hop.begin":   HopBeginRequest{Round: 1},
		"hop.reveal":  HopRevealRequest{Round: 1},
		"hop.mix":     HopMixRequest{Round: 1, Envelopes: []onion.Envelope{sub.Envelope}},
		"hop.certify": HopCertifyRequest{Round: 1, N: 1, Keep: []byte{1}},
		"hop.blame":   HopBlameRequest{Round: 1, Msg: 0, Pos: 0},
		"hop.accuse":  HopAccuseRequest{Round: 1, Msg: 0, Key: g},

		"shard.init":      ShardInitRequest{Lo: 0, Hi: 32, Epoch: 0, Round: 1, NumChains: 2, ChainLength: 3, Cur: params, Next: params},
		"shard.begin":     core.BeginRound{Round: 1, NumChains: 2, Cur: params, Next: params, Pipelined: true},
		"shard.finish":    core.FinishRound{Round: 1, Delivered: [][]byte{g.Bytes()}, NumChains: 2, Cur: params, Next: params},
		"shard.abort":     ShardAbortRequest{Round: 1},
		"shard.rebalance": ShardRebalanceRequest{Epoch: 1, NumChains: 2},
	}
}

// fuzzBody is a sample request's body as it sits in a frame, after
// the method name; withMethod is the inverse, the payload dispatch
// takes. The method name is a bare string, so a body encodes the same
// whether or not a header came before it in the stream.
func fuzzBody(t testing.TB, method string, req any) []byte {
	t.Helper()
	frame, err := encodeFrame(method, req)
	if err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()[len(withMethod(t, method, nil)):]
}

func withMethod(t testing.TB, method string, body []byte) []byte {
	t.Helper()
	frame, err := encodeFrame(method, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(frame.Bytes(), body...)
}

// FuzzDispatch feeds every handler of every endpoint arbitrary body
// bytes. The handlers sit directly behind the network with no
// recover, so the property is: an error response, never a panic.
func FuzzDispatch(f *testing.F) {
	e := startEndpoints(f)
	samples := sampleRequests(e)
	var names []string
	for _, lc := range e.tables() {
		for name := range lc.methods {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		req, ok := samples[name]
		if !ok {
			f.Fatalf("no sample request for served method %q", name)
		}
		body := fuzzBody(f, name, req)
		f.Add(name, body)
		f.Add(name, body[:len(body)/2])
		f.Add(name, []byte{})
	}
	// A round-sized batch — the benchmark's 512 envelopes into one
	// position, one ≈ 265 KB onion.Batch block in one body — whole and
	// cut short; a batch in the block's per-envelope layout; and one
	// whose block is cut inside its key column, so its count claims
	// envelopes that are not there.
	batch := HopMixRequest{Round: 1, Envelopes: make(onion.Batch, 512)}
	for i := range batch.Envelopes {
		batch.Envelopes[i] = e.sub.Envelope
	}
	body := fuzzBody(f, "hop.mix", batch)
	f.Add("hop.mix", body)
	f.Add("hop.mix", body[:len(body)-len(body)/3])
	f.Add("hop.mix", body[:len(body)/20])
	uneven := HopMixRequest{Round: 1, Envelopes: onion.Batch{e.sub.Envelope, {DHKey: e.sub.DHKey, Ct: []byte("short")}}}
	f.Add("hop.mix", fuzzBody(f, "hop.mix", uneven))
	// Mailbox identifiers that are not a compressed key, a short one
	// and one a mebibyte long: refused by their length.
	for _, mb := range [][]byte{make([]byte, 16), make([]byte, 1<<20)} {
		f.Add("register", fuzzBody(f, "register", RegisterRequest{Mailboxes: [][]byte{mb}}))
		f.Add("submit", fuzzBody(f, "submit", SubmitRequest{Round: 1, Mailbox: mb, Current: []client.ChainMessage{{Chain: 0, Sub: e.sub}}}))
	}

	f.Fuzz(func(t *testing.T, method string, body []byte) {
		payload := withMethod(t, method, body)[prefixLen:]
		for _, lc := range e.tables() {
			if _, err := lc.dispatch(payload); err != nil {
				t.Fatalf("%s: a well-formed method name cost the connection: %v", method, err)
			}
		}
	})
}

// replies is one well-formed reply per method — FuzzReply's seed
// corpus. Its points and proofs are real, so each seed decodes.
func replies(params mix.Params, sub onion.Submission) map[string]any {
	g := group.Generator()
	x := group.NewScalar(5)
	proof := nizk.ProveDlog("fuzz", g, x)
	return map[string]any{
		"params":   params,
		"submit":   SubmitResponse{Accepted: true},
		"register": RegisterResponse{Registered: 1},
		"fetch":    FetchResponse{Messages: [][]byte{g.Bytes()}},
		"ack":      AckResponse{Pruned: 1},
		"status":   StatusResponse{Round: 1, NumChains: 2, ChainLength: 3, L: 2, Role: "gateway", ShardHi: 32, Users: 1},
		"runround": core.RoundReport{Round: 1, Delivered: 2, BlamedServers: [][2]int{{0, 1}}},

		"hop.init":    mix.HopKeys{BpkPrev: g, Bpk: g, Mpk: g, BaselinePub: g, BskProof: proof, MskProof: proof},
		"hop.begin":   HopBeginResponse{Ipk: g, Proof: proof},
		"hop.reveal":  HopRevealResponse{Isk: x},
		"hop.mix":     mix.MixResult{Out: onion.Batch{sub.Envelope}, Proof: proof, Out2In: []int{0}},
		"hop.certify": proof,
		"hop.blame":   mix.BlameReveal{Xin: g, BlindProof: proof, K: g, KeyProof: proof},
		"hop.accuse":  mix.AccuseReveal{K: g, Proof: proof},

		"shard.init":      ShardInitResponse{},
		"shard.begin":     core.ShardBuild{Batches: []core.ChainBatch{{Subs: []onion.Submission{sub}, Submitters: []string{string(g.Bytes())}}}, Covered: 1},
		"shard.finish":    core.FinishStats{Delivered: 1},
		"shard.abort":     ack{},
		"shard.rebalance": ack{},
	}
}

// FuzzReply is FuzzDispatch from the caller's side: a fake endpoint
// answers every request with one fuzzed reply body, and each method in
// policies is called through the client type that makes it — Client,
// MultiClient, HopClient or ShardClient. The property: an error or a
// decoded reply, never a panic.
func FuzzReply(f *testing.F) {
	n, _ := newDeployment(f)
	out, err := newRemoteUser(f, n).BuildRound(n.Round(), n)
	if err != nil {
		f.Fatal(err)
	}
	sub := out.Current[0].Sub
	params, err := n.ChainParams(0, n.Round())
	if err != nil {
		f.Fatal(err)
	}

	var reply atomic.Pointer[[]byte]
	ep, _ := startFakeGateway(f, func(conn net.Conn) {
		defer conn.Close()
		for {
			if _, err := ReadFrame(conn); err != nil {
				return
			}
			frame := NewFrame()
			frame.Write(*reply.Load())
			if WriteFrame(conn, frame) != nil {
				return
			}
		}
	})
	c := NewClient(ep.Addr, ep.TLS)
	m, err := NewMultiClient([]Endpoint{ep})
	if err != nil {
		f.Fatal(err)
	}
	m.Backoff = Backoff{Attempts: 1}
	hc := DialHop(ep.Addr, ep.TLS)
	sc, err := NewShardClient(0, 32, ep.Addr, ep.TLS)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close(); m.Close(); hc.Close(); sc.Close() })

	g := group.Generator()
	mb := g.Bytes()
	calls := map[string]func(){
		"params": func() {
			// A client of its own on the shared link: a decoded reply is
			// cached, and a cached one would never reach the decoder again.
			fresh := NewClient(ep.Addr, ep.TLS)
			fresh.link = c.link
			fresh.ChainParams(0, 1)
		},
		"submit":   func() { m.Submit(mb, out) },
		"register": func() { m.Register([][]byte{mb}) },
		"fetch":    func() { m.Fetch(1, mb) },
		"ack":      func() { m.Ack(1, mb) },
		"status":   func() { m.Refresh() },
		"runround": func() { c.RunRound() },

		"hop.init":    func() { hc.Init(0, 0, g) },
		"hop.begin":   func() { hc.BeginRound(1) },
		"hop.reveal":  func() { hc.RevealInnerKey(1) },
		"hop.mix":     func() { hc.Mix(1, [aead.NonceSize]byte{}, []onion.Envelope{sub.Envelope}) },
		"hop.certify": func() { hc.ReProveSubset(1, 0, []bool{true}) },
		"hop.blame":   func() { hc.BlameReveal(1, 0, 0) },
		"hop.accuse":  func() { hc.Accuse(1, 0, g) },

		"shard.init":      func() { sc.Init(n) },
		"shard.begin":     func() { sc.BeginRound(&core.BeginRound{Round: 1, NumChains: 2}) },
		"shard.finish":    func() { sc.FinishRound(&core.FinishRound{Round: 1}) },
		"shard.abort":     func() { sc.AbortRound(1) },
		"shard.rebalance": func() { sc.Rebalance(1, 2) },
	}
	samples := replies(params, sub)
	for name := range policies {
		if calls[name] == nil || samples[name] == nil {
			f.Fatalf("method %q has no caller or no sample reply", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(samples)) {
		body := fuzzBody(f, "", samples[name])
		f.Add(name, body)
		f.Add(name, body[:len(body)/2])
		f.Add(name, []byte{})
	}

	f.Fuzz(func(t *testing.T, method string, body []byte) {
		call := calls[method]
		if call == nil {
			return
		}
		payload := withMethod(t, "", body)[prefixLen:]
		reply.Store(&payload)
		call()
	})
}
