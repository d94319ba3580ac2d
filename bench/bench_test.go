package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aead"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/store"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	if got := unionLength([][2]int64{{0, 10}, {5, 15}, {20, 30}, {22, 25}}); got != 25 {
		t.Errorf("unionLength = %d, want 25", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("unionLength(nil) = %d", got)
	}
	// Overlapping children count once; a child is clipped to its
	// parent; one wholly outside counts for nothing.
	parent := [2]int64{100, 200}
	children := [][2]int64{{110, 130}, {120, 150}, {190, 250}, {300, 400}}
	if got := selfTime(parent, children); got != 100-40-10 {
		t.Errorf("selfTime = %d, want 50", got)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var c connCounters
	wrapped := c.wrap(a)
	go func() {
		buf := make([]byte, 5)
		io.ReadFull(b, buf)
		b.Write([]byte("pong!!!"))
	}()
	if _, err := wrapped.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(wrapped, buf); err != nil {
		t.Fatal(err)
	}
	if c.out.Load() != 5 || c.in.Load() != 7 || c.writes.Load() != 1 {
		t.Errorf("counted out=%d in=%d writes=%d, want 5, 7, 1", c.out.Load(), c.in.Load(), c.writes.Load())
	}
}

var errSentinel = errors.New("sentinel")

// fakeHop answers every call with values a decorator must hand back
// untouched.
type fakeHop struct {
	point group.Point
	proof nizk.Proof
	res   *mix.MixResult
}

func (f fakeHop) Keys() mix.HopKeys { return mix.HopKeys{Chain: 3, Index: 1} }
func (f fakeHop) BeginRound(uint64) (group.Point, nizk.Proof, error) {
	return f.point, f.proof, errSentinel
}
func (f fakeHop) RevealInnerKey(uint64) (group.Scalar, error) { return group.NewScalar(7), errSentinel }
func (f fakeHop) Mix(uint64, [aead.NonceSize]byte, []onion.Envelope) (*mix.MixResult, error) {
	return f.res, errSentinel
}
func (f fakeHop) ReProveSubset(uint64, int, []bool) (nizk.Proof, error) { return f.proof, errSentinel }
func (f fakeHop) BlameReveal(uint64, int, int) (mix.BlameReveal, error) {
	return mix.BlameReveal{Xin: f.point}, errSentinel
}
func (f fakeHop) Accuse(uint64, int, group.Point) (mix.AccuseReveal, error) {
	return mix.AccuseReveal{K: f.point}, errSentinel
}

func TestSpanHopForwardsUnchanged(t *testing.T) {
	inner := fakeHop{point: group.Generator(), res: &mix.MixResult{Failed: []int{2}}}
	rec := newRecorder()
	rec.on.Store(true)
	h := spanHop{Hop: inner, rec: rec, chain: 3, pos: 1}

	if h.Keys() != inner.Keys() {
		t.Error("Keys not forwarded")
	}
	if p, _, err := h.BeginRound(1); !p.Equal(inner.point) || err != errSentinel {
		t.Error("BeginRound changed its results")
	}
	if s, err := h.RevealInnerKey(1); !s.Equal(group.NewScalar(7)) || err != errSentinel {
		t.Error("RevealInnerKey changed its results")
	}
	if res, err := h.Mix(1, [aead.NonceSize]byte{}, make([]onion.Envelope, 4)); res != inner.res || err != errSentinel {
		t.Error("Mix changed its results")
	}
	if _, err := h.ReProveSubset(1, 0, nil); err != errSentinel {
		t.Error("ReProveSubset dropped the error")
	}
	if r, err := h.BlameReveal(1, 0, 0); !r.Xin.Equal(inner.point) || err != errSentinel {
		t.Error("BlameReveal changed its results")
	}
	if a, err := h.Accuse(1, 0, inner.point); !a.K.Equal(inner.point) || err != errSentinel {
		t.Error("Accuse changed its results")
	}
	spans := rec.snapshot()
	if len(spans) != 6 {
		t.Fatalf("recorded %d spans, want 6", len(spans))
	}
	for _, sp := range spans {
		if sp.Chain != 3 || sp.Pos != 1 || sp.Layer != "mix" || sp.End < sp.Start {
			t.Errorf("bad span %+v", sp)
		}
	}
	if spans[2].Name != "mix" || spans[2].Count != 4 {
		t.Errorf("mix span %+v, want count 4", spans[2])
	}

	// Off, the decorator still forwards and records nothing.
	rec.on.Store(false)
	if _, err := h.Mix(1, [aead.NonceSize]byte{}, nil); err != errSentinel {
		t.Error("Mix dropped the error while not recording")
	}
	if len(rec.snapshot()) != 6 {
		t.Error("recorded a span while off")
	}
}

type fakeShard struct {
	build *core.ShardBuild
	err   error
}

func (f fakeShard) Range() core.ShardRange { return core.ShardRange{Lo: 0, Hi: 32} }
func (f fakeShard) BeginRound(*core.BeginRound) (*core.ShardBuild, error) {
	return f.build, f.err
}
func (f fakeShard) FinishRound(*core.FinishRound) (core.FinishStats, error) {
	return core.FinishStats{Delivered: 9, Dropped: 1}, f.err
}
func (f fakeShard) AbortRound(uint64)           {}
func (f fakeShard) Rebalance(uint64, int) error { return f.err }

func TestSpanShardForwardsUnchanged(t *testing.T) {
	build := &core.ShardBuild{Batches: []core.ChainBatch{{Subs: make([]onion.Submission, 3)}}, Covered: 2}
	rec := newRecorder()
	rec.on.Store(true)
	ok := spanShard{GatewayShard: fakeShard{build: build}, rec: rec, shard: 1}
	if got, err := ok.BeginRound(&core.BeginRound{Round: 5}); got != build || err != nil {
		t.Error("BeginRound changed its results")
	}
	if stats, err := ok.FinishRound(&core.FinishRound{Round: 5, Delivered: make([][]byte, 9)}); stats != (core.FinishStats{Delivered: 9, Dropped: 1}) || err != nil {
		t.Error("FinishRound changed its results")
	}
	if ok.Range() != (core.ShardRange{Lo: 0, Hi: 32}) {
		t.Error("Range not forwarded")
	}
	spans := rec.snapshot()
	if len(spans) != 2 || spans[0].Name != "begin" || spans[0].Count != 3 || spans[1].Name != "finish" || spans[1].Shard != 1 {
		t.Errorf("spans %+v", spans)
	}
	if len(rec.batches[1]) != 1 || len(rec.delivered[1]) != 9 {
		t.Error("batches or deliveries not captured")
	}

	bad := spanShard{GatewayShard: fakeShard{err: errSentinel}, rec: rec, shard: 0}
	if got, err := bad.BeginRound(&core.BeginRound{}); got != nil || err != errSentinel {
		t.Error("BeginRound error not forwarded")
	}
	if _, err := bad.FinishRound(&core.FinishRound{}); err != errSentinel {
		t.Error("FinishRound error not forwarded")
	}
	if err := bad.Rebalance(1, 8); err != errSentinel {
		t.Error("Rebalance error not forwarded")
	}
}

type failingStore struct{ store.Mem }

func (failingStore) Sync() error                   { return errSentinel }
func (failingStore) Append(store.Op, []byte) error { return errSentinel }
func (failingStore) Snapshot([]byte) error         { return errSentinel }
func (failingStore) Close() error                  { return errSentinel }

func TestCountingStoreForwardsAndCounts(t *testing.T) {
	var c storeCounters
	s := countingStore{Store: store.Mem{}, c: &c}
	if err := s.Append(1, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if c.appends.Load() != 1 || c.syncs.Load() != 1 || c.bytes.Load() != 111 || len(c.syncMs) != 1 || len(c.snapshots) != 1 {
		t.Errorf("counted appends=%d syncs=%d bytes=%d", c.appends.Load(), c.syncs.Load(), c.bytes.Load())
	}
	f := countingStore{Store: failingStore{}, c: &c}
	if f.Append(1, nil) != errSentinel || f.Sync() != errSentinel || f.Snapshot(nil) != errSentinel || f.Close() != errSentinel {
		t.Error("store errors not forwarded")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		a, err := newInputs(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(s, 7)
		other, _ := newInputs(s, 8)
		if !reflect.DeepEqual(a.Pairs, b.Pairs) || !reflect.DeepEqual(a.Partner, b.Partner) {
			t.Errorf("%s: pairing differs under one seed", s.Name)
		}
		if reflect.DeepEqual(a.Pairs, other.Pairs) {
			t.Errorf("%s: pairing does not depend on the seed", s.Name)
		}
		if !bytes.Equal(a.TopologySeed(), b.TopologySeed()) || bytes.Equal(a.TopologySeed(), other.TopologySeed()) {
			t.Errorf("%s: topology seed", s.Name)
		}
		for round := uint64(1); round < 14; round++ {
			for _, u := range []int{0, 1, s.Users - 1} {
				if !bytes.Equal(a.Body(round, u), b.Body(round, u)) {
					t.Fatalf("%s: body differs under one seed", s.Name)
				}
			}
			if bytes.Equal(a.Body(round, 0), a.Body(round+1, 0)) || bytes.Equal(a.Body(round, 0), a.Body(round, 1)) ||
				bytes.Equal(a.Body(round, 0), other.Body(round, 0)) {
				t.Fatalf("%s: bodies repeat", s.Name)
			}
			if !reflect.DeepEqual(a.Offline(round), b.Offline(round)) {
				t.Fatalf("%s: churn schedule differs under one seed", s.Name)
			}
			for c := 0; c < s.Servers; c++ {
				if !reflect.DeepEqual(a.Injections(round, c), b.Injections(round, c)) {
					t.Fatalf("%s: injection plan differs under one seed", s.Name)
				}
			}
		}
		reg := a.RegisteredMailboxes(33)
		if len(reg) != s.Registered || !reflect.DeepEqual(reg, b.RegisteredMailboxes(33)) {
			t.Errorf("%s: registered-only mailboxes", s.Name)
		}
	}
}

func TestChurnNeverTakesAUserTwiceRunning(t *testing.T) {
	s, _ := specByName("sim-build")
	in, err := newInputs(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if in.Offline(1) != nil {
		t.Error("round 1 has no banked covers to spend")
	}
	prev := map[int]bool{}
	for round := uint64(2); round < 30; round++ {
		off := in.Offline(round)
		if len(off) != s.Users/s.ChurnSlices {
			t.Fatalf("round %d: %d offline, want %d", round, len(off), s.Users/s.ChurnSlices)
		}
		cur := map[int]bool{}
		for _, u := range off {
			if prev[u] {
				t.Fatalf("user %d offline in rounds %d and %d", u, round-1, round)
			}
			cur[u] = true
		}
		prev = cur
	}
}

func TestInjectionPlan(t *testing.T) {
	s, _ := specByName("blame")
	in, _ := newInputs(s, 1)
	plan := in.Injections(4, 2)
	invalid, layers := 0, map[int]int{}
	for _, inj := range plan {
		if inj.InvalidProof {
			invalid++
		} else {
			layers[inj.Layer]++
		}
	}
	if len(plan) != 4 || invalid != 2 || layers[s.K/3] != 1 || layers[s.K-1] != 1 {
		t.Errorf("plan %+v", plan)
	}
	other, _ := specByName("mix-k6")
	if in2, _ := newInputs(other, 1); in2.Injections(4, 2) != nil {
		t.Error("only the blame workload injects")
	}
}

// TestLedgerSumsToTheRound lays a synthetic round out in spans and
// checks every nanosecond lands in exactly one row.
func TestLedgerSumsToTheRound(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	sp := func(name string, chain, pos, shard int, start, end int64, count int) span {
		return span{Layer: "x", Name: name, Chain: chain, Pos: pos, Shard: shard, Start: ms(start), End: ms(end), Count: count}
	}
	spans := []span{
		sp("round", -1, -1, -1, 1000, 2000, 0),
		sp("begin", -1, -1, 0, 1010, 1100, 50),
		sp("begin", -1, -1, 1, 1010, 1120, 50),
		// chain 0: verify until 1200, two hops, reveal; done at 1500.
		sp("mix", 0, 0, -1, 1200, 1300, 60), sp("mix", 0, 1, -1, 1310, 1400, 60),
		sp("reveal", 0, 0, -1, 1480, 1500, 1),
		// chain 1, the slowest: a failed mix, blame, re-mix, then on.
		sp("mix", 1, 0, -1, 1220, 1320, 40),
		sp("mix", 1, 1, -1, 1330, 1400, 40), sp("blame.reveal", 1, 0, -1, 1400, 1420, 1),
		sp("blame.reprove", 1, 0, -1, 1420, 1430, 39), sp("mix", 1, 1, -1, 1430, 1500, 39),
		sp("reveal", 1, 0, -1, 1600, 1620, 1),
		sp("announce", 0, 0, -1, 1700, 1720, 1), sp("announce", 1, 0, -1, 1700, 1730, 1),
		sp("finish", -1, -1, 0, 1800, 1900, 100), sp("finish", -1, -1, 1, 1800, 1950, 100),
		// Outside the round: ignored.
		sp("mix", 0, 0, -1, 2100, 2200, 60),
	}
	for i := range spans {
		spans[i].ID = i + 1
	}
	tr := traceRound(spans, roundStat{start: ms(1000), end: ms(2000)})
	near := func(name string, got, want float64) {
		t.Helper()
		if d := got - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("begin", tr.begin, 0.110)
	near("verify", tr.verify, 0.100)  // 1120 → 1220 on chain 1
	near("hop mix", tr.hopMix, 0.170) // 100 + 70
	near("blame", tr.blame, 0.100)    // 20 + 10 + the 70 ms re-mix
	near("reveal", tr.reveal, 0.020)
	near("orchestrator", tr.orch, 0.190) // stage 1120 → 1700, less the rows above
	near("announce", tr.announce, 0.030)
	near("finish", tr.finish, 0.150)
	near("self", tr.self, 0.130) // 10 before begin, 70 + 50 between spans
	sum := tr.begin + tr.verify + tr.hopMix + tr.blame + tr.reveal + tr.orch + tr.announce + tr.finish + tr.self
	near("sum of rows", sum, tr.round)
	if tr.mixed != 60+60+40+40 || len(tr.batchSizes) != 2 || len(tr.wallAll) != 2 {
		t.Errorf("counts: mixed=%d batchSizes=%v walls=%v", tr.mixed, tr.batchSizes, tr.wallAll)
	}
	for _, sp := range spans[1:16] {
		if sp.Parent != 1 {
			t.Errorf("span %d %s not parented to the round", sp.ID, sp.Name)
		}
	}
	if spans[16].Parent != 0 {
		t.Error("a span outside the round was parented to it")
	}
}

func TestCompareGatesEachMetricByItsBound(t *testing.T) {
	mk := func(round, fetch, failedShare float64) *report {
		m := map[string]metric{}
		for _, def := range endToEnd {
			m[def.Name] = metric{100, def.Unit}
		}
		m["round_s"] = metric{round, "s"}
		x := map[string]metric{"failed_share": {failedShare, "share"}}
		for _, def := range wireEndToEnd {
			x[def.Name] = metric{10, def.Unit}
		}
		x["fetch_p50_ms"] = metric{fetch, "ms"}
		return &report{Results: []*result{
			{Workload: "wire-durable", Correct: true, Metrics: m, Extra: x},
			{Workload: "wire-durable", Trace: true, Correct: true},
		}}
	}
	var buf bytes.Buffer
	bound, wireBound := endToEnd[0].Bound, wireEndToEnd[2].Bound
	if n := compareReports(mk(1, 10, 0), mk(1+0.9*bound, 10*(1+0.9*wireBound), 0), &buf); n != 0 {
		t.Errorf("worse by nine tenths of the bound: %d flagged\n%s", n, buf.String())
	}
	if n := compareReports(mk(1, 10, 0), mk(1+1.1*bound, 10, 0), &buf); n != 1 {
		t.Errorf("round_s beyond its bound: %d flagged, want 1", n)
	}
	if n := compareReports(mk(1, 10, 0), mk(0.5, 10*(1+1.1*wireBound), 0), &buf); n != 1 {
		t.Errorf("a workload-only metric beyond its bound: %d flagged, want 1", n)
	}
	if n := compareReports(mk(1, 10, 0), mk(1, 10, 0.001), &buf); n != 1 {
		t.Errorf("any increase of failed_share: %d flagged, want 1", n)
	}
	higher := metricDef{Better: "higher"}
	if w := worseBy(higher, 100, 80); w != 0.2 {
		t.Errorf("higher-is-better worseBy = %v, want 0.2", w)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// resultLines parses the result lines a run printed, one per workload run.
func resultLines(t *testing.T, out string) []result {
	t.Helper()
	var results []result
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "{") {
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("result line: %v\n%s", err, line)
			}
			results = append(results, res)
		}
	}
	return results
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// sizing through the real command line, and holds what it prints
// against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("out", "test-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	outFile := filepath.Join(dir, "smoke.json")
	start := time.Now()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--smoke", "--trace", "2", "--seed", "5", "--dir", dir, "--out", outFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	// The smoke sizing is meant to take under 15 s on the reference
	// box; the margin keeps a busy machine from failing the test.
	if took := time.Since(start); took > 30*time.Second {
		t.Errorf("smoke took %s", took)
	}
	results := resultLines(t, stdout.String())
	if len(results) != 2*len(specs) {
		t.Fatalf("%d result lines, want %d", len(results), 2*len(specs))
	}

	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) || len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d workloads and %d end-to-end metrics", len(bf.Workloads), len(bf.EndToEnd))
	}
	for i, s := range specs {
		if bf.Workloads[i].Name != s.Name || bf.Workloads[i].Why != s.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program's is %s", i, bf.Workloads[i], s.Name)
		}
	}
	for i, def := range endToEnd {
		if got := bf.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("BENCHMARK.json end-to-end metric %d is %+v, the program's is %+v", i, got, def)
		}
	}
	for i, res := range results {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("run %d: correct=%v attempted=%d failed=%d", i, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		if i%2 == 0 {
			for _, def := range bf.EndToEnd {
				want[def.Name] = def.Unit
			}
		} else {
			for _, def := range bf.PerLayer {
				want[def.Name] = def.Unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("run %d printed %d metrics, BENCHMARK.json lists %d", i, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("run %d: metric %s: got %+v, want unit %s", i, name, got, unit)
			}
		}
		if i%2 == 0 {
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("run %d: end-to-end metric %s = %v, must never be 0", i, name, m.Value)
				}
			}
		}
	}

	// The layers separate: only the wire workload moves bytes and
	// syncs a log, only the blame workload runs blame.
	for i, s := range specs {
		m := results[2*i+1].Metrics
		for _, name := range []string{"store.syncs", "rpc.hop_bytes_out", "rpc.shard_bytes", "rpc.submit_p50_ms"} {
			if (m[name].Value > 0) != s.Wire {
				t.Errorf("%s: %s = %v", s.Name, name, m[name].Value)
			}
		}
		wantBlame := 0.0
		if s.Inject {
			wantBlame = float64(2 * s.Servers)
		}
		if m["mix.blame_rounds"].Value != wantBlame {
			t.Errorf("%s: %v blame rounds, want %v", s.Name, m["mix.blame_rounds"].Value, wantBlame)
		}
	}

	// The file it wrote compares clean against itself and carries the
	// environment stamp.
	rep, err := readReport(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.NProc < 1 || rep.Env.GoVersion == "" || rep.Seed != 5 {
		t.Errorf("environment stamp %+v", rep.Env)
	}
	if n := compareReports(rep, rep, io.Discard); n != 0 {
		t.Errorf("a report is %d pairings beyond bound against itself", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-mix-k6.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
}
