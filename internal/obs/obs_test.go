package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestCounterConcurrent hammers one counter from many goroutines and
// asserts nothing is lost — the sharded-cell design must still be an
// exact counter. Run under -race this also proves Add is lock-free
// clean.
func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	const goroutines, perG = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge()
	g.Set(10)
	g.Add(-3)
	g.Add(5)
	if got := g.Value(); got != 12 {
		t.Fatalf("gauge = %d, want 12", got)
	}
}

// TestHistogramConcurrent checks no observation is lost under
// concurrent Observe and that count/sum stay consistent. Every
// goroutine starts on a fresh histogram at once and lands in the same
// untouched octave, so they race to allocate it.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const goroutines, perG = 8, 4000
	var wg sync.WaitGroup
	var sumNs atomic.Int64
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 42))
			<-start
			for i := 0; i < perG; i++ {
				d := time.Duration(1<<20 + rng.Int64N(1<<20)) // one octave: [2^20, 2^21) ns
				h.ObserveDuration(d)
				sumNs.Add(int64(d))
			}
		}(uint64(g))
	}
	close(start)
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	if got := h.sumNs.Load(); got != sumNs.Load() {
		t.Fatalf("sum = %d ns, want %d", got, sumNs.Load())
	}
	touched := 0
	for i := range h.octaves {
		if h.octaves[i].Load() != nil {
			touched++
		}
	}
	if touched != 1 {
		t.Fatalf("%d octaves allocated for values in one octave", touched)
	}
}

// TestHistogramBytes pins what a series costs the heap. A histogram is
// one allocation of at most 512 B (4 KB while all 496 buckets were held
// up front), and an observation allocates one 64-byte octave the first
// time it lands in it and nothing after. Sizes and allocation counts
// are exact where a heap reading moves by a few bytes an object.
func TestHistogramBytes(t *testing.T) {
	if n := unsafe.Sizeof(Histogram{}); n > 512 {
		t.Fatalf("a histogram is %d B, want ≤ 512", n)
	}
	if n := unsafe.Sizeof(histOctave{}); n != 64 {
		t.Fatalf("an octave is %d B, want 64", n)
	}
	var h *Histogram
	if got := testing.AllocsPerRun(100, func() { h = NewHistogram(); h.Observe(0.0123) }); got != 2 {
		t.Fatalf("a fresh histogram and its first observation make %v allocations, want 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { h.Observe(0.0124) }); got != 0 {
		t.Fatalf("an observation into a touched octave makes %v allocations, want 0", got)
	}
}

// TestHistogramQuantileBounds feeds a known distribution (1..N
// microseconds, uniform, shuffled) and asserts every queried
// quantile's true value lies inside the returned bucket bounds, and
// that the bounds are tight (hi/lo <= 1.125, the octave/8 design
// width).
func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	const n = 10000
	vals := make([]time.Duration, n)
	for i := range vals {
		vals[i] = time.Duration(i+1) * time.Microsecond
	}
	rng := rand.New(rand.NewPCG(1, 2))
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		h.ObserveDuration(v)
	}

	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1.0} {
		lo, hi := h.Quantile(q)
		// True q-quantile of {1..n} µs: value with rank ceil(q*n).
		rank := int(q * n)
		if float64(rank) < q*n {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		truth := (time.Duration(rank) * time.Microsecond).Seconds()
		if truth < lo || truth > hi {
			t.Errorf("q=%g: true %g outside bucket [%g, %g]", q, truth, lo, hi)
		}
		if lo > 0 && hi/lo > 1.1251 {
			t.Errorf("q=%g: bucket [%g, %g] wider than 12.5%%", q, lo, hi)
		}
	}

	if lo, hi := NewHistogram().Quantile(0.5); lo != 0 || hi != 0 {
		t.Errorf("empty histogram quantile = [%g, %g], want [0, 0]", lo, hi)
	}
}

// TestHistogramBucketsContiguous asserts the log-linear bucket
// layout tiles the value space with no gaps or overlaps.
func TestHistogramBucketsContiguous(t *testing.T) {
	var prevHi uint64
	for i := 0; i < numHistBuckets; i++ {
		lo, hi := histBucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo = %d, want %d (contiguous)", i, lo, prevHi)
		}
		if hi <= lo && i != numHistBuckets-1 {
			t.Fatalf("bucket %d: empty range [%d, %d)", i, lo, hi)
		}
		prevHi = hi
	}
	// Spot-check the index function round-trips into its own bounds.
	for _, ns := range []int64{0, 1, 7, 8, 9, 255, 256, 1000, 1e6, 1e9, 1 << 40} {
		idx := histBucketIndex(ns)
		lo, hi := histBucketBounds(idx)
		if uint64(ns) < lo || uint64(ns) >= hi {
			t.Errorf("value %d landed in bucket %d [%d, %d)", ns, idx, lo, hi)
		}
	}
}

// expositionSample is the exposition of a seeded spread of values from
// 0 to 2^40 ns, a few hand-picked edges (negative, the unit buckets, an
// hour) and an untouched histogram, with and without labels.
func expositionSample() []byte {
	h := NewHistogram()
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 2000; i++ {
		h.ObserveDuration(time.Duration(rng.Int64N(int64(1) << rng.IntN(41))))
	}
	for _, s := range []float64{-1e-9, 0, 3e-9, 7e-9, 8e-9, 1e-6, 0.0025, 2.5, 3600} {
		h.Observe(s)
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	h.writeProm(w, `xrd_hop_call_seconds{chain="0",pos="1",method="hop.mix"}`)
	NewHistogram().writeProm(w, "xrd_idle_seconds")
	w.Flush()
	return buf.Bytes()
}

// TestHistogramExposition pins writeProm's text to bytes:
// testdata/exposition.golden was written when every histogram held all
// 496 buckets up front, so storing them by octave changed no line.
func TestHistogramExposition(t *testing.T) {
	golden, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := expositionSample(); !bytes.Equal(got, golden) {
		t.Fatalf("exposition differs from the golden:\n%s", got)
	}
}

// TestWritePrometheus checks the exposition format: counters and
// gauges one line each, histograms as monotonically non-decreasing
// cumulative buckets ending in +Inf plus _sum/_count, labels
// preserved and le spliced in.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`test_total{kind="a"}`).Add(7)
	reg.Gauge("test_depth").Set(3)
	h := reg.Histogram(`test_seconds{phase="mix"}`)
	h.Observe(0.001)
	h.Observe(0.002)
	h.Observe(2.5)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"test_total{kind=\"a\"} 7\n",
		"test_depth 3\n",
		"test_seconds_count{phase=\"mix\"} 3\n",
		"test_seconds_bucket{phase=\"mix\",le=\"+Inf\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Cumulative bucket counts must be non-decreasing and end at the
	// total count.
	var last uint64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_seconds_bucket") {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &n); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = n
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}

	// Same-name lookups return the same metric; wrong-type lookups
	// panic.
	if reg.Gauge("test_depth") != reg.Gauge("test_depth") {
		t.Fatal("Gauge not idempotent")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on type-mismatched registration")
			}
		}()
		reg.Counter("test_depth")
	}()
}

// TestTracer builds a two-phase trace with concurrent children,
// finishes it, and checks both the snapshot tree and the derived
// phase histograms.
func TestTracer(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 2)

	for round := uint64(1); round <= 3; round++ {
		rt := tr.StartRound(round, 7)
		ph := rt.StartPhase("build")
		var wg sync.WaitGroup
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c := ph.StartChild(fmt.Sprintf("shard %d", s))
				c.End()
			}(s)
		}
		wg.Wait()
		ph.End()
		rt.AddPhase("verify", time.Now().Add(-time.Millisecond), time.Millisecond)
		rt.Finish()
	}

	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring kept %d traces, want 2", len(recent))
	}
	if recent[0].Round != 3 || recent[1].Round != 2 {
		t.Fatalf("recent rounds = %d, %d; want 3, 2", recent[0].Round, recent[1].Round)
	}
	if len(recent[0].Phases) != 2 || len(recent[0].Phases[0].Children) != 3 {
		t.Fatalf("trace shape wrong: %+v", recent[0])
	}
	if recent[0].Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", recent[0].Epoch)
	}

	if got := reg.Histogram(`xrd_round_phase_seconds{phase="build"}`).Count(); got != 3 {
		t.Fatalf("build phase histogram count = %d, want 3", got)
	}
	if got := reg.Histogram("xrd_round_seconds").Count(); got != 3 {
		t.Fatalf("round histogram count = %d, want 3", got)
	}

	// Nil tracer and nil trace chains are inert.
	var nilT *Tracer
	rt := nilT.StartRound(1, 1)
	rt.StartPhase("x").StartChild("y").End()
	rt.AddPhase("z", time.Now(), 0)
	rt.Finish()
	if nilT.Recent() != nil {
		t.Fatal("nil tracer Recent should be nil")
	}
}

// TestAdminServer spins the admin endpoint on a loopback port and
// exercises /healthz, /metrics, /debug/rounds and the pprof index.
func TestAdminServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("admin_test_total").Add(5)
	tr := NewTracer(reg, 4)
	rt := tr.StartRound(9, 2)
	rt.StartPhase("mix").End()
	rt.Finish()

	srv, err := ServeAdmin("127.0.0.1:0", AdminConfig{
		Registry: reg,
		Tracer:   tr,
		Health: func() Health {
			return Health{Role: "gateway", Epoch: 2, Round: 9, ShardLo: 0, ShardHi: 32}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	var h Health
	if err := json.Unmarshal([]byte(get("/healthz")), &h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if h.Role != "gateway" || h.Round != 9 || h.ShardHi != 32 {
		t.Fatalf("healthz = %+v", h)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "admin_test_total 5") {
		t.Fatalf("metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, `xrd_round_phase_seconds_bucket{phase="mix"`) {
		t.Fatalf("metrics missing phase histogram:\n%s", metrics)
	}

	var traces []TraceSnapshot
	if err := json.Unmarshal([]byte(get("/debug/rounds")), &traces); err != nil {
		t.Fatalf("debug/rounds JSON: %v", err)
	}
	if len(traces) != 1 || traces[0].Round != 9 {
		t.Fatalf("debug/rounds = %+v", traces)
	}

	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("pprof index not served")
	}
}

// BenchmarkCounterAdd and BenchmarkHistogramObserve document the
// per-event cost the acceptance criteria bound (atomic-only, no
// allocation).
func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.ObserveDuration(12345 * time.Nanosecond)
		}
	})
}
