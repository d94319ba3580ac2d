// Package obs is the repo's dependency-free observability core:
// sharded atomic counters, gauges, log-bucketed latency histograms
// with quantile extraction (histogram.go), span-style round-phase
// tracing (trace.go), and an admin HTTP server exposing /metrics,
// /healthz and /debug/pprof (admin.go).
//
// Design constraints, in priority order:
//
//  1. Hot-path recording is atomic-only: no locks, no allocation,
//     no map lookups per event. Instrumented packages create their
//     metrics once (package init or epoch setup) and hold pointers.
//  2. No dependencies beyond the standard library. The exposition
//     format is Prometheus text, so any scraper works, but nothing
//     here imports a client library.
//  3. Metric identity is the full name-with-labels string, e.g.
//     xrd_round_phase_seconds{phase="mix"} — the registry is a flat
//     map from that string to the metric, and label rendering costs
//     nothing at scrape time because the name already is the output.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything a Registry can expose. writeProm appends the
// metric's exposition lines; name is the registered name (with any
// labels already rendered).
type metric interface {
	writeProm(w *bufio.Writer, name string)
}

// ---------------------------------------------------------------- Counter

// counterShards is the number of padded cells a Counter stripes
// across. Sized to the machine once at init: enough parallelism to
// keep hot counters off a single contended cache line, small enough
// that Value() stays cheap.
var counterShards = counterShardCount()

func counterShardCount() uint32 {
	n := runtime.GOMAXPROCS(0)
	shards := uint32(1)
	for int(shards) < n && shards < 64 {
		shards <<= 1
	}
	return shards
}

// counterCell is one stripe, padded to its own cache line so
// concurrent writers on different stripes do not false-share.
type counterCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter. Add is atomic-only
// and allocation-free; concurrent writers stripe across cache-line
// padded cells picked by a per-thread random source, so a counter
// incremented from every chain goroutine at once does not serialize
// on one line.
type Counter struct {
	cells []counterCell
}

// NewCounter returns an unregistered counter (tests, ad-hoc use).
// Instrumentation should use Registry.Counter / GetOrCreateCounter.
func NewCounter() *Counter {
	return &Counter{cells: make([]counterCell, counterShards)}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	c.cells[rand.Uint32()&(counterShards-1)].v.Add(n)
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total. The sum is not a point-in-time
// atomic snapshot across stripes, which is fine for monitoring; for
// exact assertions, quiesce writers first (tests do).
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

func (c *Counter) writeProm(w *bufio.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}

// ---------------------------------------------------------------- Gauge

// Gauge is a settable instantaneous value (current mailbox depth,
// live WAL segments). Set/Add are single atomics.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns an unregistered gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) writeProm(w *bufio.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, g.Value())
}

// ---------------------------------------------------------------- Registry

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Lookup/creation takes a mutex and is meant for
// setup paths; recording on the returned metric never touches the
// registry again.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Default is the process-wide registry all package-level helpers use.
// One process is one role (coordinator, gateway shard, mix hop, sim),
// so a process-global registry matches a per-process admin endpoint.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it if
// needed. name carries its labels inline: `xrd_rpc_dials_total` or
// `xrd_hop_bytes_total{chain="0",pos="2",dir="out"}`. Panics if name
// is malformed or already registered as a different metric type.
func (r *Registry) Counter(name string) *Counter {
	m := r.getOrCreate(name, func() metric { return NewCounter() })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T, not Counter", name, m))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if
// needed.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.getOrCreate(name, func() metric { return NewGauge() })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T, not Gauge", name, m))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// if needed.
func (r *Registry) Histogram(name string) *Histogram {
	m := r.getOrCreate(name, func() metric { return NewHistogram() })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as %T, not Histogram", name, m))
	}
	return h
}

func (r *Registry) getOrCreate(name string, mk func() metric) metric {
	checkMetricName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format, sorted by name so scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	snapshot := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		snapshot[name] = m
	}
	r.mu.Unlock()

	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, name := range names {
		snapshot[name].writeProm(bw, name)
	}
	bw.Flush()
}

// Package-level shorthands against Default — what instrumented
// packages call from their var blocks.

// GetOrCreateCounter returns the named counter from the Default
// registry, creating it if needed.
func GetOrCreateCounter(name string) *Counter { return Default.Counter(name) }

// GetOrCreateGauge returns the named gauge from the Default registry,
// creating it if needed.
func GetOrCreateGauge(name string) *Gauge { return Default.Gauge(name) }

// GetOrCreateHistogram returns the named histogram from the Default
// registry, creating it if needed.
func GetOrCreateHistogram(name string) *Histogram { return Default.Histogram(name) }

// ---------------------------------------------------------------- names

// checkMetricName panics on names the exposition writer cannot
// render: empty, containing whitespace/newlines, or with unbalanced
// label braces. Metric names are compile-time constants plus label
// values we control, so malformed names are programmer errors.
func checkMetricName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if strings.ContainsAny(name, " \t\n") {
		panic(fmt.Sprintf("obs: metric name %q contains whitespace", name))
	}
	open := strings.IndexByte(name, '{')
	if open == 0 {
		panic(fmt.Sprintf("obs: metric name %q has no base name", name))
	}
	if open < 0 {
		if strings.ContainsAny(name, "}\"") {
			panic(fmt.Sprintf("obs: metric name %q has stray label syntax", name))
		}
		return
	}
	if !strings.HasSuffix(name, "}") || strings.Count(name, "{") != 1 {
		panic(fmt.Sprintf("obs: metric name %q has malformed labels", name))
	}
}

// splitMetricName splits a registered name into its base and the
// inner label list (without braces); labels is "" when the name is
// bare. Histogram exposition uses this to splice the le label in.
func splitMetricName(name string) (base, labels string) {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return name, ""
	}
	return name[:open], name[open+1 : len(name)-1]
}
