package obs

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-shape log-linear latency histogram. Values
// are durations in seconds; internally each observation is bucketed
// by its nanosecond count:
//
//   - 0–7 ns map to eight 1 ns-wide buckets (index = value), then
//   - every power-of-two octave [2^k, 2^(k+1)) splits into 8 linear
//     sub-buckets, so any bucket's width is at most 12.5% of its
//     lower bound.
//
// That gives 496 buckets covering 1 ns to ~292 years with bounded
// relative error, no configuration, and no per-histogram sizing
// decisions at instrumentation sites. The buckets are held as 62
// octaves of eight, each allocated by the first observation that lands
// in it: a series records a few octaves of latency, so an untouched
// histogram costs ≈ 0.5 KB and each octave it touches 64 B, not 4 KB
// up front. Observe is an atomic pointer load and two atomic adds — no
// locks, no float math beyond one multiply, and an allocation only on
// an octave's first hit — so it is safe on the round hot path.
type Histogram struct {
	octaves [numHistOctaves]atomic.Pointer[histOctave]
	sumNs   atomic.Int64
}

// histOctave is one octave's sub-bucket counts.
type histOctave [histSubs]atomic.Uint64

const (
	// histSubBits is log2 of the linear sub-buckets per octave.
	histSubBits = 3
	histSubs    = 1 << histSubBits // 8
	// numHistBuckets: 8 unit buckets for values < 8 ns, then 8 subs
	// for each octave with exponent 4..64.
	numHistBuckets = histSubs + (64-histSubBits)*histSubs
	numHistOctaves = numHistBuckets / histSubs
)

// NewHistogram returns an unregistered histogram. Instrumentation
// should use Registry.Histogram / GetOrCreateHistogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histBucketIndex maps a nanosecond value to its bucket.
func histBucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < histSubs {
		return int(v)
	}
	exp := bits.Len64(v) // >= histSubBits+1
	// Top histSubBits+1 bits select the octave's sub-bucket.
	sub := (v >> uint(exp-histSubBits-1)) & (histSubs - 1)
	return histSubs + (exp-histSubBits-1)*histSubs + int(sub)
}

// histBucketBounds returns a bucket's [lo, hi) bounds in nanoseconds.
func histBucketBounds(idx int) (lo, hi uint64) {
	if idx < histSubs {
		return uint64(idx), uint64(idx) + 1
	}
	oct := uint((idx - histSubs) / histSubs)
	sub := uint64((idx - histSubs) % histSubs)
	lo = (histSubs + sub) << oct
	hi = lo + (1 << oct)
	return lo, hi
}

// Observe records a duration given in seconds.
func (h *Histogram) Observe(seconds float64) { h.observe(int64(seconds * 1e9)) }

// ObserveDuration records d.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(int64(d)) }

func (h *Histogram) observe(ns int64) {
	i := histBucketIndex(ns)
	oct := h.octaves[i/histSubs].Load()
	if oct == nil {
		// Of two first observers racing here, one CompareAndSwap wins
		// and both count into the winner's octave.
		h.octaves[i/histSubs].CompareAndSwap(nil, new(histOctave))
		oct = h.octaves[i/histSubs].Load()
	}
	oct[i%histSubs].Add(1)
	h.sumNs.Add(ns)
}

// bucket returns bucket i's count; an octave never observed holds zeros.
func (h *Histogram) bucket(i int) uint64 {
	if oct := h.octaves[i/histSubs].Load(); oct != nil {
		return oct[i%histSubs].Load()
	}
	return 0
}

// Count returns the number of observations (summed from the buckets,
// so it is always consistent with the bucket counts themselves).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := 0; i < numHistBuckets; i++ {
		n += h.bucket(i)
	}
	return n
}

// Sum returns the sum of all observed durations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Quantile returns the bounds, in seconds, of the bucket containing
// the q-quantile observation (0 < q <= 1). Any true q-quantile of
// the observed values lies within [lo, hi]; the bucket shape bounds
// hi/lo at 1.125 for values >= 8 ns. Returns (0, 0) when empty.
func (h *Histogram) Quantile(q float64) (lo, hi float64) {
	var snap [numHistBuckets]uint64
	var total uint64
	for i := range snap {
		snap[i] = h.bucket(i)
		total += snap[i]
	}
	if total == 0 {
		return 0, 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range snap {
		cum += snap[i]
		if cum >= rank {
			l, u := histBucketBounds(i)
			return float64(l) / 1e9, float64(u) / 1e9
		}
	}
	l, u := histBucketBounds(numHistBuckets - 1)
	return float64(l) / 1e9, float64(u) / 1e9
}

// writeProm renders Prometheus histogram exposition: cumulative
// _bucket lines for every non-empty bucket plus +Inf, then _sum and
// _count. Skipping empty buckets keeps a 496-bucket histogram's
// scrape output proportional to its occupancy; cumulative counts
// stay correct because le values are emitted in ascending order.
func (h *Histogram) writeProm(w *bufio.Writer, name string) {
	base, labels := splitMetricName(name)
	bucketName := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("%s_bucket{le=%q}", base, le)
		}
		return fmt.Sprintf("%s_bucket{%s,le=%q}", base, labels, le)
	}
	plain := func(suffix string) string {
		if labels == "" {
			return base + suffix
		}
		return base + suffix + "{" + labels + "}"
	}
	var cum uint64
	for i := 0; i < numHistBuckets; i++ {
		n := h.bucket(i)
		if n == 0 {
			continue
		}
		cum += n
		_, hiNs := histBucketBounds(i)
		fmt.Fprintf(w, "%s %d\n", bucketName(fmt.Sprintf("%g", float64(hiNs)/1e9)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", bucketName("+Inf"), cum)
	fmt.Fprintf(w, "%s %g\n", plain("_sum"), h.Sum())
	fmt.Fprintf(w, "%s %d\n", plain("_count"), cum)
}
