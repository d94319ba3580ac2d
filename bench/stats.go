package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, or 0
// when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the mean of the two middle values for even-sized samples,
// so a run of an even number of rounds is not biased low.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// topPercentile returns the highest of p50, p90, p99, p99.9 and p99.99
// that still has at least ten samples beyond it in a sample of n (the
// choosing-metrics rule for which tail a sample supports), or 0 when n
// is too small for any.
func topPercentile(n int) float64 {
	best := 0.0
	for _, den := range []int{2, 10, 100, 1000, 10000} {
		// p = (den-1)/den leaves n/den samples beyond it.
		if n >= 10*den {
			best = float64(den-1) / float64(den)
		}
	}
	return best
}

// unionLength returns the total length covered by the intervals,
// counting overlaps once.
func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	lo, hi := s[0][0], s[0][1]
	for _, v := range s[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
			continue
		}
		if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}
