package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// metricsDump is a real /metrics body: an obs registry holding two
// archived histogram series, one histogram and one counter the scrape
// ignores, rendered by the code the admin endpoint runs.
func metricsDump(t testing.TB, observations int) (dump []byte, round, mix *obs.Histogram) {
	t.Helper()
	reg := obs.NewRegistry()
	round = reg.Histogram("xrd_round_seconds")
	mix = reg.Histogram(`xrd_round_phase_seconds{phase="mix"}`)
	for i := 1; i <= observations; i++ {
		round.ObserveDuration(time.Duration(i) * 10 * time.Millisecond)
		mix.ObserveDuration(time.Duration(i%7+1) * time.Millisecond)
	}
	reg.Histogram("xrd_rpc_server_handle_seconds").Observe(0.5)
	reg.Counter("xrd_rpc_server_requests_total").Add(3)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	return buf.Bytes(), round, mix
}

// TestParseHistogramsRealDump: what the loadgen reads back from a
// process's /metrics is what that process's histograms say in-process
// — same count, same sum, same bucket-resolution quantiles — and only
// the archived series are kept.
func TestParseHistogramsRealDump(t *testing.T) {
	dump, round, mix := metricsDump(t, 200)
	hists, err := parseHistograms(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*obs.Histogram{
		"xrd_round_seconds":                    round,
		`xrd_round_phase_seconds{phase="mix"}`: mix,
	}
	if len(hists) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(hists), len(want), hists)
	}
	for name, src := range want {
		h := hists[name]
		if h == nil {
			t.Fatalf("series %s missing", name)
		}
		if h.count != float64(src.Count()) || h.sum != src.Sum() {
			t.Errorf("%s: count %v sum %v, in-process %d and %v", name, h.count, h.sum, src.Count(), src.Sum())
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			if _, hi := src.Quantile(q); h.quantile(q) != hi {
				t.Errorf("%s: q%v = %v scraped, %v in-process", name, q, h.quantile(q), hi)
			}
		}
	}
}

func TestParseHistogramsCases(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		series   string
		count    float64
		p99      float64
	}{
		{
			// Observations above the last finite bucket: the quantile is
			// the highest finite bound, never the +Inf one — which
			// ParseFloat reads happily and encoding/json refuses.
			name: "mass in the +Inf bucket",
			in: `xrd_round_seconds_bucket{le="1"} 5
xrd_round_seconds_bucket{le="+Inf"} 10
xrd_round_seconds_sum 40
xrd_round_seconds_count 10
`,
			series: "xrd_round_seconds", count: 10, p99: 1,
		},
		{
			name: "labels besides le, comments, blank and malformed lines",
			in: `# TYPE xrd_wal_fsync_seconds histogram

xrd_wal_fsync_seconds_bucket{shard="0:32",le="0.002"} 3
xrd_wal_fsync_seconds_bucket{shard="0:32",le="0.004"} 4
xrd_wal_fsync_seconds_bucket{shard="0:32",le="nonsense"} 4
xrd_wal_fsync_seconds_bucket{shard="0:32",le="NaN"} 4
xrd_wal_fsync_seconds_sum{shard="0:32"} NaN
xrd_wal_fsync_seconds_sum{shard="0:32"} 0.009
xrd_wal_fsync_seconds_count{shard="0:32"} 4
xrd_wal_fsync_seconds_count{shard="0:32"}
no-space-or-value
`,
			series: `xrd_wal_fsync_seconds{shard="0:32"}`, count: 4, p99: 0.004,
		},
		{
			name:   "buckets out of order",
			in:     "xrd_shard_build_seconds_bucket{le=\"2\"} 9\nxrd_shard_build_seconds_bucket{le=\"0.5\"} 1\nxrd_shard_build_seconds_count 9\n",
			series: "xrd_shard_build_seconds", count: 9, p99: 2,
		},
	} {
		hists, err := parseHistograms(strings.NewReader(tc.in))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		h := hists[tc.series]
		if len(hists) != 1 || h == nil {
			t.Errorf("%s: parsed %v, want the one series %s", tc.name, hists, tc.series)
			continue
		}
		if h.count != tc.count || h.quantile(0.99) != tc.p99 {
			t.Errorf("%s: count %v p99 %v, want %v and %v", tc.name, h.count, h.quantile(0.99), tc.count, tc.p99)
		}
	}
}

// FuzzParseHistograms: /metrics is another process's output. Whatever
// it holds, the parse does not panic and every number it hands the
// report — counts, sums, every quantile — is one encoding/json will
// write.
func FuzzParseHistograms(f *testing.F) {
	// A short dump: the fuzzer's minimiser stalls for its full budget
	// on every interesting input derived from a long seed.
	dump, _, _ := metricsDump(f, 3)
	f.Add(dump)
	f.Add(dump[:len(dump)/2])
	f.Add([]byte("xrd_round_seconds_bucket{le=\"+Inf\"} 10\nxrd_round_seconds_count 10\n"))
	f.Add([]byte("xrd_round_seconds_bucket{le=\"-Inf\"} 1\nxrd_round_seconds_sum +Inf\nxrd_round_seconds_count NaN\n"))
	f.Add([]byte("xrd_round_seconds_bucket{le=\"1e999\"} 1e999\nxrd_round_seconds_count 1\n"))
	f.Add([]byte("xrd_round_seconds_bucket{,,le=\"\",le=\"1\"} 1 1\n{} 0\n_count 1\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		hists, err := parseHistograms(bytes.NewReader(body))
		if err != nil {
			return
		}
		for name, h := range hists {
			nums := []float64{h.count, h.sum}
			for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
				nums = append(nums, h.quantile(q))
			}
			if _, err := json.Marshal(nums); err != nil {
				t.Fatalf("series %q: %v in %v", name, err, nums)
			}
		}
	})
}
