package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The -admin scrape step: after the round, pull each process's
// /healthz (for its role) and /metrics, reduce the round-phase and
// storage histograms to quantiles, and merge them into the -out
// report. The loadgen's own numbers measure the client side of the
// deployment; these are the server side of the same round, so one
// report file carries both.

// scrapedHistograms names the server-side latency histograms worth
// archiving next to the loadgen's client-side numbers. Everything
// else on /metrics stays scrape-only.
var scrapedHistograms = map[string]bool{
	"xrd_round_seconds":        true,
	"xrd_round_phase_seconds":  true,
	"xrd_shard_build_seconds":  true,
	"xrd_shard_finish_seconds": true,
	"xrd_wal_fsync_seconds":    true,
	"xrd_hop_call_seconds":     true,
}

func scrapeAdmin(report *benchReport, adminList string) {
	httpc := &http.Client{Timeout: 10 * time.Second}
	for _, addr := range strings.Split(adminList, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		role, err := fetchRole(httpc, addr)
		if err != nil {
			log.Printf("xrd-loadgen: scraping %s: %v", addr, err)
			continue
		}
		hists, err := fetchHistograms(httpc, addr)
		if err != nil {
			log.Printf("xrd-loadgen: scraping %s: %v", addr, err)
			continue
		}
		names := make([]string, 0, len(hists))
		for name := range hists {
			names = append(names, name)
		}
		sort.Strings(names)
		merged := 0
		for _, name := range names {
			h := hists[name]
			if h.count == 0 {
				continue
			}
			report.add(fmt.Sprintf("LoadgenServer/%s@%s/%s", role, addr, name), int64(h.count), map[string]float64{
				"ns/op":   h.sum / h.count * 1e9,
				"p50-ms":  h.quantile(0.50) * 1e3,
				"p90-ms":  h.quantile(0.90) * 1e3,
				"p99-ms":  h.quantile(0.99) * 1e3,
				"count":   h.count,
				"total-s": h.sum,
			})
			merged++
		}
		fmt.Printf("xrd-loadgen: scraped %s (%s): merged %d server-side histograms\n", addr, role, merged)
	}
}

func fetchRole(httpc *http.Client, addr string) (string, error) {
	resp, err := httpc.Get("http://" + addr + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var h struct {
		Role string `json:"role"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return "", fmt.Errorf("decoding /healthz: %w", err)
	}
	if h.Role == "" {
		h.Role = "unknown"
	}
	return h.Role, nil
}

// scrapedHist is one histogram series reassembled from Prometheus
// text exposition: cumulative bucket counts keyed by upper bound,
// plus the _sum/_count pair.
type scrapedHist struct {
	sum    float64
	count  float64
	les    []float64 // finite upper bounds, sorted at quantile time
	cums   map[float64]float64
	sorted bool
}

// quantile returns the upper bound (seconds) of the first bucket
// whose cumulative count reaches q of the total — the same
// bucket-resolution answer obs.Histogram.Quantile gives in-process.
func (h *scrapedHist) quantile(q float64) float64 {
	if h.count == 0 || len(h.les) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.les)
		h.sorted = true
	}
	target := q * h.count
	for _, le := range h.les {
		if h.cums[le] >= target {
			return le
		}
	}
	return h.les[len(h.les)-1]
}

// fetchHistograms scrapes /metrics for the histograms worth archiving.
func fetchHistograms(httpc *http.Client, addr string) (map[string]*scrapedHist, error) {
	resp, err := httpc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseHistograms(resp.Body)
}

// parseHistograms reads Prometheus text exposition and returns the
// scrapedHistograms series keyed by series name (base name plus any
// non-le labels). Label values in this repo's metric names never
// contain commas or escaped quotes, so the flat split below is safe
// for what it parses; anything else on a line it cannot place is
// skipped, never an error.
func parseHistograms(r io.Reader) (map[string]*scrapedHist, error) {
	hists := make(map[string]*scrapedHist)
	get := func(series string) *scrapedHist {
		h := hists[series]
		if h == nil {
			h = &scrapedHist{cums: make(map[float64]float64)}
			hists[series] = h
		}
		return h
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil || !finite(val) {
			continue
		}
		name, labels := series, ""
		if br := strings.IndexByte(series, '{'); br >= 0 {
			name, labels = series[:br], strings.Trim(series[br:], "{}")
		}
		base, kind, ok := splitHistSuffix(name)
		if !ok || !scrapedHistograms[base] {
			continue
		}
		var le string
		if kind == "bucket" {
			rest := make([]string, 0, 2)
			for _, l := range strings.Split(labels, ",") {
				if v, found := strings.CutPrefix(l, `le="`); found {
					le = strings.TrimSuffix(v, `"`)
				} else if l != "" {
					rest = append(rest, l)
				}
			}
			labels = strings.Join(rest, ",")
		}
		key := base
		if labels != "" {
			key = base + "{" + labels + "}"
		}
		h := get(key)
		switch kind {
		case "sum":
			h.sum = val
		case "count":
			h.count = val
		case "bucket":
			// The +Inf bucket is skipped: the _count line already
			// carries its total, and a quantile is one of these bounds.
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || !finite(bound) {
				continue
			}
			if _, seen := h.cums[bound]; !seen {
				h.les = append(h.les, bound)
			}
			h.cums[bound] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return hists, nil
}

// finite reports whether a parsed number can go into the report:
// ParseFloat accepts "+Inf" and "NaN", and encoding/json refuses both —
// one would take the whole report file with it.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// splitHistSuffix strips the Prometheus histogram suffix from a
// sample name: "xrd_round_seconds_bucket" -> ("xrd_round_seconds",
// "bucket", true).
func splitHistSuffix(name string) (base, kind string, ok bool) {
	for _, k := range []string{"bucket", "sum", "count"} {
		if b, found := strings.CutSuffix(name, "_"+k); found {
			return b, k, true
		}
	}
	return "", "", false
}
