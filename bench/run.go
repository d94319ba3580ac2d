package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options sizes one run. Seconds bounds the measuring loop; the
// workload's sizes are never scaled.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Smoke runs the shrunken shape for one timed round: a test of the
	// harness, not a measurement.
	Smoke bool
	// Rounds, when set, times exactly that many rounds after one
	// set-up, whatever Seconds says.
	Rounds int
	// Dir is where data directories and trace files go.
	Dir string
	// InitS is the process's one-time initialisation, which every
	// set-up pays once before it can key anything.
	InitS float64
	// twin holds the in-process twin's boundary spans (see runTwin).
	twin map[string]metric
}

const (
	// warmupRounds are run and checked but not timed: the first round
	// pays TLS handshakes, pool dials and cold caches.
	warmupRounds = 1
	// minTimedRounds keeps a median meaningful on a machine too slow
	// to fit more into Seconds.
	minTimedRounds = 3
	// probeBuilds is how many BuildRound calls per cycle time the
	// client build on a workload whose own builds happen inside the
	// gateway, out of the harness's sight.
	probeBuilds = 64
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics are the contract's: every end-to-end metric untraced,
	// every per-layer metric traced.
	Metrics map[string]metric `json:"metrics"`
	// Extra are end-to-end numbers only some workloads have, and the
	// detail printed beside a metric (min, max, tail, sample count).
	Extra  map[string]metric `json:"extra,omitempty"`
	Notes  []string          `json:"notes,omitempty"`
	Ledger []ledgerRow       `json:"ledger,omitempty"`
}

// setupOnce times one full stand-up of the workload.
func setupOnce(s spec, in *inputs, rec *recorder, dir string) (*deployment, float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t := time.Now()
	d, err := setup(s, in, rec, dir)
	return d, time.Since(t).Seconds(), err
}

// runWorkload is one run: set the workload up (several times, for a
// steady set-up median), warm it, time rounds for opt.Seconds, check
// every output, tear it down and check what it left on disk.
func runWorkload(s spec, opt options) (*result, error) {
	setups := 5
	if s.Wire {
		setups = 3
	}
	if opt.Smoke {
		s = s.smoke()
		opt.Rounds = 1
	}
	if opt.Rounds > 0 {
		setups = 1
	}
	in, err := newInputs(s, opt.Seed)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if opt.Trace {
		rec = newRecorder()
	}
	dataDir := fmt.Sprintf("%s/data-%s-%d", opt.Dir, s.Name, os.Getpid())
	defer os.RemoveAll(dataDir)

	if s.Wire && opt.Trace {
		// The twin runs first, alone, and its time comes out of this
		// run's.
		t := time.Now()
		if opt.twin, err = runTwin(opt); err != nil {
			return nil, fmt.Errorf("in-process twin: %w", err)
		}
		opt.Seconds -= time.Since(t).Seconds()
	}

	// Set-up is timed on throwaway deployments first; the last one
	// stood up is the one measured.
	var setupS []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		var secs float64
		if d, secs, err = setupOnce(s, in, rec, dataDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, secs)
	}
	r := &runner{d: d, in: in, gens: generators()}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	// A traced run needs two rounds of each kind for a ratio.
	minRounds := minTimedRounds
	if opt.Trace {
		minRounds = 4
	}
	var loopStart time.Time
	for i := 0; ; i++ {
		timedRounds := i - warmupRounds
		if timedRounds == 0 {
			loopStart = time.Now()
		}
		if opt.Rounds > 0 && timedRounds >= opt.Rounds {
			break
		}
		if opt.Rounds == 0 && timedRounds >= minRounds && time.Since(loopStart).Seconds() >= opt.Seconds {
			break
		}
		// A traced run alternates untraced and traced rounds on the
		// same deployment; their ratio is the tracing overhead.
		traced := opt.Trace && timedRounds%2 == 0
		if err := r.cycle(traced); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lastRound := d.net.Round()
	closed = true
	if err := d.close(); err != nil {
		r.structural = true
		r.fail(1, "shutdown: %v", err)
	}
	if s.Wire {
		if err := d.replayed(lastRound); err != nil {
			r.structural = true
			r.fail(1, "durable replay: %v", err)
		}
	}

	res := &result{
		Workload: s.Name, Seed: opt.Seed, Trace: opt.Trace,
		Attempted: r.attempted, Failed: r.failed,
		Correct: r.failed == 0 && !r.structural,
		Metrics: make(map[string]metric), Extra: make(map[string]metric),
		Notes: r.notes,
	}
	if opt.Trace {
		r.layerMetrics(res, opt)
	} else {
		r.endToEnd(res, opt.InitS+median(setupS), float64(ms.HeapAlloc)/1e6)
	}
	return res, nil
}

// runTwin runs one traced round of the wire workload's shape with
// every seam in-process (mix-k6) and returns its boundary spans: the
// same calls minus the transport, under the same contention.
func runTwin(opt options) (map[string]metric, error) {
	local, _ := specByName("mix-k6")
	local.Name = "twin"
	res, err := runWorkload(local, options{Seed: opt.Seed, Trace: true, Smoke: opt.Smoke, Rounds: 1, Dir: opt.Dir})
	if err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("incorrect: %v", res.Notes)
	}
	return res.Metrics, nil
}

// endToEnd fills in the metrics a user or operator of the system
// would see, from the untraced rounds.
func (r *runner) endToEnd(res *result, setupS, heapMB float64) {
	rounds := r.timed(false)
	walls := column(rounds, func(st roundStat) float64 { return st.wall })
	m := res.Metrics
	m["round_s"] = metric{median(walls), "s"}
	m["round_cpu_s"] = metric{median(column(rounds, func(st roundStat) float64 { return st.cpu })), "s"}
	m["msgs_per_s"] = metric{median(column(rounds, func(st roundStat) float64 { return float64(st.delivered) / st.wall })), "1/s"}
	m["client_build_ms"] = metric{median(r.buildMs), "ms"}
	m["live_heap_mb"] = metric{heapMB, "MB"}
	m["setup_s"] = metric{setupS, "s"}

	x := res.Extra
	sort.Float64s(walls)
	x["round_s.min"] = metric{walls[0], "s"}
	x["round_s.max"] = metric{walls[len(walls)-1], "s"}
	x["round_s.n"] = metric{float64(len(walls)), "count"}
	tail(x, "client_build_ms", r.buildMs, "ms")
	x["failed_share"] = metric{float64(r.failed) / float64(r.attempted), "share"}
	if r.submitted > 0 {
		x["submit_p50_ms"] = metric{median(r.submitMs), "ms"}
		x["submit_per_s"] = metric{float64(r.submitted) / r.submitWall, "1/s"}
		x["fetch_p50_ms"] = metric{median(r.fetchMs), "ms"}
		tail(x, "submit_ms", r.submitMs, "ms")
		tail(x, "fetch_ms", r.fetchMs, "ms")
	}
}

// tail records the highest percentile a sample supports, and its
// size, beside a median.
func tail(x map[string]metric, name string, xs []float64, unit string) {
	x[name+".n"] = metric{float64(len(xs)), "count"}
	if p := topPercentile(len(xs)); p > 0.5 {
		x[fmt.Sprintf("%s.p%g", name, p*100)] = metric{quantile(xs, p), unit}
	}
}
