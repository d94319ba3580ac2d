// Command bench is the repository's benchmark: four seeded workloads
// that each stand a whole XRD deployment up in this process, time its
// rounds from outside, check every output, and report the end-to-end
// metrics a user or operator would see — or, traced, the per-layer
// metrics and the ledger that attributes a round to its layers.
//
//	go run -C bench . --workload mix-k6 --seed 1 --seconds 20 --trace 0
//	go run -C bench . --seed 1 --trace 2 --out out/a.json   # all four, untraced then traced
//	go run -C bench . --compare out/a.json out/b.json
//
// See README.md for the metrics, the workloads and how to read the
// ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/group"
)

// metricDef names one gated end-to-end metric: its unit, which way is
// better, and the share of the baseline's value by which it may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are reported by every workload, and are BENCHMARK.json's
// end_to_end list; wireEndToEnd exist only where a client talks to a
// gateway over the transport. failed_share is gated apart: any
// increase is a regression.
var (
	endToEnd = []metricDef{
		{Name: "round_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "round_cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "msgs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "client_build_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}
	wireEndToEnd = []metricDef{
		{Name: "submit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "submit_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "fetch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	}
)

// env is stamped into every output file: numbers without the machine
// and commit they came from cannot be compared.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func stampEnv() env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// report is the --out file: one invocation's results.
type report struct {
	Env     env       `json:"env"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: mix-k6, sim-build, wire-durable, blame or all")
	seed := fs.Int64("seed", 1, "seed for chain formation, pairing, bodies, churn and injections")
	seconds := fs.Float64("seconds", 20, "how long each workload's measuring loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and ledger, tracing on; 2: both")
	out := fs.String("out", "", "write the results, stamped with the environment, to this file")
	smoke := fs.Bool("smoke", false, "shrunken sizing, one timed round per workload: tests the harness, measures nothing")
	compare := fs.Bool("compare", false, "compare two --out files: bench --compare A.json B.json")
	dir := fs.String("dir", "out", "directory for data directories and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench --compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	selected := specs
	if *workload != "all" {
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []spec{s}
	}
	if *trace < 0 || *trace > 2 {
		fmt.Fprintf(stderr, "bench: --trace %d: want 0, 1 or 2\n", *trace)
		return 2
	}

	// The fixed-base tables are built lazily, once per process; a
	// process that stands a deployment up pays for them first.
	t := time.Now()
	group.Base(group.NewScalar(1))
	initS := time.Since(t).Seconds()

	rep := report{Env: stampEnv(), Seed: *seed, Seconds: *seconds}
	code := 0
	for _, s := range selected {
		for _, traced := range []bool{false, true} {
			if (traced && *trace == 0) || (!traced && *trace == 1) {
				continue
			}
			opt := options{Seed: *seed, Seconds: *seconds, Trace: traced, Smoke: *smoke, Dir: *dir, InitS: initS}
			res, err := runWorkload(s, opt)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", s.Name, err)
				return 1
			}
			rep.Results = append(rep.Results, res)
			printResult(stdout, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return code
}

// printResult prints every metric by name with its unit, the ledger,
// and last the one-line JSON object the driver reads.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v: correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	for _, note := range res.Notes {
		fmt.Fprintf(w, "  ! %s\n", note)
	}
	for _, set := range []map[string]metric{res.Metrics, res.Extra} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	printLedger(w, res)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
