// Command benchjson converts `go test -bench` output on stdin into
// machine-readable JSON, so CI can archive every run's numbers as an
// artifact (BENCH_ci.json) and the performance trajectory accumulates
// instead of scrolling away in build logs.
//
//	go test -run '^$' -bench . -benchtime=1x ./... | benchjson -o BENCH_ci.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	report, err := Parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// Report is the archived shape of one benchmark run.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one result line: the benchmark name (with its -N
// GOMAXPROCS suffix intact), the iteration count, and every reported
// metric keyed by unit (ns/op, B/op, allocs/op, custom units like
// users/s).
type Benchmark struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}
