package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction: positive means worse.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per workload and end-to-end metric, both
// values, how much worse B is and the bound, and returns how many
// pairings are beyond their bound. It is the check for two sets of
// runs of one commit agreeing, and for a parent against a change.
func compareReports(a, b *report, w io.Writer) int {
	untraced := func(r *report, workload string) *result {
		for _, res := range r.Results {
			if res.Workload == workload && !res.Trace {
				return res
			}
		}
		return nil
	}
	beyond := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, s := range specs {
		ra, rb := untraced(a, s.Name), untraced(b, s.Name)
		if ra == nil || rb == nil {
			continue
		}
		row := func(def metricDef, va, vb metric) {
			worse := worseBy(def, va.Value, vb.Value)
			flag := ""
			if worse > def.Bound {
				flag = "  BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+7.1f%% %6.0f%%%s\n",
				s.Name, def.Name, va.Value, vb.Value, 100*worse, 100*def.Bound, flag)
		}
		for _, def := range endToEnd {
			row(def, ra.Metrics[def.Name], rb.Metrics[def.Name])
		}
		for _, def := range wireEndToEnd {
			if va, ok := ra.Extra[def.Name]; ok {
				row(def, va, rb.Extra[def.Name])
			}
		}
		fa, fb := ra.Extra["failed_share"].Value, rb.Extra["failed_share"].Value
		flag := ""
		if fb > fa || !rb.Correct {
			flag = "  BEYOND BOUND"
			beyond++
		}
		fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %8s %7s%s\n", s.Name, "failed_share", fa, fb, "", "any", flag)
	}
	return beyond
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err == nil {
		var b *report
		if b, err = readReport(pathB); err == nil {
			if beyond := compareReports(a, b, stdout); beyond > 0 {
				fmt.Fprintf(stdout, "%d pairings beyond their bound\n", beyond)
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}
