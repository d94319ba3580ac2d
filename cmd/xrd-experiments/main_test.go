package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// runExperiments runs the command with args and returns what it
// printed to stdout. A flag the command does not define panics the
// test.
func runExperiments(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, cmdline, osArgs := os.Stdout, flag.CommandLine, os.Args
	defer func() { os.Stdout, flag.CommandLine, os.Args = stdout, cmdline, osArgs }()
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet("xrd-experiments", flag.PanicOnError)
	os.Args = append([]string{"xrd-experiments"}, args...)
	main()
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestFigureSelection: every -fig value prints its own figure's
// header under the paper's calibration and no other figure's; all
// prints every header. These are the only runs of the figure code
// under go test.
func TestFigureSelection(t *testing.T) {
	headers := map[string]string{
		"headline": "Headline (§1, §8.2):",
		"2":        "Figure 2:",
		"3":        "Figure 3:",
		"4":        "Figure 4:",
		"5":        "Figure 5:",
		"6":        "Figure 6:",
		"7":        "Figure 7:",
		"8":        "Figure 8:",
	}
	for _, fig := range []string{"2", "3", "4", "5", "6", "7", "8", "headline", "all"} {
		t.Run(fig, func(t *testing.T) {
			out := runExperiments(t, "-fig", fig)
			if !strings.Contains(out, "calibration: paper-calibrated") {
				t.Fatalf("-fig %s printed no calibration line:\n%s", fig, out)
			}
			for name, header := range headers {
				want := fig == "all" || fig == name
				if got := strings.Contains(out, header); got != want {
					t.Errorf("-fig %s: %q printed = %v, want %v", fig, header, got, want)
				}
			}
		})
	}
}

// TestMeasuredCalibration: -measure recalibrates from this machine's
// crypto, -iters 1 keeps that to one timed operation per constant.
func TestMeasuredCalibration(t *testing.T) {
	out := runExperiments(t, "-measure", "-iters", "1", "-fig", "7")
	if !strings.Contains(out, "calibration: measured-on-this-machine") || !strings.Contains(out, "Figure 7:") {
		t.Fatalf("-measure -fig 7 printed no measured Figure 7:\n%s", out)
	}
}
