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

// TestFigureSelection: -fig prints the one figure it names, under the
// paper's calibration.
func TestFigureSelection(t *testing.T) {
	out := runExperiments(t, "-fig", "6")
	if !strings.Contains(out, "calibration: paper-calibrated") || !strings.Contains(out, "Figure 6:") {
		t.Fatalf("-fig 6 printed no Figure 6:\n%s", out)
	}
	if strings.Contains(out, "Figure 2:") || strings.Contains(out, "Headline") {
		t.Fatalf("-fig 6 printed other figures:\n%s", out)
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
