package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runSim runs the command with args and returns what it printed. A
// flag the command does not define panics the test.
func runSim(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, cmdline, osArgs := os.Stdout, flag.CommandLine, os.Args
	defer func() { os.Stdout, flag.CommandLine, os.Args = stdout, cmdline, osArgs }()
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet("xrd-sim", flag.PanicOnError)
	os.Args = append([]string{"xrd-sim"}, args...)
	main()
	text, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// roundLine matches a round's report, capturing everything after its
// wall time.
var roundLine = regexp.MustCompile(`(?m)^round (\d+): [0-9.]+s (delivered=(\d+) received=(\d+) undecryptable=(\d+) .*)$`)

// rounds returns each round's report without its wall time, checking
// that every delivered message was received and decrypted.
func rounds(t *testing.T, out string) []string {
	t.Helper()
	var reports []string
	for _, m := range roundLine.FindAllStringSubmatch(out, -1) {
		if m[3] != m[4] || m[5] != "0" {
			t.Errorf("round %s: %s", m[1], m[2])
		}
		reports = append(reports, m[2])
	}
	return reports
}

// TestSimWorkersAgree: the build pool's size changes no round's
// outcome. One worker and four deliver and cover the same users for
// the same churn seed, and every round delivers only what is received.
func TestSimWorkersAgree(t *testing.T) {
	args := []string{"-users", "40", "-servers", "8", "-k", "2", "-rounds", "3", "-user-churn", "0.2", "-seed", "3"}
	serial := rounds(t, runSim(t, append(args, "-workers", "1")...))
	pooled := rounds(t, runSim(t, append(args, "-workers", "4")...))
	if len(serial) != 3 || strings.Join(serial, "\n") != strings.Join(pooled, "\n") {
		t.Fatalf("-workers 1 and -workers 4 disagree:\n%s\n--\n%s", strings.Join(serial, "\n"), strings.Join(pooled, "\n"))
	}
	if !regexp.MustCompile(`covered=[1-9]`).MatchString(strings.Join(serial, "\n")) {
		t.Fatalf("churn covered nobody:\n%s", strings.Join(serial, "\n"))
	}
}

// TestSimAttackReforms: -attack tampers at chain 0's second position;
// the round convicts that server and halts the chain, the next round
// evicts it and re-forms, and every round after delivers in full. The
// admin endpoint starts on request.
func TestSimAttackReforms(t *testing.T) {
	out := runSim(t, "-users", "40", "-servers", "8", "-k", "3", "-rounds", "3", "-attack", "-admin-addr", "127.0.0.1:0")
	reports := rounds(t, out)
	if len(reports) != 3 {
		t.Fatalf("want 3 rounds:\n%s", out)
	}
	if !strings.Contains(reports[0], "halted=[0] blamed-servers=[[0 1]]") {
		t.Fatalf("round 1 did not convict the tampering server:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^round 2: re-formed chains at epoch 1 after evicting servers \[\d+\]$`).MatchString(out) {
		t.Fatalf("round 2 did not re-form:\n%s", out)
	}
	for _, r := range reports[1:] {
		if !strings.HasPrefix(r, "delivered=160 ") || !strings.Contains(r, "halted=[]") {
			t.Fatalf("a round after the re-formation is short:\n%s", out)
		}
	}
	if !strings.Contains(out, "xrd-sim: admin endpoint on http://127.0.0.1:") {
		t.Fatalf("-admin-addr started no endpoint:\n%s", out)
	}
}
