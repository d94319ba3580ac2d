// Command xrd-experiments regenerates every table and figure of the
// paper's evaluation section (§8) as text tables: user costs
// (Figures 2-3), end-to-end latency (Figures 4-6), the blame
// protocol (Figure 7) and availability under churn (Figure 8), plus
// the headline comparison of §1.
//
// Large-scale latency points come from the calibrated cost models in
// internal/model; pass -measure to recalibrate the XRD constants from
// this machine's real crypto instead of the paper's fitted values.
// Figure 8 is a Monte-Carlo simulation over the real topology. A real
// end-to-end deployment at laptop scale is cmd/xrd-sim's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/churn"
	"repro/internal/model"
	"repro/internal/topology"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2-8, headline, or all")
	measure := flag.Bool("measure", false, "calibrate XRD constants from this machine's real crypto")
	iters := flag.Int("iters", 50, "measurement iterations for -measure")
	flag.Parse()

	cal := model.PaperCalibration()
	calName := "paper-calibrated"
	if *measure {
		fmt.Fprintln(os.Stderr, "measuring local crypto costs...")
		cal = model.Measure(*iters)
		calName = "measured-on-this-machine"
		fmt.Fprintf(os.Stderr, "per-message mix %.0f µs, wrap %.2f ms, blame layer %.0f µs (single core)\n",
			cal.PerMsgServerSeconds*1e6, cal.PerMsgWrapSeconds*1e3, cal.PerUserLayerBlameSeconds*1e6)
	}
	fmt.Printf("XRD reproduction experiments (calibration: %s)\n\n", calName)

	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("headline") {
		headline(cal)
	}
	if want("2") {
		fig2(cal)
	}
	if want("3") {
		fig3(cal)
	}
	if want("4") {
		fig4(cal)
	}
	if want("5") {
		fig5(cal)
	}
	if want("6") {
		fig6(cal)
	}
	if want("7") {
		fig7(cal)
	}
	if want("8") {
		fig8()
	}
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func headline(cal model.Calibration) {
	header("Headline (§1, §8.2): 2M users, 100 servers")
	x := cal.XRDLatency(2_000_000, 100)
	fmt.Printf("  %-22s %8.0f s   (paper: 251 s)\n", "XRD", x)
	fmt.Printf("  %-22s %8.0f s   (paper: >50 min; 12x XRD at 1M)\n", "Atom", cal.AtomLatency(2_000_000, 100))
	fmt.Printf("  %-22s %8.0f s   (paper: ~15 min; 3.7x XRD)\n", "Pung (XPIR)", cal.PungLatency(2_000_000, 100))
	fmt.Printf("  %-22s %8.0f s   (paper: ~2x faster than XRD)\n", "Stadium", cal.StadiumLatency(2_000_000, 100))
	fmt.Printf("  %-22s %8.0f s   (paper: ~25x faster than XRD)\n", "Karaoke (est.)", cal.KaraokeLatency(2_000_000, 100))
	fmt.Printf("  crossover vs Atom  at ~%d servers (paper: ~3000)\n",
		cal.CrossoverServers(2_000_000, cal.AtomLatency, 20000))
	fmt.Printf("  crossover vs Pung  at ~%d servers (paper: ~1000)\n\n",
		cal.CrossoverServers(2_000_000, cal.PungLatency, 20000))
}

func fig2(cal model.Calibration) {
	header("Figure 2: user bandwidth per round vs servers (bytes)")
	fmt.Printf("  %8s %12s %14s %14s %14s %10s\n", "servers", "XRD", "Pung-XPIR-1M", "Pung-XPIR-4M", "Pung-SealPIR", "Stadium")
	for _, n := range []int{100, 250, 500, 1000, 1500, 2000} {
		fmt.Printf("  %8d %12d %14d %14d %14d %10d\n",
			n, cal.XRDUserBandwidth(n),
			model.PungXPIRBandwidth(1_000_000), model.PungXPIRBandwidth(4_000_000),
			model.PungSealPIRBandwidth(), model.StadiumBandwidth())
	}
	kbps := float64(cal.XRDUserBandwidth(2000)) * 8 / 60 / 1000
	fmt.Printf("  => XRD at 2000 servers with 1-minute rounds: %.1f Kbps (paper: ~40)\n\n", kbps)
}

func fig3(cal model.Calibration) {
	header("Figure 3: user computation per round vs servers (single core, s)")
	fmt.Printf("  %8s %10s %12s %10s\n", "servers", "XRD", "Pung-1M", "Stadium")
	for _, n := range []int{100, 500, 1000, 2000} {
		fmt.Printf("  %8d %10.3f %12.3f %10.3f\n",
			n, cal.XRDUserCompute(n), model.PungUserCompute(1_000_000), model.StadiumUserCompute())
	}
	fmt.Println()
}

func fig4(cal model.Calibration) {
	header("Figure 4: end-to-end latency vs users, 100 servers (s)")
	fmt.Printf("  %8s %8s %8s %8s %8s\n", "users", "XRD", "Atom", "Pung", "Stadium")
	for _, m := range []int{1_000_000, 2_000_000, 4_000_000, 6_000_000, 8_000_000} {
		fmt.Printf("  %7dM %8.0f %8.0f %8.0f %8.0f\n", m/1_000_000,
			cal.XRDLatency(m, 100), cal.AtomLatency(m, 100),
			cal.PungLatency(m, 100), cal.StadiumLatency(m, 100))
	}
	fmt.Println("  (paper XRD points: 128, 251, 508, 793, 1009 s)")
	fmt.Println()
}

func fig5(cal model.Calibration) {
	header("Figure 5: end-to-end latency vs servers, 2M users (s)")
	fmt.Printf("  %8s %8s %8s %8s %8s\n", "servers", "XRD", "Atom", "Pung", "Stadium")
	for _, n := range []int{50, 100, 150, 200, 1000, 3000} {
		fmt.Printf("  %8d %8.0f %8.0f %8.0f %8.0f\n", n,
			cal.XRDLatency(2_000_000, n), cal.AtomLatency(2_000_000, n),
			cal.PungLatency(2_000_000, n), cal.StadiumLatency(2_000_000, n))
	}
	fmt.Println("  (XRD falls as √2/√N; Atom/Pung/Stadium as 1/N — crossovers appear at right)")
	fmt.Println()
}

func fig6(cal model.Calibration) {
	header("Figure 6: latency vs fraction of malicious servers f (2M users, 100 servers)")
	fmt.Printf("  %6s %6s %10s\n", "f", "k", "latency-s")
	for _, f := range []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45} {
		fmt.Printf("  %6.2f %6d %10.0f\n", f,
			topology.ChainLength(f, 100, 64), cal.XRDLatencyWithF(2_000_000, 100, f))
	}
	fmt.Println()
}

func fig7(cal model.Calibration) {
	header("Figure 7: blame protocol latency vs malicious users in a chain (f=0.2, 100 servers)")
	fmt.Printf("  %10s %10s\n", "malicious", "latency-s")
	for _, u := range []int{5_000, 20_000, 50_000, 80_000, 100_000} {
		fmt.Printf("  %10d %10.1f\n", u, cal.BlameLatency(u, 100))
	}
	fmt.Println("  (paper: ~13 s at 5k, ~150 s at 100k)")
	fmt.Println()
}

func fig8() {
	header("Figure 8: conversation failure rate vs server churn (Monte Carlo over real topology)")
	rates := []float64{0.005, 0.01, 0.02, 0.03, 0.04}
	fmt.Printf("  %8s", "churn")
	for _, n := range []int{100, 500, 1000} {
		fmt.Printf(" %12s", fmt.Sprintf("N=%d", n))
	}
	fmt.Printf(" %12s\n", "closed-form")
	for _, rate := range rates {
		fmt.Printf("  %7.1f%%", rate*100)
		k := 0
		for _, n := range []int{100, 500, 1000} {
			res, err := churn.Simulate(churn.Config{
				NumServers: n, F: 0.2, ChurnRate: rate,
				Pairs: 4000, Trials: 120, Seed: 42,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "churn simulation: %v\n", err)
				os.Exit(1)
			}
			k = res.ChainLength
			fmt.Printf(" %12.3f", res.FailureRate)
		}
		fmt.Printf(" %12.3f\n", model.ConversationFailureRate(rate, k))
	}
	fmt.Println("  (paper: ~27% at 1% churn, ~70% at 4%)")
	fmt.Println()
}
