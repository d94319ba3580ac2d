package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/onion"
)

// The round ledger attributes one traced round's wall clock to its
// layers, along the steps that block the result:
//
//	round = begin + slowest chain (verify + Σ hop mix + blame + reveal
//	        + orchestrator) + announce + finish + coordinator self
//
// The rows are read off the boundary spans; none is estimated, so they
// sum to the traced round exactly, and whatever no span covers is the
// coordinator's self time, reported as the residual.

// ledgerRow is one line of the ledger: measured seconds, their share of
// the round, and what the layer probes predict for the same work
// (count × unit cost ÷ parallelism; 0 where no probe applies).
type ledgerRow struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Share     float64 `json:"share"`
	Predicted float64 `json:"predicted"`
	How       string  `json:"how,omitempty"`
}

// roundTrace is what the spans say about one traced round. Times are
// seconds.
type roundTrace struct {
	round                                  float64
	begin, announce, finish, self          float64
	verify, hopMix, blame, reveal, orch    float64 // of the slowest chain
	beginPerShard, finishPerShard          []float64
	hopMsgs                                []float64
	hopMixByPos                            map[int][]float64
	revealPerChain, blamePerChain, wallAll []float64
	// batchSizes are the messages entering position 0, per chain.
	batchSizes []float64
	// mixed counts every message×hop a first Mix call processed.
	mixed int
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// selfTime is a span's duration minus the part of it its children
// cover, overlaps counted once.
func selfTime(parent [2]int64, children [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], parent[0]), min(c[1], parent[1])
		if hi > lo {
			clipped = append(clipped, [2]int64{lo, hi})
		}
	}
	return parent[1] - parent[0] - unionLength(clipped)
}

// traceRound reads one round's ledger off the spans recorded inside
// [st.start, st.end], and marks them as the round span's children.
func traceRound(spans []span, st roundStat) roundTrace {
	tr := roundTrace{round: secs(st.end - st.start), hopMixByPos: make(map[int][]float64)}
	var roundID int
	for _, sp := range spans {
		if sp.Name == "round" && sp.Start == st.start {
			roundID = sp.ID
		}
	}
	var begins, finishes, announces [][2]int64
	byChain := make(map[int][]span)
	beginEnd := st.start
	for i := range spans {
		sp := &spans[i]
		if sp.Name == "round" || sp.Start < st.start || sp.End > st.end {
			continue
		}
		sp.Parent = roundID
		iv := [2]int64{sp.Start, sp.End}
		switch sp.Name {
		case "begin":
			begins = append(begins, iv)
			tr.beginPerShard = append(tr.beginPerShard, secs(sp.dur()))
			beginEnd = max(beginEnd, sp.End)
		case "finish":
			finishes = append(finishes, iv)
			tr.finishPerShard = append(tr.finishPerShard, secs(sp.dur()))
		case "announce":
			announces = append(announces, iv)
		default:
			byChain[sp.Chain] = append(byChain[sp.Chain], *sp)
		}
	}

	// Per chain: the first Mix at a position is the mixing step; a
	// repeat is the re-mix of the reduced set after blame.
	type chainTrace struct {
		end, firstMix         int64
		hopMix, blame, reveal int64
	}
	var slowest chainTrace
	for _, cs := range byChain {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		ct := chainTrace{}
		seen := make(map[int]bool)
		for _, sp := range cs {
			ct.end = max(ct.end, sp.End)
			switch {
			case sp.Name == "mix" && !seen[sp.Pos]:
				seen[sp.Pos] = true
				if ct.firstMix == 0 {
					ct.firstMix = sp.Start
					tr.batchSizes = append(tr.batchSizes, float64(sp.Count))
				}
				ct.hopMix += sp.dur()
				tr.hopMixByPos[sp.Pos] = append(tr.hopMixByPos[sp.Pos], secs(sp.dur()))
				tr.hopMsgs = append(tr.hopMsgs, float64(sp.Count))
				tr.mixed += sp.Count
			case sp.Name == "reveal":
				ct.reveal += sp.dur()
			default:
				ct.blame += sp.dur()
			}
		}
		tr.revealPerChain = append(tr.revealPerChain, secs(ct.reveal))
		tr.blamePerChain = append(tr.blamePerChain, secs(ct.blame))
		tr.wallAll = append(tr.wallAll, secs(ct.end-beginEnd))
		if ct.end > slowest.end {
			slowest = ct
		}
	}

	// The chains' stage ends when the coordinator moves on: at the
	// first trailing announce, else the first finish, else the round's
	// end. What the slowest chain did in the stage outside its hop
	// spans — certificate checks, lineage, inner decryption, the wait
	// for the others — is the orchestrator's.
	stageEnd := st.end
	for _, ivs := range [][][2]int64{finishes, announces} {
		for _, iv := range ivs {
			if iv[0] >= slowest.end && iv[0] < stageEnd {
				stageEnd = iv[0]
			}
		}
	}
	if slowest.end == 0 { // no chain ran
		stageEnd = beginEnd
		slowest.firstMix = beginEnd
	}
	tr.begin = secs(unionLength(begins))
	tr.announce = secs(unionLength(announces))
	tr.finish = secs(unionLength(finishes))
	tr.verify = secs(slowest.firstMix - beginEnd)
	tr.hopMix, tr.blame, tr.reveal = secs(slowest.hopMix), secs(slowest.blame), secs(slowest.reveal)
	tr.orch = secs(stageEnd-beginEnd) - tr.verify - tr.hopMix - tr.blame - tr.reveal
	children := append(append(append([][2]int64{{beginEnd, stageEnd}}, begins...), announces...), finishes...)
	tr.self = secs(selfTime([2]int64{st.start, st.end}, children))
	return tr
}

func gather(trs []roundTrace, f func(roundTrace) []float64) []float64 {
	var out []float64
	for _, tr := range trs {
		out = append(out, f(tr)...)
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// transportCost names, per boundary span, the metric that holds its
// excess over the same span of the in-process twin.
var transportCost = map[string]string{
	"mix.hop_mix_s": "rpc.hop_overhead_s",
	"core.begin_s":  "rpc.shard_begin_s",
	"core.finish_s": "rpc.shard_finish_s",
}

// layerMetrics fills in the per-layer metrics and the ledger from the
// traced rounds, the counters and the probes.
func (r *runner) layerMetrics(res *result, opt options) {
	s := r.in.spec
	rec := r.d.rec
	spans := rec.snapshot()
	traced, untraced := r.timed(true), r.timed(false)
	trs := make([]roundTrace, len(traced))
	for i, st := range traced {
		trs[i] = traceRound(spans, st)
	}
	if err := writeTrace(opt.Dir, s.Name, spans); err != nil {
		res.Notes = append(res.Notes, "writing trace: "+err.Error())
	}

	// Probes replay what crossed the shard seam in the last traced
	// round.
	rec.mu.Lock()
	batches := make([][]onion.Submission, s.Servers)
	for _, perShard := range rec.batches {
		for c := range perShard {
			batches[c] = append(batches[c], perShard[c].Subs...)
		}
	}
	var delivered [][]byte
	for _, msgs := range rec.delivered {
		delivered = append(delivered, msgs...)
	}
	rec.mu.Unlock()
	p := runProbes(s.K, traced[len(traced)-1].rho, batches, r.injected, delivered)

	m := res.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(f func(roundTrace) float64) float64 { return median(column(trs, f)) }

	set("group.mul_us", p.mulUs, "us")
	set("group.batchbase_us_per_point", p.batchBaseUs, "us")
	set("group.msm_us_per_point", p.msmUs, "us")
	set("group.parse_point_us", p.parsePointUs, "us")
	set("nizk.verify_batch_us_per_proof", p.verifyBatchUs, "us")
	set("nizk.dleq_verify_us", p.dleqVerifyUs, "us")
	set("aead.seal_us", p.sealUs, "us")
	set("aead.open_us", p.openUs, "us")
	set("onion.wrap_us", p.wrapUs, "us")
	set("onion.peel_us", p.peelUs, "us")
	set("onion.open_inner_us", p.openInnerUs, "us")
	set("onion.submission_bytes", float64(p.submissionBytes), "B")
	set("client.build_p99_ms", quantile(r.buildMs, 0.99), "ms")
	set("client.open_mailbox_us", median(r.openUs), "us")
	set("client.upload_bytes", float64(r.uploadBytes), "B")

	set("mix.announce_s", med(func(t roundTrace) float64 { return t.announce }), "s")
	var hopMix []float64
	for pos := 0; pos < s.K; pos++ {
		at := gather(trs, func(t roundTrace) []float64 { return t.hopMixByPos[pos] })
		res.Extra[fmt.Sprintf("mix.hop_mix_s.pos%d", pos)] = metric{median(at), "s"}
		res.Extra[fmt.Sprintf("mix.hop_mix_s.pos%d.max", pos)] = metric{maxOf(at), "s"}
		hopMix = append(hopMix, at...)
	}
	set("mix.hop_mix_s", median(hopMix), "s")
	set("mix.hop_mix_max_s", maxOf(hopMix), "s")
	set("mix.hop_msgs", median(gather(trs, func(t roundTrace) []float64 { return t.hopMsgs })), "count")
	set("mix.reveal_s", median(gather(trs, func(t roundTrace) []float64 { return t.revealPerChain })), "s")
	set("mix.blame_s", median(gather(trs, func(t roundTrace) []float64 { return t.blamePerChain })), "s")
	set("mix.blame_rounds", median(column(traced, func(st roundStat) float64 { return float64(st.blame) })), "count")
	set("mix.verify_s", median(p.verifyS), "s")
	set("mix.orchestrator_s", med(func(t roundTrace) float64 { return t.orch }), "s")
	set("mix.chain_wall_s", median(gather(trs, func(t roundTrace) []float64 { return t.wallAll })), "s")
	set("mix.chain_wall_max_s", med(func(t roundTrace) float64 { return maxOf(t.wallAll) }), "s")
	sizes := gather(trs, func(t roundTrace) []float64 { return t.batchSizes })
	set("mix.chain_skew", maxOf(sizes)/median(sizes), "ratio")

	set("core.begin_s", median(gather(trs, func(t roundTrace) []float64 { return t.beginPerShard })), "s")
	set("core.finish_s", median(gather(trs, func(t roundTrace) []float64 { return t.finishPerShard })), "s")
	set("core.coordinator_self_s", med(func(t roundTrace) float64 { return t.self }), "s")
	set("core.residual_share", med(func(t roundTrace) float64 { return t.self / t.round }), "share")
	set("core.cpu_util", median(column(traced, func(st roundStat) float64 {
		return st.cpu / (st.wall * float64(r.gens))
	})), "share")
	set("mailbox.deliver_us_per_msg", p.deliverUs, "us")
	set("mailbox.fetch_us", p.fetchUs, "us")

	cnt := func(f func(roundStat) int64) float64 {
		return median(column(traced, func(st roundStat) float64 { return float64(f(st)) }))
	}
	set("store.appends", cnt(func(st roundStat) int64 { return st.storeAppends }), "count")
	set("store.syncs", cnt(func(st roundStat) int64 { return st.storeSyncs }), "count")
	set("store.bytes", cnt(func(st roundStat) int64 { return st.storeBytes }), "B")
	set("store.sync_p50_ms", median(r.d.stores.syncMs), "ms")
	set("store.snapshot_ms", median(r.d.stores.snapshots), "ms")
	set("rpc.hop_bytes_out", cnt(func(st roundStat) int64 { return st.hopOut }), "B")
	set("rpc.hop_bytes_in", cnt(func(st roundStat) int64 { return st.hopIn }), "B")
	set("rpc.hop_writes", cnt(func(st roundStat) int64 { return st.hopWrites }), "count")
	set("rpc.shard_bytes", cnt(func(st roundStat) int64 { return st.shardBytes }), "B")
	set("rpc.submit_p50_ms", median(r.submitMs), "ms")
	set("rpc.submit_p99_ms", quantile(r.submitMs, 0.99), "ms")
	set("rpc.fetch_p50_ms", median(r.fetchMs), "ms")
	set("rpc.fetch_p99_ms", quantile(r.fetchMs, 0.99), "ms")
	perS := 0.0
	if r.submitWall > 0 {
		perS = float64(r.submitted) / r.submitWall
	}
	set("rpc.submit_per_s", perS, "1/s")
	// The transport's cost is the same boundary span with and without
	// it; by construction nothing where no seam is remote.
	for name, out := range transportCost {
		v := 0.0
		if local, ok := opt.twin[name]; ok {
			v = m[name].Value - local.Value
		}
		set(out, v, "s")
	}

	// Rounds alternate traced, untraced: the ratio within each adjacent
	// pair cancels the machine's drift over the run.
	tracedWall := median(column(traced, func(st roundStat) float64 { return st.wall }))
	untracedWall := median(column(untraced, func(st roundStat) float64 { return st.wall }))
	var ratios []float64
	for i := 0; i < min(len(traced), len(untraced)); i++ {
		ratios = append(ratios, traced[i].wall/untraced[i].wall)
	}
	overhead := 0.0
	if len(ratios) > 0 {
		overhead = median(ratios) - 1
	}
	set("trace_overhead_share", overhead, "share")
	res.Extra["round_s.traced"] = metric{tracedWall, "s"}
	res.Extra["round_s.untraced"] = metric{untracedWall, "s"}
	res.Extra["traced_rounds"] = metric{float64(len(traced)), "count"}

	// The ledger decomposes the traced round of median wall clock, so
	// its rows are one real round's and sum to it.
	if len(trs) == 0 {
		return
	}
	order := make([]int, len(trs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return trs[order[i]].round < trs[order[j]].round })
	mid := order[(len(order)-1)/2]
	res.Ledger = r.ledger(trs[mid], traced[mid], p)
}

// ledger lays one traced round out row by row, with the probes'
// prediction for each row's work beside it. Chains run side by side on
// nproc cores, so a stage's predicted wall clock is all chains' work
// divided by nproc.
func (r *runner) ledger(tr roundTrace, st roundStat, p probeResults) []ledgerRow {
	s := r.in.spec
	par := float64(r.gens)
	proofs := 0.0
	for _, n := range tr.batchSizes {
		proofs += n
	}
	beginPred, beginHow := 0.0, "collects external submissions: no crypto"
	if s.InProcess {
		online := float64(s.Users - s.Users/s.ChurnSlices)
		beginPred, beginHow = online*median(r.buildMs)/1e3/par, "online users × client_build_ms ÷ nproc"
	}
	rows := []ledgerRow{
		{Name: "core.begin", Seconds: tr.begin, Predicted: beginPred, How: beginHow},
		{Name: "mix.verify", Seconds: tr.verify, Predicted: proofs * p.verifyBatchUs / 1e6 / par,
			How: "submissions × nizk.verify_batch_us_per_proof ÷ nproc"},
		{Name: "mix.hop_mix", Seconds: tr.hopMix, Predicted: float64(tr.mixed) * (p.peelUs + p.mulUs) / 1e6 / par,
			How: "messages × hops × (onion.peel_us + group.mul_us) ÷ nproc"},
		{Name: "mix.blame", Seconds: tr.blame, How: "blame reveals, accusations, re-certification, re-mix"},
		{Name: "mix.reveal", Seconds: tr.reveal, How: "inner-key reveals"},
		{Name: "mix.orchestrator", Seconds: tr.orch, Predicted: maxOf(tr.batchSizes) * p.openInnerUs / 1e6,
			How: "largest chain batch × onion.open_inner_us (one chain decrypts serially), plus certificate checks"},
		{Name: "mix.announce", Seconds: tr.announce, How: "next round's inner keys"},
		{Name: "core.finish", Seconds: tr.finish, Predicted: float64(st.delivered) * p.deliverUs / 1e6,
			How: "delivered × mailbox.deliver_us_per_msg (the wire adds transfer and the WAL commit)"},
		{Name: "core.coordinator_self", Seconds: tr.self, How: "residual: whatever no boundary span covers"},
	}
	total := 0.0
	for i := range rows {
		rows[i].Share = rows[i].Seconds / tr.round
		total += rows[i].Seconds
	}
	return append(rows, ledgerRow{Name: "round_s (traced)", Seconds: total, Share: total / tr.round})
}

func printLedger(w io.Writer, res *result) {
	if len(res.Ledger) == 0 {
		return
	}
	fmt.Fprintf(w, "ledger %s: the traced round of median wall clock, slowest chain\n", res.Workload)
	fmt.Fprintf(w, "  %-24s %10s %7s %10s  %s\n", "row", "seconds", "share", "predicted", "prediction")
	for _, row := range res.Ledger {
		pred := "-"
		if row.Predicted > 0 {
			pred = fmt.Sprintf("%.4f", row.Predicted)
		}
		fmt.Fprintf(w, "  %-24s %10.4f %6.1f%% %10s  %s\n", row.Name, row.Seconds, 100*row.Share, pred, row.How)
	}
}

// writeTrace writes the spans kept in memory to out/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
