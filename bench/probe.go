package main

import (
	"time"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/mailbox"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// Layer probes: direct timed calls into each layer's exported
// functions, at the sizes the workload uses. They give the unit costs
// the ledger multiplies out, so the micro numbers and the round sit in
// one table.

// usPerOp times reps batches of n calls and returns the median batch's
// microseconds per call.
func usPerOp(reps, n int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(per)
}

type probeResults struct {
	mulUs, batchBaseUs, msmUs, parsePointUs float64
	verifyBatchUs, dleqVerifyUs             float64
	sealUs, openUs                          float64
	wrapUs, peelUs, openInnerUs             float64
	submissionBytes                         int
	deliverUs, fetchUs                      float64
	// verifyS is mix.VerifySubmissionProofs on each chain's captured
	// batch, alone on the machine.
	verifyS []float64
}

// runProbes measures the unit costs for a chain of length k. batches
// are the last traced round's honest submissions per chain, injected
// the blame workload's additions to them, and delivered the round's
// mailbox messages, so the batch-shaped probes run at the workload's
// own sizes.
func runProbes(k int, round uint64, batches [][]onion.Submission, injected map[int][]onion.Submission, delivered [][]byte) probeResults {
	var p probeResults
	scheme := aead.ChaCha20Poly1305()
	nonce := aead.RoundNonce(round, 0)

	// group
	pt := group.Base(group.MustRandomScalar())
	sc := group.MustRandomScalar()
	p.mulUs = usPerOp(5, 200, func() { pt = pt.Mul(sc) })
	scalars := make([]group.Scalar, 1024)
	for i := range scalars {
		scalars[i] = group.MustRandomScalar()
	}
	p.batchBaseUs = usPerOp(5, 1, func() { group.BatchBase(scalars) }) / float64(len(scalars))
	enc := pt.Bytes()
	p.parsePointUs = usPerOp(5, 200, func() { group.ParsePoint(enc) })

	// nizk, at the size of one chain's batch of honest submissions.
	if n := min(len(batches[0]), len(scalars)); n > 0 {
		first := batches[0][:n]
		points := make([]group.Point, n)
		contexts := make([]string, n)
		proofs := make([]nizk.DlogProof, n)
		for i, sub := range first {
			points[i], proofs[i], contexts[i] = sub.DHKey, sub.Proof, onion.SubmitContext(round, 0)
		}
		p.msmUs = usPerOp(5, 1, func() { group.MultiScalarMult(points, scalars[:n]) }) / float64(n)
		p.verifyBatchUs = usPerOp(5, 1, func() { nizk.VerifyDlogBatch(contexts, group.Generator(), points, proofs) }) / float64(n)
	}
	b2 := group.Base(group.MustRandomScalar())
	y1, y2 := pt.Mul(sc), b2.Mul(sc)
	dleq := nizk.ProveDleq("bench/probe", pt, b2, sc)
	p.dleqVerifyUs = usPerOp(5, 40, func() { nizk.VerifyDleq("bench/probe", pt, y1, b2, y2, dleq) })

	// aead, at the outer ciphertext size of a k-hop onion.
	var key [aead.KeySize]byte
	plain := make([]byte, onion.AHSCiphertextSize(k)-aead.Overhead)
	sealed := scheme.Seal(nil, &key, &nonce, plain)
	p.sealUs = usPerOp(5, 2000, func() { scheme.Seal(nil, &key, &nonce, plain) })
	p.openUs = usPerOp(5, 2000, func() { scheme.Open(nil, &key, &nonce, sealed) })

	// onion: wrap for k hops, peel the first layer, open an inner
	// envelope (a zero-hop wrap is exactly the inner envelope).
	msks := make([]group.Scalar, k)
	mpks := make([]group.Point, k)
	for i := range msks {
		msks[i] = group.MustRandomScalar()
		mpks[i] = group.Base(msks[i])
	}
	isk := group.MustRandomScalar()
	ipk := group.Base(isk)
	msg := make([]byte, onion.MailboxMessageSize)
	var sub onion.Submission
	p.wrapUs = usPerOp(5, 40, func() { sub, _ = onion.WrapAHS(scheme, ipk, mpks, round, 0, nonce, msg) })
	p.submissionBytes = submissionBytes(sub)
	p.peelUs = usPerOp(5, 200, func() { onion.PeelAHS(scheme, msks[0], nonce, sub.Envelope) })
	inner, _ := onion.WrapAHS(scheme, ipk, nil, round, 0, nonce, msg)
	p.openInnerUs = usPerOp(5, 200, func() { onion.OpenInner(scheme, isk, nonce, inner.Ct) })

	// mix: submission verification per chain, in isolation.
	for c, subs := range batches {
		subs = append(subs[:len(subs):len(subs)], injected[c]...)
		t := time.Now()
		mix.VerifySubmissionProofs(subs, round, c)
		p.verifyS = append(p.verifyS, time.Since(t).Seconds())
	}

	// mailbox: bulk deliver of the round's messages, then point fetches.
	if len(delivered) > 0 {
		p.deliverUs = usPerOp(5, 1, func() {
			boxes, _ := mailbox.NewCluster(1)
			boxes.Deliver(round, delivered)
		}) / float64(len(delivered))
		boxes, _ := mailbox.NewCluster(1)
		boxes.Deliver(round, delivered)
		i := 0
		p.fetchUs = usPerOp(5, 1000, func() {
			if rcpt, err := onion.Recipient(delivered[i%len(delivered)]); err == nil {
				boxes.Fetch(round, rcpt)
			}
			i++
		})
	}
	return p
}
