package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/store"
)

// The gateway shard's durable state is one log. The store engine
// (internal/store) persists opaque (op, payload) records; this file
// defines the seven record types, and replayOneLocked is the only
// interpreter they have. A snapshot image is not a second format: it
// is the shortest run of the same records that reproduces the current
// state (imageLocked), so recovery walks the image and then the WAL
// tail through that one interpreter, and a live mutation takes the
// same apply step replay takes. A submission or a watermark applies
// before it appends its record, the apply step being its check;
// registrations and a round's deliveries and bans are checked,
// appended and only then applied, so a refused append changes nothing.
//
// Everything a restarted shard must come back with is in the log:
// mailbox contents, transport registrations and the banned set,
// accepted-but-unmixed external submissions, and the round/epoch
// watermark. In-process users (NewUser/AddUser) hold live client key
// material that cannot be serialised, so they are deliberately NOT
// persisted — the durable edge is for network-transport clients,
// which is what a production gateway serves.
//
// Payloads are hand-rolled uvarint/length-prefixed binary rather than
// gob: replay happens on every restart, records are written on the
// submit hot path, and a decoder rejects, never misinterprets,
// unknown or trailing bytes. Points and proofs re-enter through
// group.ParsePoint / nizk.ParseDlogProof, the same validation the RPC
// boundary applies as a message decodes, so a corrupted payload
// cannot smuggle an invalid group element into a batch.
const (
	// opRegister: transport users registered. Payload: their mailbox
	// identifiers concatenated, group.PointSize bytes each, at most
	// registerChunk of them.
	opRegister store.Op = 1
	// opBan: a user was convicted and banned. Payload: mailbox bytes.
	opBan store.Op = 2
	// opDeliver: routed messages of a round landed. Payload: round,
	// count, then count length-prefixed messages, at most
	// deliverRecordBytes in all; a round's mail is as many records as
	// that takes, and replay accumulates them.
	opDeliver store.Op = 3
	// opAck: the owner confirmed receipt of a round's mailbox.
	// Payload: round, then mailbox bytes.
	opAck store.Op = 4
	// opWatermark: the shard committed a round or adopted an epoch.
	// Payload: upcoming round, epoch, chain count, collected round.
	// Mailbox retention is derived from it (applyWatermarkLocked), and
	// every image opens with one.
	opWatermark store.Op = 5
	// opSubmit: an external submission was accepted. Payload:
	// mailbox, round, current messages, cover messages; a lane with no
	// messages is absent.
	opSubmit store.Op = 6
	// opPrune: mailbox rounds before the payload round were dropped
	// on request (Frontend.PruneBefore).
	opPrune store.Op = 7
)

// Record bounds, both far under the 64 MiB a store.Durable record may
// take: registerChunk identifiers are ≈ 2.1 MiB, and deliverRecordBytes
// holds ≈ 3 400 mailbox messages.
const (
	registerChunk      = 1 << 16
	deliverRecordBytes = 1 << 20
)

// mailboxRetention is how many finished rounds of mail a shard keeps:
// a user who was away may fetch the last four rounds, older mail is
// dropped as the round commits.
const mailboxRetention = 4

// ErrImageFormat refuses a snapshot image that does not open with a
// watermark record — in particular the versioned full-state layout
// this package wrote before images became record runs. Such a data
// directory is not half-read; it has to be discarded (or replayed by
// the build that wrote it).
var ErrImageFormat = errors.New("core: snapshot image does not open with a watermark record")

// --- primitive append/read helpers ---

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

type reader struct {
	b []byte
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("core: truncated varint in durable record")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("core: durable record field length %d exceeds remaining %d", n, len(r.b))
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("core: %d trailing bytes in durable record", len(r.b))
	}
	return nil
}

// --- chain-message codec ---

// appendChainMessage encodes one client.ChainMessage: chain index,
// then the submission's fixed-size DH key and proof, then the
// ciphertext.
func appendChainMessage(b []byte, cm client.ChainMessage) []byte {
	b = appendUvarint(b, uint64(cm.Chain))
	b = append(b, cm.Sub.DHKey.Bytes()...)
	b = append(b, cm.Sub.Proof.Bytes()...)
	return appendBytes(b, cm.Sub.Ct)
}

func (r *reader) chainMessage() (client.ChainMessage, error) {
	chain, err := r.uvarint()
	if err != nil {
		return client.ChainMessage{}, err
	}
	if len(r.b) < group.PointSize+nizk.DlogProofSize {
		return client.ChainMessage{}, fmt.Errorf("core: truncated submission in durable record")
	}
	key, err := group.ParsePoint(r.b[:group.PointSize])
	if err != nil {
		return client.ChainMessage{}, fmt.Errorf("core: durable submission key: %w", err)
	}
	r.b = r.b[group.PointSize:]
	proof, err := nizk.ParseDlogProof(r.b[:nizk.DlogProofSize])
	if err != nil {
		return client.ChainMessage{}, fmt.Errorf("core: durable submission proof: %w", err)
	}
	r.b = r.b[nizk.DlogProofSize:]
	ct, err := r.bytes()
	if err != nil {
		return client.ChainMessage{}, err
	}
	return client.ChainMessage{
		Chain: int(chain),
		Sub:   onion.Submission{Envelope: onion.Envelope{DHKey: key, Ct: ct}, Proof: proof},
	}, nil
}

func appendChainMessages(b []byte, cms []client.ChainMessage) []byte {
	b = appendUvarint(b, uint64(len(cms)))
	for _, cm := range cms {
		b = appendChainMessage(b, cm)
	}
	return b
}

func (r *reader) chainMessages() ([]client.ChainMessage, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b))/(group.PointSize+nizk.DlogProofSize) { // the least a message takes
		return nil, fmt.Errorf("core: durable record claims %d messages in %d bytes", n, len(r.b))
	}
	out := make([]client.ChainMessage, 0, n)
	for i := uint64(0); i < n; i++ {
		cm, err := r.chainMessage()
		if err != nil {
			return nil, err
		}
		out = append(out, cm)
	}
	return out, nil
}

// --- record payload codecs ---

func encodeDeliver(round uint64, msgs [][]byte) []byte {
	// Sized up front: a round's mail is megabytes, and growing into it
	// by append allocates several times the record.
	size := 2 * binary.MaxVarintLen64
	for _, m := range msgs {
		size += binary.MaxVarintLen32 + len(m)
	}
	b := appendUvarint(make([]byte, 0, size), round)
	b = appendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = appendBytes(b, m)
	}
	return b
}

// deliverRuns cuts a round's mail into the runs encodeDeliver turns
// into records of at most deliverRecordBytes each; a message larger
// than that would run alone.
func deliverRuns(msgs [][]byte) [][][]byte {
	var runs [][][]byte
	lo, size := 0, 0
	for i, m := range msgs {
		n := binary.MaxVarintLen32 + len(m)
		if i > lo && 2*binary.MaxVarintLen64+size+n > deliverRecordBytes {
			runs = append(runs, msgs[lo:i])
			lo, size = i, 0
		}
		size += n
	}
	if lo < len(msgs) {
		runs = append(runs, msgs[lo:])
	}
	return runs
}

func decodeDeliver(p []byte) (uint64, [][]byte, error) {
	r := &reader{b: p}
	round, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(r.b)) {
		return 0, nil, fmt.Errorf("core: deliver record claims %d messages in %d bytes", n, len(r.b))
	}
	msgs := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		m, err := r.bytes()
		if err != nil {
			return 0, nil, err
		}
		msgs = append(msgs, m)
	}
	return round, msgs, r.done()
}

func encodeAck(round uint64, mailboxID []byte) []byte {
	return append(appendUvarint(nil, round), mailboxID...)
}

func decodeAck(p []byte) (uint64, []byte, error) {
	r := &reader{b: p}
	round, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if len(r.b) == 0 {
		return 0, nil, errors.New("core: ack record names no mailbox")
	}
	return round, r.b, nil
}

// watermark is the per-shard round/epoch progress a restart resumes
// from.
type watermark struct {
	round     uint64
	epoch     uint64
	numChains int
	collected uint64
}

func encodeWatermark(w watermark) []byte {
	b := appendUvarint(nil, w.round)
	b = appendUvarint(b, w.epoch)
	b = appendUvarint(b, uint64(w.numChains))
	return appendUvarint(b, w.collected)
}

func decodeWatermark(p []byte) (watermark, error) {
	r := &reader{b: p}
	var w watermark
	var err error
	if w.round, err = r.uvarint(); err != nil {
		return w, err
	}
	if w.epoch, err = r.uvarint(); err != nil {
		return w, err
	}
	nc, err := r.uvarint()
	if err != nil {
		return w, err
	}
	w.numChains = int(nc)
	if w.collected, err = r.uvarint(); err != nil {
		return w, err
	}
	return w, r.done()
}

func encodeSubmit(mailboxID string, out *client.RoundOutput) []byte {
	b := appendBytes(nil, []byte(mailboxID))
	b = appendUvarint(b, out.Round)
	b = appendChainMessages(b, out.Current)
	return appendChainMessages(b, out.Cover)
}

func decodeSubmit(p []byte) (string, *client.RoundOutput, error) {
	r := &reader{b: p}
	mb, err := r.bytes()
	if err != nil {
		return "", nil, err
	}
	round, err := r.uvarint()
	if err != nil {
		return "", nil, err
	}
	cur, err := r.chainMessages()
	if err != nil {
		return "", nil, err
	}
	cover, err := r.chainMessages()
	if err != nil {
		return "", nil, err
	}
	return string(mb), &client.RoundOutput{Round: round, Current: cur, Cover: cover}, r.done()
}

// --- the image: a compacted log ---

// appendRecord frames one record into an image: op, then the
// length-prefixed payload.
func appendRecord(b []byte, op store.Op, payload []byte) []byte {
	return appendBytes(append(b, byte(op)), payload)
}

// record reads one frame appendRecord wrote; r must not be empty.
func (r *reader) record() (store.Record, error) {
	op := store.Op(r.b[0])
	r.b = r.b[1:]
	payload, err := r.bytes()
	return store.Record{Op: op, Payload: payload}, err
}

// watermarkLocked is the shard's current position. Callers hold f.mu.
func (f *Frontend) watermarkLocked() watermark {
	w := watermark{round: f.round, epoch: f.epoch, collected: f.collected}
	if f.plan != nil {
		w.numChains = f.plan.NumChains
	}
	return w
}

// imageLocked emits the shard's durable state as the shortest record
// run that reproduces it: the watermark first (so the plan is in place
// before any submission is checked against it), then the registrations
// registerChunk to a record, bans, each retained round's mail in as
// few deliveries as the record bound allows, and one submission per
// (user, round). Every collection is walked in sorted order, so equal
// states emit equal bytes. Callers hold f.mu.
func (f *Frontend) imageLocked() []byte {
	b := appendRecord(nil, opWatermark, encodeWatermark(f.watermarkLocked()))
	ids := f.reg.transportKeys(f.rng)
	for lo := 0; lo < len(ids); lo += registerChunk {
		chunk := ids[lo:min(lo+registerChunk, len(ids))]
		b = appendUvarint(append(b, byte(opRegister)), uint64(len(chunk)*group.PointSize))
		for i := range chunk {
			b = append(b, chunk[i][:]...)
		}
	}
	for _, who := range slices.Sorted(maps.Keys(f.banned)) {
		b = appendRecord(b, opBan, []byte(who))
	}
	for _, rm := range f.boxes.Export() {
		for _, run := range deliverRuns(rm.Msgs) {
			b = appendRecord(b, opDeliver, encodeDeliver(rm.Round, run))
		}
	}
	for _, who := range slices.Sorted(maps.Keys(f.externals)) {
		for _, s := range f.externals[who].subs {
			b = appendRecord(b, opSubmit, encodeSubmit(who, &client.RoundOutput{
				Round: s.round, Current: s.current, Cover: s.cover,
			}))
		}
	}
	return b
}

// recover rebuilds the shard's durable state from what store.Open
// read back: the image's records first, then the WAL records appended
// after it, in order. Damaged records fail the recovery — the WAL
// engine already cut torn tails, so a record that frames correctly
// but decodes badly means real corruption, and silent skipping would
// de-sync the shard from what clients were promised.
func (f *Frontend) recover(rec *store.Recovered) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if img := rec.Snapshot; img != nil {
		if len(img) == 0 || store.Op(img[0]) != opWatermark {
			return fmt.Errorf("core: shard %s: %w", f.rng, ErrImageFormat)
		}
		for r := (&reader{b: img}); len(r.b) > 0; {
			rc, err := r.record()
			if err == nil {
				err = f.replayOneLocked(rc)
			}
			if err != nil {
				return fmt.Errorf("core: shard %s: replaying image record (op %d): %w", f.rng, rc.Op, err)
			}
		}
	}
	for i, rc := range rec.Records {
		if err := f.replayOneLocked(rc); err != nil {
			return fmt.Errorf("core: shard %s: replaying WAL record %d (op %d): %w", f.rng, i, rc.Op, err)
		}
	}
	return nil
}

// replayOneLocked is the log's one interpreter: it decodes a record
// and takes the apply step the live path took when it wrote it.
// Callers hold f.mu.
func (f *Frontend) replayOneLocked(rec store.Record) error {
	switch rec.Op {
	case opRegister:
		if len(rec.Payload) == 0 || len(rec.Payload)%group.PointSize != 0 {
			return fmt.Errorf("core: register record is %d bytes, want a non-empty multiple of %d (compressed public keys)", len(rec.Payload), group.PointSize)
		}
		for p := rec.Payload; len(p) > 0; p = p[group.PointSize:] {
			id, _ := parseMailboxID(p[:group.PointSize])
			f.reg.register(id)
		}
	case opBan:
		f.applyBanLocked(string(rec.Payload))
	case opDeliver:
		round, msgs, err := decodeDeliver(rec.Payload)
		if err != nil {
			return err
		}
		f.boxes.Deliver(round, msgs)
	case opAck:
		round, mb, err := decodeAck(rec.Payload)
		if err != nil {
			return err
		}
		f.boxes.Ack(round, mb)
	case opWatermark:
		w, err := decodeWatermark(rec.Payload)
		if err != nil {
			return err
		}
		return f.applyWatermarkLocked(w)
	case opSubmit:
		mb, out, err := decodeSubmit(rec.Payload)
		if err != nil {
			return err
		}
		return f.applySubmitLocked(mb, out)
	case opPrune:
		r := &reader{b: rec.Payload}
		round, err := r.uvarint()
		if err == nil {
			err = r.done()
		}
		if err != nil {
			return err
		}
		f.boxes.PruneBefore(round)
	default:
		return fmt.Errorf("core: unknown durable record op %d", rec.Op)
	}
	return nil
}

// --- apply steps shared by the live path and replay ---

// applyBanLocked bans a convicted user at the transport layer and
// drops her banked traffic, which must never run (§6.4): external
// users have no registry client state for markRemoved to act on.
// Callers hold f.mu.
func (f *Frontend) applyBanLocked(who string) {
	f.banned[who] = true
	delete(f.externals, who)
	f.reg.markRemoved(who)
}

// onPlanLocked reports whether the shard already runs the epoch's
// plan. Callers hold f.mu.
func (f *Frontend) onPlanLocked(epoch uint64, numChains int) bool {
	return f.plan != nil && f.epoch == epoch && f.plan.NumChains == numChains
}

// applyWatermarkLocked moves the shard to a position: it adopts the
// epoch's (deterministic) chain plan if the shard is not on it yet,
// sets the round counters, and drops what the position makes
// unreachable — external traffic for collected rounds and mail older
// than the retention window. Callers hold f.mu.
func (f *Frontend) applyWatermarkLocked(w watermark) error {
	if w.numChains > 0 && !f.onPlanLocked(w.epoch, w.numChains) {
		plan, err := chainsel.NewPlan(w.numChains)
		if err != nil {
			return fmt.Errorf("core: shard %s plan for epoch %d: %w", f.rng, w.epoch, err)
		}
		f.plan, f.epoch = plan, w.epoch
		// Banked covers and external submissions were built against
		// the old chains' keys; running them under the new epoch would
		// get their honest owners blamed (see recover.go).
		f.externals = make(map[string]*externalUser)
		for i := f.rng.Lo; i < f.rng.Hi; i++ {
			sh := &f.reg.shards[i]
			sh.mu.Lock()
			for _, ru := range sh.users {
				if ru.removed {
					continue
				}
				ru.cover = nil
				ru.coverRound = 0
				ru.built = nil
				ru.u.Rebalance(plan)
			}
			sh.built = nil
			sh.mu.Unlock()
		}
	}
	f.round, f.collected = w.round, w.collected
	f.dropExternalsThroughLocked(w.collected)
	if w.round > mailboxRetention {
		f.boxes.PruneBefore(w.round - mailboxRetention)
	}
	return nil
}

// commitWatermarkLocked applies a new position and logs it. Callers
// hold f.mu.
func (f *Frontend) commitWatermarkLocked(w watermark) error {
	if err := f.applyWatermarkLocked(w); err != nil {
		return err
	}
	return f.st.Append(opWatermark, encodeWatermark(w))
}

// applySubmitLocked banks one external submission: current for its
// round, cover for the round after. The mailbox's length and the chain
// indices are checked here, so bytes read back from disk key the state
// and index the batches no more freely than bytes off the wire. A lane
// without messages leaves the entry's lane as it was, and a submission
// with neither banks nothing. Callers hold f.mu.
func (f *Frontend) applySubmitLocked(mailbox string, out *client.RoundOutput) error {
	if _, err := parseMailboxID(mailbox); err != nil {
		return err
	}
	if f.banned[mailbox] {
		return fmt.Errorf("core: user was removed for misbehaviour; submissions are refused")
	}
	if f.plan == nil {
		return fmt.Errorf("core: shard %s has no chain plan yet; submissions are refused", f.rng)
	}
	for _, lane := range [][]client.ChainMessage{out.Current, out.Cover} {
		for _, cm := range lane {
			if cm.Chain < 0 || cm.Chain >= f.plan.NumChains {
				return fmt.Errorf("core: submission to unknown chain %d", cm.Chain)
			}
		}
	}
	if len(out.Current)+len(out.Cover) == 0 {
		return nil
	}
	eu := f.externals[mailbox]
	if eu == nil {
		eu = &externalUser{}
		f.externals[mailbox] = eu
	}
	s := eu.entry(out.Round)
	if len(out.Current) > 0 {
		s.current = out.Current
	}
	if len(out.Cover) > 0 {
		s.cover = out.Cover
	}
	return nil
}
