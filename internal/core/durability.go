package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/mailbox"
	"repro/internal/nizk"
	"repro/internal/onion"
	"repro/internal/store"
)

// WAL record types and encodings for a gateway shard's durable state.
// The store engine (internal/store) persists opaque (op, payload)
// records; this file defines what they mean. Everything a restarted
// shard must come back with lives here: mailbox contents, transport
// registrations and the banned set, accepted-but-unmixed external
// submissions, and the round/epoch watermark. In-process users
// (NewUser/AddUser) hold live client key material that cannot be
// serialised, so they are deliberately NOT persisted — the durable
// edge is for network-transport clients, which is what a production
// gateway serves.
//
// Encodings are hand-rolled uvarint/length-prefixed binary rather
// than gob: replay happens on every restart, records are written on
// the submit hot path, and the formats below are stable by
// construction (a decoder rejects, never misinterprets, unknown
// bytes). Points and proofs re-enter through group.ParsePoint /
// nizk.ParseDlogProof, the same validation the RPC boundary applies
// as a message decodes, so a corrupted payload cannot smuggle an
// invalid group element into a batch.
const (
	// opRegister: a transport user registered. Payload: mailbox bytes.
	opRegister store.Op = 1
	// opBan: a user was convicted and banned. Payload: mailbox bytes.
	opBan store.Op = 2
	// opDeliver: a round's routed messages landed. Payload: round,
	// count, then count length-prefixed messages.
	opDeliver store.Op = 3
	// opAck: the owner confirmed receipt of a round's mailbox.
	// Payload: round, then mailbox bytes.
	opAck store.Op = 4
	// opWatermark: the shard committed a round. Payload: upcoming
	// round, epoch, chain count, collected round.
	opWatermark store.Op = 5
	// opSubmit: an external submission was accepted. Payload:
	// mailbox, round, current messages, cover messages.
	opSubmit store.Op = 6
	// opPrune: mailbox rounds before the payload round were dropped.
	opPrune store.Op = 7
)

// snapshotVersion guards the full-state image layout.
const snapshotVersion = 1

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
	if n > uint64(len(r.b)) { // every message takes >1 byte
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
	b := appendUvarint(nil, round)
	b = appendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		b = appendBytes(b, m)
	}
	return b
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

// --- snapshot codec ---

// encodeSnapshotLocked serialises the shard's full durable state.
// Callers hold f.mu.
func (f *Frontend) encodeSnapshotLocked() []byte {
	b := appendUvarint(nil, snapshotVersion)
	b = appendUvarint(b, f.round)
	b = appendUvarint(b, f.epoch)
	nc := 0
	if f.plan != nil {
		nc = f.plan.NumChains
	}
	b = appendUvarint(b, uint64(nc))
	b = appendUvarint(b, f.collected)

	regs := f.reg.transportKeys(f.rng)
	b = appendUvarint(b, uint64(len(regs)))
	for _, k := range regs {
		b = appendBytes(b, []byte(k))
	}

	banned := make([]string, 0, len(f.banned))
	for k := range f.banned {
		banned = append(banned, k)
	}
	sort.Strings(banned)
	b = appendUvarint(b, uint64(len(banned)))
	for _, k := range banned {
		b = appendBytes(b, []byte(k))
	}

	entries := f.boxes.Export()
	b = appendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendUvarint(b, e.Round)
		b = appendBytes(b, e.Mailbox)
		b = appendUvarint(b, uint64(len(e.Msgs)))
		for _, m := range e.Msgs {
			b = appendBytes(b, m)
		}
	}

	extKeys := make([]string, 0, len(f.externals))
	for k := range f.externals {
		extKeys = append(extKeys, k)
	}
	sort.Strings(extKeys)
	b = appendUvarint(b, uint64(len(extKeys)))
	for _, k := range extKeys {
		eu := f.externals[k]
		b = appendBytes(b, []byte(k))
		b = appendRoundMessages(b, eu.current)
		b = appendRoundMessages(b, eu.cover)
	}
	return b
}

func appendRoundMessages(b []byte, m map[uint64][]client.ChainMessage) []byte {
	rounds := make([]uint64, 0, len(m))
	for r := range m {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	b = appendUvarint(b, uint64(len(rounds)))
	for _, r := range rounds {
		b = appendUvarint(b, r)
		b = appendChainMessages(b, m[r])
	}
	return b
}

func (r *reader) roundMessages() (map[uint64][]client.ChainMessage, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	out := make(map[uint64][]client.ChainMessage, n)
	for i := uint64(0); i < n; i++ {
		round, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		cms, err := r.chainMessages()
		if err != nil {
			return nil, err
		}
		out[round] = cms
	}
	return out, nil
}

// applySnapshotLocked restores the shard's state from a snapshot
// image. Callers hold f.mu on a freshly-constructed Frontend.
func (f *Frontend) applySnapshotLocked(p []byte) error {
	r := &reader{b: p}
	ver, err := r.uvarint()
	if err != nil {
		return err
	}
	if ver != snapshotVersion {
		return fmt.Errorf("core: snapshot version %d, want %d", ver, snapshotVersion)
	}
	var w watermark
	if w.round, err = r.uvarint(); err != nil {
		return err
	}
	if w.epoch, err = r.uvarint(); err != nil {
		return err
	}
	nc, err := r.uvarint()
	if err != nil {
		return err
	}
	w.numChains = int(nc)
	if w.collected, err = r.uvarint(); err != nil {
		return err
	}
	if err := f.applyWatermarkLocked(w); err != nil {
		return err
	}

	nRegs, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nRegs; i++ {
		mb, err := r.bytes()
		if err != nil {
			return err
		}
		f.reg.insert(string(mb), &registeredUser{})
	}

	nBan, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nBan; i++ {
		mb, err := r.bytes()
		if err != nil {
			return err
		}
		f.banned[string(mb)] = true
		f.reg.markRemoved(string(mb))
	}

	nBox, err := r.uvarint()
	if err != nil {
		return err
	}
	var entries []mailbox.Entry
	for i := uint64(0); i < nBox; i++ {
		var e mailbox.Entry
		if e.Round, err = r.uvarint(); err != nil {
			return err
		}
		if e.Mailbox, err = r.bytes(); err != nil {
			return err
		}
		nMsg, err := r.uvarint()
		if err != nil {
			return err
		}
		for j := uint64(0); j < nMsg; j++ {
			m, err := r.bytes()
			if err != nil {
				return err
			}
			e.Msgs = append(e.Msgs, m)
		}
		entries = append(entries, e)
	}
	f.boxes.Import(entries)

	nExt, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nExt; i++ {
		mb, err := r.bytes()
		if err != nil {
			return err
		}
		cur, err := r.roundMessages()
		if err != nil {
			return err
		}
		cover, err := r.roundMessages()
		if err != nil {
			return err
		}
		f.externals[string(mb)] = &externalUser{current: cur, cover: cover}
	}
	return r.done()
}

// applyWatermarkLocked adopts a recovered round/epoch position:
// rebuild the (deterministic) chain plan and fast-forward the round
// counters. Callers hold f.mu.
func (f *Frontend) applyWatermarkLocked(w watermark) error {
	if w.numChains > 0 {
		if err := f.adoptLocked(w.epoch, w.numChains); err != nil {
			return err
		}
	}
	if w.round > f.round {
		f.round = w.round
	}
	if w.collected > f.collected {
		f.collected = w.collected
	}
	return nil
}

// replayRecords applies recovered WAL records, in append order, on
// top of whatever the snapshot restored. Damaged records fail the
// recovery — the WAL engine already cut torn tails, so a record that
// frames correctly but decodes badly means real corruption and silent
// skipping would de-sync the shard from what clients were promised.
func (f *Frontend) replayRecords(recs []store.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, rec := range recs {
		if err := f.replayOneLocked(rec); err != nil {
			return fmt.Errorf("core: replaying WAL record %d (op %d): %w", i, rec.Op, err)
		}
	}
	return nil
}

func (f *Frontend) replayOneLocked(rec store.Record) error {
	switch rec.Op {
	case opRegister:
		f.reg.insert(string(rec.Payload), &registeredUser{})
	case opBan:
		who := string(rec.Payload)
		f.banned[who] = true
		delete(f.externals, who)
		f.reg.markRemoved(who)
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
		if f.banned[mb] {
			return nil
		}
		eu, ok := f.externals[mb]
		if !ok {
			eu = &externalUser{
				current: make(map[uint64][]client.ChainMessage),
				cover:   make(map[uint64][]client.ChainMessage),
			}
			f.externals[mb] = eu
		}
		eu.current[out.Round] = out.Current
		eu.cover[out.Round+1] = out.Cover
	case opPrune:
		r := &reader{b: rec.Payload}
		round, err := r.uvarint()
		if err != nil {
			return err
		}
		f.boxes.PruneBefore(round)
	default:
		return fmt.Errorf("core: unknown durable record op %d", rec.Op)
	}
	return nil
}
