// Package client implements the XRD user protocol (§5.3): chain
// selection, loopback and conversation message generation (Algorithm
// 2 with the AHS envelopes of §6.2), the cover messages for round
// ρ+1 that protect against user churn (§5.3.3), and mailbox
// decryption.
//
// A user sends ℓ fixed-size messages every round. Chains that carry a
// conversation get a message encrypted for the partner; all others
// get loopbacks to her own mailbox. Both look identical on the wire,
// and she always receives exactly ℓ messages back.
//
// Multiple simultaneous conversations (§9) are supported when every
// partner pair meets on a distinct chain: each such chain carries one
// conversation, amortising the ℓ messages across partners. A clash —
// two partners meeting this user on the same chain — is rejected,
// matching the limitation the paper states.
//
// Concurrency contract: a User is single-owner state. BuildRound and
// OpenMailbox mutate conversation state (outbox drains, offline
// signals), so each User must be driven by one goroutine at a time;
// the core round pipeline enforces this by locking a user's registry
// shard around her build. Distinct Users share no mutable state —
// ParamsSource and the chain-selection Plan are read-only here — so
// building many users in parallel is safe and is exactly what the
// pipeline does.
package client

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/aead"
	"repro/internal/chainsel"
	"repro/internal/group"
	"repro/internal/kdf"
	"repro/internal/mix"
	"repro/internal/onion"
)

// Lanes separate the mailbox-layer nonces of fresh messages from
// cover messages so the same directional conversation key is never
// used twice with one nonce: a cover sealed for round ρ+1 during
// round ρ and a fresh message sealed in round ρ+1 would otherwise
// collide.
const (
	LaneCurrent byte = 0
	LaneCover   byte = 1
)

// maxFormerPartners bounds how many ended conversations' keys are
// retained to decrypt stragglers (a former partner's banked covers).
const maxFormerPartners = 4

// ErrNotConversing is returned by QueueMessage without a partner.
var ErrNotConversing = errors.New("client: not in a conversation")

// ErrChainClash is returned when two partners would share a meeting
// chain with this user, which XRD cannot multiplex (§9).
var ErrChainClash = errors.New("client: two partners meet on the same chain")

// ParamsSource supplies chain parameters for a round; satisfied by
// the core network and by the RPC client.
type ParamsSource interface {
	// ChainParams returns the public parameters of chain for round;
	// the round's inner keys must already be announced.
	ChainParams(chain int, round uint64) (mix.Params, error)
}

// User holds a user's key material and conversation state.
type User struct {
	scheme   aead.Scheme
	plan     *chainsel.Plan
	identity group.KeyPair
	// loopbackSecret derives the chain-specific loopback keys s_xA
	// known only to this user.
	loopbackSecret [32]byte

	// partners maps a meeting chain to the partner this user
	// converses with there (§9: one conversation per chain).
	partners map[int]*peer
	// former retains ended partners' keys so stragglers — most
	// notably a former partner's banked cover messages arriving a
	// round after the offline signal — still decrypt.
	former []*peer

	// epoch is plan's topology epoch. drained records the bodies recent
	// builds popped from partners' queues, in pop order, until Settle,
	// Withdraw or restoreDrained settles them.
	epoch   uint64
	drained []drainRecord
}

// peer is a conversation partner and the Diffie-Hellman secret her
// identity key shares with this user's. Both keys are long-term, so
// the exchange has one answer for as long as the partner is known: it
// is made once, by the first message built for her or mailbox opened
// (not when she is added, so starting a conversation stays free), and
// travels with her through Rebalance and into former instead of being
// redone for every message and every download — which also means the
// identity secret only ever meets the constant-time Point.Mul of a
// bare point.
type peer struct {
	key       group.Point
	shared    [32]byte
	exchanged bool
	// outbox queues the bodies to send her, one a round.
	outbox [][]byte
}

// secret returns the static shared secret with p, exchanging on first
// use.
func (u *User) secret(p *peer) [32]byte {
	if !p.exchanged {
		p.shared, p.exchanged = group.DH(p.key, u.identity.Private), true
	}
	return p.shared
}

// peerFor returns the record a new conversation with partner starts
// from: her retained one if she is a former partner, so the secret
// comes back with her, otherwise a fresh one.
func (u *User) peerFor(partner group.Point) *peer {
	for i, p := range u.former {
		if p.key.Equal(partner) {
			u.former = append(u.former[:i:i], u.former[i+1:]...)
			return p
		}
	}
	return &peer{key: partner}
}

// drainRecord is one body a round's build popped from p's outbox, with
// the epoch and plan it was built under: the plan still gives its chain
// and her row once she has moved to another.
type drainRecord struct {
	round, epoch uint64
	plan         *chainsel.Plan
	p            *peer
	body         []byte
}

// Outcome is a finished round's public result (Settle): the epoch it
// ran under, the chains dead at its begin and those that halted or did
// not run.
type Outcome struct {
	Round, Epoch uint64
	Dead, Failed []int
}

// NewUser creates a user with a fresh identity key pair. A nil scheme
// selects ChaCha20-Poly1305, the deployment default.
func NewUser(scheme aead.Scheme, plan *chainsel.Plan) *User {
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	u := &User{
		scheme:   scheme,
		plan:     plan,
		identity: group.GenerateBaseKeyPair(),
		partners: make(map[int]*peer),
	}
	copy(u.loopbackSecret[:], group.MustRandomScalar().Bytes())
	return u
}

// PublicKey returns the user's identity public key, which is also her
// mailbox identifier (§5.1).
func (u *User) PublicKey() group.Point { return u.identity.Public }

// Mailbox returns the user's mailbox identifier bytes.
func (u *User) Mailbox() []byte { return u.identity.Public.Bytes() }

// Chains returns the multiset of chains this user submits to each
// round (§5.3.1).
func (u *User) Chains() []int { return u.plan.ChainsForUser(u.Mailbox()) }

// StartConversation begins a conversation with the holder of
// partner's public key, alongside any existing conversations. Per
// §3.1 the two users agree to start out-of-band; both sides must call
// this for the same round for messages to cross. It fails with
// ErrChainClash if the partner's meeting chain is already carrying
// another of this user's conversations (§9's stated limitation).
func (u *User) StartConversation(partner group.Point) error {
	meeting := u.plan.MeetingChainForUsers(u.Mailbox(), partner.Bytes())
	if existing, ok := u.partners[meeting]; ok {
		if existing.key.Equal(partner) {
			return nil
		}
		return fmt.Errorf("%w: chain %d", ErrChainClash, meeting)
	}
	u.partners[meeting] = u.peerFor(partner)
	return nil
}

// StartConversations begins several conversations at once (§9 group
// scenario), atomically: either all partners are accepted or none.
func (u *User) StartConversations(partners []group.Point) error {
	staged := make(map[int]group.Point, len(partners))
	for _, p := range partners {
		meeting := u.plan.MeetingChainForUsers(u.Mailbox(), p.Bytes())
		if existing, ok := staged[meeting]; ok && !existing.Equal(p) {
			return fmt.Errorf("%w: chain %d", ErrChainClash, meeting)
		}
		if existing, ok := u.partners[meeting]; ok && !existing.key.Equal(p) {
			return fmt.Errorf("%w: chain %d", ErrChainClash, meeting)
		}
		staged[meeting] = p
	}
	for c, p := range staged {
		if _, ok := u.partners[c]; !ok {
			u.partners[c] = u.peerFor(p)
		}
	}
	return nil
}

// EndConversation ends the conversation with one partner; the wire
// pattern does not change. The partner's key is retained so stale
// messages from them still decrypt.
func (u *User) EndConversation(partner group.Point) {
	for c, p := range u.partners {
		if p.key.Equal(partner) {
			p.outbox = nil
			u.retainFormer(p)
			delete(u.partners, c)
		}
	}
}

// EndAllConversations reverts to loopback-only traffic.
func (u *User) EndAllConversations() {
	for _, p := range u.partners {
		p.outbox = nil
		u.retainFormer(p)
	}
	u.partners = make(map[int]*peer)
}

func (u *User) retainFormer(p *peer) {
	u.former = append(u.former, p)
	if len(u.former) > maxFormerPartners {
		u.former = u.former[len(u.former)-maxFormerPartners:]
	}
}

// InConversation reports whether any partner is set.
func (u *User) InConversation() bool { return len(u.partners) > 0 }

// Partners returns the current conversation partners.
func (u *User) Partners() []group.Point {
	out := make([]group.Point, 0, len(u.partners))
	for _, p := range u.partners {
		out = append(out, p.key)
	}
	return out
}

// QueueMessage enqueues a body when exactly one conversation is
// active; with several partners use QueueMessageFor.
func (u *User) QueueMessage(body []byte) error {
	if len(u.partners) != 1 {
		if len(u.partners) == 0 {
			return ErrNotConversing
		}
		return errors.New("client: several conversations active; use QueueMessageFor")
	}
	for _, p := range u.partners {
		return u.QueueMessageFor(p.key, body)
	}
	return nil // unreachable
}

// QueueMessageFor enqueues a body for one partner; one queued body is
// sent to them per round, and bodies must fit onion.BodySize.
func (u *User) QueueMessageFor(partner group.Point, body []byte) error {
	if len(body) > onion.BodySize {
		return fmt.Errorf("client: body %d bytes exceeds %d", len(body), onion.BodySize)
	}
	for _, p := range u.partners {
		if p.key.Equal(partner) {
			p.outbox = append(p.outbox, append([]byte(nil), body...))
			return nil
		}
	}
	return ErrNotConversing
}

// MeetingChain returns the chain shared with the single active
// partner; with several partners use MeetingChains.
func (u *User) MeetingChain() (int, error) {
	if len(u.partners) != 1 {
		return 0, ErrNotConversing
	}
	for c := range u.partners {
		return c, nil
	}
	return 0, ErrNotConversing // unreachable
}

// MeetingChains maps each active partner to the chain carrying that
// conversation.
func (u *User) MeetingChains() map[int]group.Point {
	out := make(map[int]group.Point, len(u.partners))
	for c, p := range u.partners {
		out[c] = p.key
	}
	return out
}

// Rebalance re-derives the user's conversation placement under the
// chain-selection plan of a new epoch, after the network re-forms its
// chains (eviction of a blamed server changes n, which changes both
// group membership and meeting chains). Every partner is re-mapped to
// the pair's meeting chain under the new plan; if two partners now
// collide on one chain — the clash XRD cannot multiplex (§9) — all
// but the first (by partner key order, so both sides agree) are
// dropped and returned. Dropped partners' keys (and shared secrets)
// are retained so their in-flight messages still decrypt.
func (u *User) Rebalance(plan *chainsel.Plan, epoch uint64) (dropped []group.Point) {
	old := u.partners
	u.plan, u.epoch = plan, epoch
	u.partners = make(map[int]*peer, len(old))

	// Deterministic order: both ends of every conversation, and every
	// replica of this user, resolve clashes identically.
	ps := make([]*peer, 0, len(old))
	for _, p := range old {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		return string(ps[i].key.Bytes()) < string(ps[j].key.Bytes())
	})
	for _, p := range ps {
		meeting := plan.MeetingChainForUsers(u.Mailbox(), p.key.Bytes())
		if _, taken := u.partners[meeting]; taken {
			p.outbox = nil
			u.retainFormer(p)
			dropped = append(dropped, p.key)
			continue
		}
		u.partners[meeting] = p
	}
	return dropped
}

// Epoch returns the topology epoch of the user's plan (Rebalance).
func (u *User) Epoch() uint64 { return u.epoch }

// ChainMessage is one submission addressed to one chain.
type ChainMessage struct {
	Chain int
	Sub   onion.Submission
}

// RoundOutput is everything a user sends in round ρ: her messages for
// the current round and the cover messages the servers will use in
// round ρ+1 if she goes offline (§5.3.3).
type RoundOutput struct {
	Round   uint64
	Current []ChainMessage
	Cover   []ChainMessage
}

// BuildRound produces the user's submissions for round rho and her
// covers for round rho+1. Chain parameters for both rounds must be
// available from src (the coordinator announces round ρ+1's inner
// keys during round ρ).
//
// A build's submissions are only valid for the epoch they were built
// in, so the caller (the gateway shard for in-process users) reuses a
// round's output on a same-epoch retry rather than calling BuildRound
// twice; after an epoch re-formation the round is rebuilt here, and
// the bodies its discarded predecessor drained are restored first.
func (u *User) BuildRound(rho uint64, src ParamsSource) (*RoundOutput, error) {
	u.restoreDrained(rho)
	cur, err := u.laneJobs(rho, LaneCurrent, src)
	if err != nil {
		return nil, fmt.Errorf("client: building round %d: %w", rho, err)
	}
	cover, err := u.laneJobs(rho+1, LaneCover, src)
	if err != nil {
		return nil, fmt.Errorf("client: building covers for round %d: %w", rho+1, err)
	}
	// Both lanes' onions are wrapped in one call: 2ℓ(k+1) exchanges are
	// what the batched table sums of group.BatchDH amortise over.
	subs, err := onion.WrapAHSBatch(u.scheme, append(cur, cover...))
	if err != nil {
		return nil, fmt.Errorf("client: building round %d: %w", rho, err)
	}
	// The lanes get an array each: covers are banked for a round after
	// the current lane's messages are done with.
	return &RoundOutput{
		Round:   rho,
		Current: chainMessages(cur, subs[:len(cur)]),
		Cover:   chainMessages(cover, subs[len(cur):]),
	}, nil
}

// chainMessages addresses each wrapped job to its chain.
func chainMessages(jobs []onion.WrapJob, subs []onion.Submission) []ChainMessage {
	out := make([]ChainMessage, len(jobs))
	for i, sub := range subs {
		out[i] = ChainMessage{Chain: jobs[i].Chain, Sub: sub}
	}
	return out
}

// restoreDrained is BuildRound's half of the restore rule: building
// round rho proves no round ≥ rho has run, so what builds for them
// under another epoch drained goes back to its queue. Records of rounds
// before rho−1 are dropped, settled or not.
func (u *User) restoreDrained(rho uint64) {
	u.undo(func(d *drainRecord) (bool, bool) {
		restore := d.round >= rho && d.epoch != u.epoch
		return restore || d.round+2 <= rho, restore
	})
}

// Settle puts back at the front of its queue, in send order, each
// drained body whose round's outcome shows it undelivered: the round
// ran under another epoch than the body was built in, a chain of her
// row was dead at its begin, or the body's own chain failed. A body its
// round delivered is forgotten and one whose round has no outcome is
// kept, so settling twice restores nothing twice.
func (u *User) Settle(outcomes []Outcome) {
	u.undo(func(d *drainRecord) (bool, bool) {
		i := slices.IndexFunc(outcomes, func(o Outcome) bool { return o.Round == d.round })
		if i < 0 {
			return false, false
		}
		o := &outcomes[i]
		if o.Epoch != d.epoch || len(o.Dead)+len(o.Failed) == 0 {
			return true, o.Epoch != d.epoch
		}
		me := u.Mailbox()
		dead := func(c int) bool { return slices.Contains(o.Dead, c) }
		return true, slices.ContainsFunc(d.plan.ChainsForUser(me), dead) ||
			slices.Contains(o.Failed, d.plan.MeetingChainForUsers(me, d.p.key.Bytes()))
	})
}

// Withdraw undoes round rho's build that never reached a gateway: its
// bodies go back to the front of their queues, in send order, and
// their records go, so no later Settle restores them again.
func (u *User) Withdraw(rho uint64) {
	u.undo(func(d *drainRecord) (bool, bool) { return d.round == rho, d.round == rho })
}

// undo removes the drain records settle reports done, newest first,
// and pushes each one it restores back to the front of its queue: the
// records are in pop order, so every queue ends in send order.
func (u *User) undo(settle func(*drainRecord) (done, restore bool)) {
	for i := len(u.drained) - 1; i >= 0; i-- {
		d := &u.drained[i]
		if done, restore := settle(d); done {
			if restore {
				d.p.outbox = slices.Insert(d.p.outbox, 0, d.body)
			}
			d.p = nil // marks the record for removal
		}
	}
	u.drained = slices.DeleteFunc(u.drained, func(d drainRecord) bool { return d.p == nil })
}

// laneJobs lays out the ℓ onions of one lane for the given round: the
// fresh messages (LaneCurrent) or the covers (LaneCover), each sealed
// for its mailbox and paired with its chain's parameters, ready to be
// wrapped. A cover conversation message carries KindOffline so each
// partner learns the sender went away if it is ever used.
func (u *User) laneJobs(round uint64, lane byte, src ParamsSource) ([]onion.WrapJob, error) {
	// The chain-layer nonce is always lane 0: every message processed
	// in round τ is mixed under RoundNonce(τ, 0) regardless of when
	// it was built. Only the mailbox layer is lane-separated.
	mailboxNonce := aead.RoundNonce(round, lane)
	chainNonce := aead.RoundNonce(round, LaneCurrent)

	chains := u.Chains()
	jobs := make([]onion.WrapJob, 0, len(chains))
	used := make(map[int]bool, len(u.partners)) // first occurrence of a chain carries its conversation
	for _, chain := range chains {
		params, err := src.ChainParams(chain, round)
		if err != nil {
			return nil, err
		}
		var msg []byte
		if partner, ok := u.partners[chain]; ok && !used[chain] {
			used[chain] = true
			msg, err = u.conversationMessage(round, partner, lane, mailboxNonce)
		} else {
			msg, err = u.loopbackMessage(chain, mailboxNonce)
		}
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, onion.WrapJob{
			InnerAgg:   params.InnerAggregate,
			MixKeys:    params.MixKeys,
			Round:      round,
			Chain:      chain,
			Nonce:      chainNonce,
			MailboxMsg: msg,
		})
	}
	return jobs, nil
}

// conversationMessage builds the message for one partner: a fresh
// body from that partner's outbox (possibly empty) for the current
// lane, or the KindOffline signal for the cover lane. A popped body
// is recorded in drained until its round is settled (see Settle).
func (u *User) conversationMessage(round uint64, partner *peer, lane byte, nonce [aead.NonceSize]byte) ([]byte, error) {
	key := kdf.ConversationKey(u.secret(partner), partner.key.Bytes())
	payload := onion.Payload{Kind: onion.KindConversation}
	if lane == LaneCover {
		payload.Kind = onion.KindOffline
	} else if q := partner.outbox; len(q) > 0 {
		payload.Body = q[0]
		q[0] = nil // the queue's array must not pin a sent body
		partner.outbox = q[1:]
		u.drained = append(u.drained, drainRecord{round: round, epoch: u.epoch, plan: u.plan, p: partner, body: payload.Body})
	}
	return onion.SealMailboxMessage(u.scheme, key, nonce, partner.key, payload)
}

// loopbackMessage builds a dummy message back to the user's own
// mailbox under the chain-specific loopback key (§5.3.2 step 1a).
func (u *User) loopbackMessage(chain int, nonce [aead.NonceSize]byte) ([]byte, error) {
	key := kdf.LoopbackKey(u.loopbackSecret, chain)
	return onion.SealMailboxMessage(u.scheme, key, nonce, u.identity.Public, onion.Payload{Kind: onion.KindLoopback})
}

// Received is one decrypted mailbox message.
type Received struct {
	Kind onion.Kind
	Body []byte
	// FromPartner reports the message decrypted under a current
	// conversation key rather than a loopback key; From identifies
	// the partner.
	FromPartner bool
	From        group.Point
	// FromFormerPartner reports a straggler from an already-ended
	// conversation (e.g. the former partner's banked covers).
	FromFormerPartner bool
}

// OpenMailbox decrypts the round's mailbox download. Messages are
// tried against every active partner's conversation key, the retained
// former partners' keys, and every chain-specific loopback key, in
// both lanes (a partner's cover is sealed in the cover lane).
// Undecryptable messages are counted; they indicate tampering or
// misdelivery and never happen in honest runs.
//
// A KindOffline message from a partner ends that conversation
// locally, mirroring §5.3.3: from the next round the user sends a
// loopback on that chain, so the pair's disappearance is
// unobservable.
func (u *User) OpenMailbox(rho uint64, msgs [][]byte) (received []Received, undecryptable int) {
	// Everything that does not depend on the message is derived once
	// per download: the inbound conversation keys and the loopback key
	// of every distinct chain this user sends on.
	own := u.Mailbox()
	keys := mailboxKeys{
		actives: make([]keyedPartner, 0, len(u.partners)),
		formers: make([]keyedPartner, 0, len(u.former)),
	}
	for _, p := range u.partners {
		keys.actives = append(keys.actives, keyedPartner{p.key, kdf.ConversationKey(u.secret(p), own)})
	}
	for _, p := range u.former {
		keys.formers = append(keys.formers, keyedPartner{p.key, kdf.ConversationKey(u.secret(p), own)})
	}
	for _, chain := range distinct(u.plan.ChainsForUser(own)) {
		keys.loopbacks = append(keys.loopbacks, kdf.LoopbackKey(u.loopbackSecret, chain))
	}

	var gone []group.Point
	for _, m := range msgs {
		r, ok := u.openOne(rho, m, &keys)
		if !ok {
			undecryptable++
			continue
		}
		if r.FromPartner && r.Kind == onion.KindOffline {
			gone = append(gone, r.From)
		}
		received = append(received, r)
	}
	for _, p := range gone {
		u.EndConversation(p)
	}
	return received, undecryptable
}

// keyedPartner pairs a partner with the derived inbound key.
type keyedPartner struct {
	p   group.Point
	key kdf.Key
}

// mailboxKeys is every key one mailbox download is tried against.
type mailboxKeys struct {
	actives, formers []keyedPartner
	loopbacks        []kdf.Key
}

func (u *User) openOne(rho uint64, m []byte, keys *mailboxKeys) (Received, bool) {
	for _, lane := range []byte{LaneCurrent, LaneCover} {
		nonce := aead.RoundNonce(rho, lane)
		for _, kp := range keys.actives {
			if p, err := onion.OpenMailboxMessage(u.scheme, kp.key, nonce, m); err == nil {
				return Received{Kind: p.Kind, Body: p.Body, FromPartner: true, From: kp.p}, true
			}
		}
		for _, kp := range keys.formers {
			if p, err := onion.OpenMailboxMessage(u.scheme, kp.key, nonce, m); err == nil {
				return Received{Kind: p.Kind, Body: p.Body, FromFormerPartner: true, From: kp.p}, true
			}
		}
		for _, key := range keys.loopbacks {
			if p, err := onion.OpenMailboxMessage(u.scheme, key, nonce, m); err == nil {
				return Received{Kind: p.Kind, Body: p.Body}, true
			}
		}
	}
	return Received{}, false
}

func distinct(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
