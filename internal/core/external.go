package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/internal/client"
)

// The bank: every user's round traffic, as the gateway shard holds it
// between submission and the round's commit. A remote user deposits
// through SubmitExternal, over the network transport (internal/rpc);
// an in-process user's round output is deposited by BeginRound's
// build. Both take the same apply step (applySubmitLocked), and one
// collect step folds every user's traffic into the round's batches,
// applying the §5.3.3 churn rule alike: a user who misses a round for
// which she pre-submitted covers has the covers run in her place.
// Only remote users' deposits are logged and imaged; in-process users
// hold live key material and are not persisted (durability.go).
//
// A round's traffic stays banked until that round commits at
// FinishRound's watermark, so a round begun again after a failure
// finds every user's traffic again: a remote user's accepted
// submission runs in the retry without being resent, and an
// in-process user who has a bank entry for the round is not rebuilt
// (her outbox drained at the first build).
//
// Submission window: round ρ is open from the moment it becomes the
// upcoming round until the coordinator's BeginRound collects it. From
// then until FinishRound advances the round counter — the mix and
// delivery phase, and any retry of the round — submissions for ρ are
// rejected with an explicit "already mixing" error; the client's move
// is to re-poll the round number and rebuild for the next round. A
// re-formation closes the upcoming round's window early (recover.go):
// what a client built for it is on the old keys.

// bankedUser is one user's banked traffic: an entry per deposit, in
// round order. A user holds one or two at a time — the upcoming
// round's, and the last committed one's covers.
type bankedUser struct {
	subs []bankedSub
}

// bankedSub is what one deposit banked: the messages for its round
// and the covers for the round after. A lane without messages is nil,
// and an entry with neither is dropped.
type bankedSub struct {
	round          uint64
	current, cover []client.ChainMessage
}

// current returns the messages submitted for round r.
func (eu *bankedUser) current(r uint64) []client.ChainMessage {
	for i := range eu.subs {
		if eu.subs[i].round == r {
			return eu.subs[i].current
		}
	}
	return nil
}

// cover returns the covers banked for round r, which the submission
// for round r−1 carried.
func (eu *bankedUser) cover(r uint64) []client.ChainMessage {
	for i := range eu.subs {
		if eu.subs[i].round+1 == r {
			return eu.subs[i].cover
		}
	}
	return nil
}

// holds reports whether out's lanes are the ones banked for its round.
func (eu *bankedUser) holds(out *client.RoundOutput) bool {
	i := slices.IndexFunc(eu.subs, func(s bankedSub) bool { return s.round == out.Round })
	return i >= 0 &&
		bytes.Equal(appendChainMessages(nil, eu.subs[i].current), appendChainMessages(nil, out.Current)) &&
		bytes.Equal(appendChainMessages(nil, eu.subs[i].cover), appendChainMessages(nil, out.Cover))
}

// entry returns round r's entry, inserting an empty one in round order
// if there is none.
func (eu *bankedUser) entry(r uint64) *bankedSub {
	i := 0
	for i < len(eu.subs) && eu.subs[i].round < r {
		i++
	}
	if i == len(eu.subs) || eu.subs[i].round != r {
		eu.subs = slices.Insert(eu.subs, i, bankedSub{round: r})
	}
	return &eu.subs[i]
}

// dropThrough drops the traffic for rounds up to and including rho,
// and the entries left empty, and reports whether any traffic is left.
func (eu *bankedUser) dropThrough(rho uint64) bool {
	kept := eu.subs[:0]
	for _, s := range eu.subs {
		if s.round <= rho {
			s.current = nil
		}
		if s.round < rho { // its covers are for round s.round+1
			s.cover = nil
		}
		if len(s.current)+len(s.cover) > 0 {
			kept = append(kept, s)
		}
	}
	clear(eu.subs[len(kept):])
	eu.subs = kept
	return len(kept) > 0
}

// SubmitExternal queues a remote user's round output. current must
// target the upcoming round; covers are stored for the round after.
// Ownership is deliberately not enforced: any gateway accepts any
// user's submission (the batches are global), which is what lets a
// client fail over to another gateway when its own is briefly
// unreachable.
//
// A resubmission of what is already banked for its round is acked
// again, window open or not, and logs nothing: it is the client's retry
// after a lost reply, and refusing it would make the client send the
// banked body a second time. A different submission for that round is
// refused. A retry that arrives after its round committed, and its bank
// entry with it, is acked the same way, by the SHA-256 of the WAL
// record its first copy was accepted with, which names the user and the
// round (Frontend.accepted): kept until the round after it commits,
// emptied by a re-formation, and never logged, so a restarted shard
// refuses such a retry.
func (f *Frontend) SubmitExternal(mailbox string, out *client.RoundOutput) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if eu := f.bank[mailbox]; eu != nil && len(eu.current(out.Round)) > 0 {
		if eu.holds(out) {
			return nil
		}
		return fmt.Errorf("core: duplicate submission for round %d", out.Round)
	}
	if out.Round < f.round && !f.banned[mailbox] &&
		slices.Contains(f.accepted[out.Round], sha256.Sum256(encodeSubmit(mailbox, out))) {
		return nil
	}
	switch open := f.round > f.collected; {
	case out.Round == f.round && open:
	case open:
		return fmt.Errorf("core: submission for round %d but round %d is open", out.Round, f.round)
	default:
		return fmt.Errorf("core: submission for round %d: round %d is already mixing; submissions are closed", out.Round, f.round)
	}
	if len(out.Current) == 0 {
		return fmt.Errorf("core: submission carries no messages for round %d", out.Round)
	}
	if err := f.applySubmitLocked(mailbox, out); err != nil {
		return err
	}
	// Durability point: the accepted submission is logged and synced
	// BEFORE the client sees success, so an accepted-but-unmixed
	// message survives a crash — the restarted shard replays it into
	// the same round's batch. A submission that cannot be logged is
	// refused and leaves no trace.
	rec := encodeSubmit(mailbox, out)
	err := f.st.Append(opSubmit, rec)
	if err == nil {
		err = f.st.Sync()
	}
	if err != nil {
		eu := f.bank[mailbox]
		eu.subs = slices.DeleteFunc(eu.subs, func(s bankedSub) bool { return s.round == out.Round })
		if len(eu.subs) == 0 {
			delete(f.bank, mailbox)
		}
		return fmt.Errorf("core: persisting submission: %w", err)
	}
	f.accepted[out.Round] = append(f.accepted[out.Round], sha256.Sum256(rec))
	return nil
}

// collectLocked folds round rho's banked traffic into per-chain
// batches and closes the round for further submissions: each user's
// messages for rho or, failing those, the covers she banked for it.
// A user with a dead chain in params among her ℓ is held out, covers
// included: the wire pattern needs all ℓ messages, and a cover spent on
// a dead chain is her one §5.3.3 cover round lost. A held user with
// messages for rho is listed in Skipped, as is every remote user whose
// messages for rho a re-formation dropped (recover.go). Nothing is
// dropped here: the traffic stays banked until the round commits.
// Callers hold f.mu.
func (f *Frontend) collectLocked(rho uint64, params *RoundParams) *ShardBuild {
	f.collected = max(f.collected, rho)
	build := &ShardBuild{Batches: make([]ChainBatch, params.NumChains())}
	for who, eu := range f.bank {
		msgs := eu.current(rho)
		if len(params.Dead) > 0 && slices.ContainsFunc(f.plan.ChainsForUser([]byte(who)), params.dead) {
			if len(msgs) > 0 {
				build.Skipped = append(build.Skipped, who)
			}
			continue
		}
		if len(msgs) == 0 {
			if msgs = eu.cover(rho); len(msgs) > 0 {
				build.Covered++
				// An in-process user's conversation ended with the
				// covers' offline signal (SetOnline).
				f.reg.update(who, func(ru *registeredUser) { ru.coversUsed = true })
			}
		}
		for _, cm := range msgs {
			build.Batches[cm.Chain].add(cm.Sub, who)
		}
	}
	for who, r := range f.dropped {
		if r == rho {
			build.Skipped = append(build.Skipped, who)
		}
	}
	return build
}

// dropBankThroughLocked drops the traffic for rounds up to and
// including rho — committed, so nothing resubmits it — and users left
// with none. Callers hold f.mu.
func (f *Frontend) dropBankThroughLocked(rho uint64) {
	for who, eu := range f.bank {
		if !eu.dropThrough(rho) {
			delete(f.bank, who)
		}
	}
}
