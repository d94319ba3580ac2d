package core

import (
	"fmt"
	"slices"

	"repro/internal/client"
)

// External users participate over the network transport
// (internal/rpc) rather than through the in-process registry. Their
// gateway shard stores their submissions per round and their covers
// for the following round, applying the same §5.3.3 churn rule: if an
// external user misses a round for which she pre-submitted covers,
// the covers run in her place exactly once.
//
// Submission window: round ρ is open from the moment it becomes the
// upcoming round until the coordinator's BeginRound folds external
// traffic into the chain batches (just after the build stage). From
// then until FinishRound advances the round counter — the mix and
// delivery phase — submissions for ρ are rejected with an explicit
// "already mixing" error; the client's move is to re-poll the round
// number and rebuild for the next round. If the round fails and will
// be retried, AbortRound reopens the window so consumed submissions
// can be resent.
//
// That window exists under a serial coordinator only. At pipeline depth
// 2 the coordinator begins round ρ+1 — which collects it — while ρ
// mixes, so from round 2 on the upcoming round is closed the moment it
// is announced and an external user is refused every time; the refusal
// says so (BeginRound.Pipelined, kept as Frontend.pipelined). Depth > 1
// is for gateway-hosted users until the window rule moves into a
// pipeline type (ROADMAP item 10); TestExternalSubmitWhilePipelined
// pins today's behaviour for that change to flip.

// externalUser is one remote user's banked traffic: an entry per
// accepted submission, in round order. A user holds one or two at a
// time — the upcoming round's, and the last collected one's covers.
type externalUser struct {
	subs []externalSub
}

// externalSub is what one submission banked: the messages for its
// round and the covers for the round after. A lane without messages
// is nil, and an entry with neither is dropped.
type externalSub struct {
	round          uint64
	current, cover []client.ChainMessage
}

// current returns the messages submitted for round r.
func (eu *externalUser) current(r uint64) []client.ChainMessage {
	for i := range eu.subs {
		if eu.subs[i].round == r {
			return eu.subs[i].current
		}
	}
	return nil
}

// cover returns the covers banked for round r, which the submission
// for round r−1 carried.
func (eu *externalUser) cover(r uint64) []client.ChainMessage {
	for i := range eu.subs {
		if eu.subs[i].round+1 == r {
			return eu.subs[i].cover
		}
	}
	return nil
}

// entry returns round r's entry, inserting an empty one in round order
// if there is none.
func (eu *externalUser) entry(r uint64) *externalSub {
	i := 0
	for i < len(eu.subs) && eu.subs[i].round < r {
		i++
	}
	if i == len(eu.subs) || eu.subs[i].round != r {
		eu.subs = slices.Insert(eu.subs, i, externalSub{round: r})
	}
	return &eu.subs[i]
}

// dropThrough drops the traffic for rounds up to and including rho,
// and the entries left empty, and reports whether any traffic is left.
func (eu *externalUser) dropThrough(rho uint64) bool {
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
func (f *Frontend) SubmitExternal(mailbox string, out *client.RoundOutput) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch open := f.round > f.collected; {
	case out.Round == f.round && open:
	case f.pipelined:
		return fmt.Errorf("core: submission for round %d refused: the coordinator pipelines rounds (-pipeline 2 collects round %d while round %d mixes), "+
			"which leaves external users no submission window; pipeline depth > 1 is for gateway-hosted users", out.Round, f.collected, f.collected-1)
	case open:
		return fmt.Errorf("core: submission for round %d but round %d is open", out.Round, f.round)
	default:
		return fmt.Errorf("core: submission for round %d: round %d is already mixing; submissions are closed", out.Round, f.round)
	}
	if len(out.Current) == 0 {
		return fmt.Errorf("core: submission carries no messages for round %d", out.Round)
	}
	if eu := f.externals[mailbox]; eu != nil && len(eu.current(out.Round)) > 0 {
		return fmt.Errorf("core: duplicate submission for round %d", out.Round)
	}
	if err := f.applySubmitLocked(mailbox, out); err != nil {
		return err
	}
	// Durability point: the accepted submission is logged and synced
	// BEFORE the client sees success, so an accepted-but-unmixed
	// message survives a crash — the restarted shard replays it into
	// the same round's batch. A submission that cannot be logged is
	// refused and leaves no trace.
	err := f.st.Append(opSubmit, encodeSubmit(mailbox, out))
	if err == nil {
		err = f.st.Sync()
	}
	if err != nil {
		eu := f.externals[mailbox]
		eu.subs = slices.DeleteFunc(eu.subs, func(s externalSub) bool { return s.round == out.Round })
		if len(eu.subs) == 0 {
			delete(f.externals, mailbox)
		}
		return fmt.Errorf("core: persisting submission: %w", err)
	}
	return nil
}

// collectExternalsLocked merges external users' traffic into the
// round's batches and closes the round for further submissions; must
// be called with f.mu held. Returns the number of external users
// covered by their pre-submitted covers.
func (f *Frontend) collectExternalsLocked(rho uint64, batches []ChainBatch) int {
	if rho > f.collected {
		f.collected = rho
	}
	covered := 0
	for who, eu := range f.externals {
		msgs := eu.current(rho)
		if len(msgs) == 0 {
			if msgs = eu.cover(rho); len(msgs) > 0 {
				covered++
			}
		}
		for _, cm := range msgs {
			batches[cm.Chain].add(cm.Sub, who)
		}
	}
	f.dropExternalsThroughLocked(rho)
	return covered
}

// dropExternalsThroughLocked drops external traffic for rounds up to
// and including rho — state that can no longer be used — and users
// left with none. Callers hold f.mu.
func (f *Frontend) dropExternalsThroughLocked(rho uint64) {
	for who, eu := range f.externals {
		if !eu.dropThrough(rho) {
			delete(f.externals, who)
		}
	}
}
