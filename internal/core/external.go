package core

import (
	"fmt"

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

type externalUser struct {
	current map[uint64][]client.ChainMessage
	cover   map[uint64][]client.ChainMessage
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
	if eu := f.externals[mailbox]; eu != nil {
		if _, dup := eu.current[out.Round]; dup {
			return fmt.Errorf("core: duplicate submission for round %d", out.Round)
		}
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
		delete(eu.current, out.Round)
		delete(eu.cover, out.Round+1)
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
		msgs, ok := eu.current[rho]
		if !ok {
			if msgs, ok = eu.cover[rho]; ok {
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
		for _, lane := range []map[uint64][]client.ChainMessage{eu.current, eu.cover} {
			for r := range lane {
				if r <= rho {
					delete(lane, r)
				}
			}
		}
		if len(eu.current)+len(eu.cover) == 0 {
			delete(f.externals, who)
		}
	}
}
