package core

import (
	"testing"

	"repro/internal/obs"
)

// roundCounterSnapshot reads every counter recordRoundReport feeds.
// The obs.Default registry is process-global, so parity is asserted
// on before/after deltas rather than absolute values — other tests
// in this package run rounds too.
func roundCounterSnapshot() map[string]uint64 {
	return map[string]uint64{
		"rounds":          obsRounds.Value(),
		"delivered":       obsDelivered.Value(),
		"dropped_inner":   obsDroppedInner.Value(),
		"mailbox_dropped": obsMailboxDropped.Value(),
		"deduped":         obsDeduped.Value(),
		"lost_deliveries": obsLostDeliveries.Value(),
		"stranded":        obsStranded.Value(),
		"halted_chains":   obsHaltedChains.Value(),
		"blame_rounds":    obsBlameRounds.Value(),
		"offline_covered": obsOfflineCovered.Value(),
	}
}

// TestRoundReportMetricsParity runs one round with real deliveries
// and asserts the exported counters moved by exactly the values the
// RoundReport carries — the report and /metrics must never disagree
// about what a round did.
func TestRoundReportMetricsParity(t *testing.T) {
	n, fe := testNetwork(t, 6, 3)
	alice, bob := fe.NewUser(), fe.NewUser()
	for i := 0; i < 3; i++ {
		fe.NewUser()
	}
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	if err := alice.QueueMessage([]byte("parity check")); err != nil {
		t.Fatal(err)
	}

	before := roundCounterSnapshot()
	roundsBefore := obs.GetOrCreateHistogram("xrd_round_seconds").Count()
	rep := runRound(t, n)
	after := roundCounterSnapshot()

	if rep.Delivered == 0 {
		t.Fatal("round delivered nothing; parity check would be vacuous")
	}
	want := map[string]uint64{
		"rounds":          1,
		"delivered":       uint64(rep.Delivered),
		"dropped_inner":   uint64(rep.DroppedInner),
		"mailbox_dropped": uint64(rep.MailboxDropped),
		"deduped":         uint64(rep.DedupedSubmissions),
		"lost_deliveries": uint64(rep.LostDeliveries),
		"stranded":        uint64(len(rep.Stranded)),
		"halted_chains":   uint64(len(rep.HaltedChains)),
		"blame_rounds":    uint64(rep.BlameRounds),
		"offline_covered": uint64(rep.OfflineCovered),
	}
	for name, w := range want {
		if got := after[name] - before[name]; got != w {
			t.Errorf("counter %s moved by %d, report says %d", name, got, w)
		}
	}
	if got := obs.GetOrCreateHistogram("xrd_round_seconds").Count() - roundsBefore; got != 1 {
		t.Errorf("xrd_round_seconds observed %d rounds, want 1", got)
	}
}
