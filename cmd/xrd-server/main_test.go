package main

import "testing"

// TestPruneHorizon: the horizon never reaches the round that was just
// delivered, least of all in the first rounds, where round − 4
// underflows.
func TestPruneHorizon(t *testing.T) {
	for round, want := range map[uint64]uint64{1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 2, 1000: 996} {
		if got := pruneHorizon(round); got != want {
			t.Errorf("after round %d the monolith prunes before round %d, want %d", round, got, want)
		}
	}
}
