package faults

import "testing"

// TestAfterCountOverlap pins the gate composition: after=N skips the
// first N matched operations, count=M bounds firings, so the rule
// fires on exactly operations N+1 .. N+M.
func TestAfterCountOverlap(t *testing.T) {
	r := &Rule{Op: Drop, After: 2, Count: 2}
	in := New(7, r)
	var fired []int
	for op := 1; op <= 6; op++ {
		if in.decide("any") != nil {
			fired = append(fired, op)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("after=2,count=2 fired on ops %v, want [3 4]", fired)
	}
	if got := r.Fired(); got != 2 {
		t.Fatalf("Fired() = %d, want 2", got)
	}
}

// TestAfterZeroCountZero: no gates means every matched operation
// fires — the degenerate overlap.
func TestAfterZeroCountZero(t *testing.T) {
	in := New(7, &Rule{Op: Drop})
	for op := 1; op <= 4; op++ {
		if in.decide("any") == nil {
			t.Fatalf("ungated rule skipped op %d", op)
		}
	}
}
