package rpc

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/onion"
)

// TestDedupFetched: a message fetched again within dedupWindow rounds
// is suppressed, one whose digest is older than the window comes back,
// and the set holds no digest past the window.
func TestDedupFetched(t *testing.T) {
	m := &MultiClient{seen: make(map[uint64]map[fetchDigest]struct{})}
	a, b := []byte("a"), []byte("b")
	steps := []struct {
		round uint64
		msgs  [][]byte
		want  int
	}{
		{1, [][]byte{a, b}, 2},
		{1, [][]byte{a}, 0},
		{2, [][]byte{b}, 0},
		{dedupWindow, [][]byte{a, b}, 0},
		{1 + dedupWindow, [][]byte{a}, 0}, // suppressed, then round 1's digests go
		{1 + dedupWindow, [][]byte{a, b}, 2},
		{1 + dedupWindow, [][]byte{a, b}, 0},
	}
	for i, s := range steps {
		if got := m.dedupFetched(s.round, s.msgs); len(got) != s.want {
			t.Fatalf("step %d (round %d): %d messages returned, want %d", i, s.round, len(got), s.want)
		}
	}
	m.dedupFetched(2*dedupWindow+1, [][]byte{[]byte("c")})
	if len(m.seen) != 1 {
		t.Fatalf("%d digests held after the window passed, want 1", len(m.seen))
	}
}

// BenchmarkDedupFetched is one fetch of ℓ = 2 already-seen messages by
// a client holding a full window: dedupWindow rounds of perRound
// digests each, filled round by round as fetches fill it. ≈ 6 000 a
// round is what one MultiClient of the wire-durable workload records,
// so its full window is held = dedupWindow × 6 000 ≈ 48 000. Its ns/op
// should not grow with held.
func BenchmarkDedupFetched(b *testing.B) {
	for _, perRound := range []int{125, 6_000} {
		held := dedupWindow * perRound
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			const round = 10
			m := &MultiClient{seen: make(map[uint64]map[fetchDigest]struct{})}
			msg := func(i int) []byte {
				buf := make([]byte, onion.MailboxMessageSize)
				binary.LittleEndian.PutUint64(buf, uint64(i))
				return buf
			}
			for w := 0; w < dedupWindow; w++ {
				batch := make([][]byte, perRound)
				for j := range batch {
					batch[j] = msg(w*perRound + j)
				}
				m.dedupFetched(round-dedupWindow+1+uint64(w), batch)
			}
			total := 0
			for _, set := range m.seen {
				total += len(set)
			}
			if len(m.seen) != dedupWindow || total != held {
				b.Fatalf("%d rounds holding %d digests, want %d holding %d", len(m.seen), total, dedupWindow, held)
			}
			msgs := [][]byte{msg(0), msg(1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := m.dedupFetched(round, msgs); len(got) != 0 {
					b.Fatalf("%d already-seen messages returned", len(got))
				}
			}
		})
	}
}
