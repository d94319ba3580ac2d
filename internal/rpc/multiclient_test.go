package rpc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/onion"
)

// TestDedupFetched: a message fetched again within dedupWindow rounds
// is suppressed, one whose digest is older than the window comes back,
// and the set holds no digest past the window.
func TestDedupFetched(t *testing.T) {
	m := &MultiClient{seen: make(map[[sha256.Size]byte]uint64)}
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
// a client holding `held` digests of the round — ≈ 16 000 is what one
// MultiClient of the wire-durable workload holds. Its ns/op should not
// grow with held.
func BenchmarkDedupFetched(b *testing.B) {
	for _, held := range []int{1_000, 16_000} {
		b.Run(fmt.Sprintf("held=%d", held), func(b *testing.B) {
			const round = 10
			m := &MultiClient{seen: make(map[[sha256.Size]byte]uint64)}
			msg := func(i int) []byte {
				buf := make([]byte, onion.MailboxMessageSize)
				binary.LittleEndian.PutUint64(buf, uint64(i))
				return buf
			}
			for i := 0; i < held; i++ {
				m.dedupFetched(round, [][]byte{msg(i)})
			}
			msgs := [][]byte{msg(0), msg(1)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.dedupFetched(round, msgs)
			}
		})
	}
}
