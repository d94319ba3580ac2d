package kdf

import (
	"bytes"
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestKeyScheduleKnownAnswers pins the four labelled derivations to
// vectors computed with the hand-rolled HKDF this package carried
// before it moved onto crypto/hkdf: every deployed key depends on
// them, so the schedule must not move.
func TestKeyScheduleKnownAnswers(t *testing.T) {
	var s [32]byte
	copy(s[:], "xrd-kdf-known-answer-secret-0001")
	for _, tc := range []struct {
		name string
		got  Key
		want string
	}{
		{"conversation", ConversationKey(s, []byte("recipient-public-key")), "6f6a2743f9cddfc2659d2821021b2a2bf95ad2838f06452b72080806aba6369c"},
		{"loopback", LoopbackKey(s, 7), "1725f1e91f907a7a95919694f1d1952aadde13fccdf12b2668c3926b917dd06a"},
		{"onion", OnionKey(s), "2931236222613e2729a0afb241cce35fdd17ac3390f4d3e4f3ae81cef117b38d"},
		{"inner", InnerKey(s), "8884584fbd45e1af6c39d7486b3a36d46a48f7d048550a73242d7105e0f3968a"},
	} {
		if got := hex.EncodeToString(tc.got[:]); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestConversationKeyDirectionality(t *testing.T) {
	var shared [32]byte
	copy(shared[:], []byte("shared-secret-between-alice-bob!"))
	toBob := ConversationKey(shared, []byte("pk-bob"))
	toAlice := ConversationKey(shared, []byte("pk-alice"))
	if toBob == toAlice {
		t.Fatal("directional conversation keys collide")
	}
	again := ConversationKey(shared, []byte("pk-bob"))
	if toBob != again {
		t.Fatal("conversation key derivation is not deterministic")
	}
}

func TestLoopbackKeyPerChain(t *testing.T) {
	var secret [32]byte
	secret[0] = 1
	k1 := LoopbackKey(secret, 1)
	k2 := LoopbackKey(secret, 2)
	if k1 == k2 {
		t.Fatal("loopback keys for different chains collide")
	}
	var other [32]byte
	other[0] = 2
	if LoopbackKey(other, 1) == k1 {
		t.Fatal("loopback keys for different users collide")
	}
}

func TestDomainSeparationAcrossKeyTypes(t *testing.T) {
	var s [32]byte
	copy(s[:], []byte("identical-input-secret-material!"))
	onion := OnionKey(s)
	inner := InnerKey(s)
	conv := ConversationKey(s, nil)
	if onion == inner || onion == conv || inner == conv {
		t.Fatal("key schedule domains are not separated")
	}
}

func BenchmarkDerive32(b *testing.B) {
	var secret [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OnionKey(secret)
	}
}

// TestDeriveKeyMatchesHKDF checks the single-block fast path and the
// crypto/hkdf path it hands longer inputs to against crypto/hkdf itself,
// on both sides of each limit: secrets of 0, 32, 64 and 65 bytes, info
// of 0, 62, 63 (the last that fits beside the block counter), 64 and 200
// bytes.
func TestDeriveKeyMatchesHKDF(t *testing.T) {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	for _, secretLen := range []int{0, 32, 64, 65} {
		for _, ctxLen := range []int{-1, 0, 50, 51, 52, 188} { // info = "12345678" + 4 + ctxLen
			secret := fill(secretLen, 0xA5)
			info := []byte("12345678")
			var context [][]byte
			if ctxLen >= 0 {
				c := fill(ctxLen, 0x3C)
				context = append(context, c)
				info = binary.BigEndian.AppendUint32(info, uint32(ctxLen))
				info = append(info, c...)
			}
			want, err := hkdf.Key(sha256.New, secret, salt, string(info), KeySize)
			if err != nil {
				t.Fatal(err)
			}
			if got := deriveKey(secret, "12345678", context...); !bytes.Equal(got[:], want) {
				t.Errorf("secret %d B, info %d B: deriveKey = %x, crypto/hkdf = %x", secretLen, len(info), got, want)
			}
		}
	}
}

// TestDerivationsDoNotAllocate pins the reason the fast path exists:
// every derivation the protocol makes stays on the stack.
func TestDerivationsDoNotAllocate(t *testing.T) {
	var s [32]byte
	pk := make([]byte, 33)
	var sink Key
	if n := testing.AllocsPerRun(100, func() {
		sink = OnionKey(s)
		sink = InnerKey(s)
		sink = LoopbackKey(s, 7)
		sink = ConversationKey(s, pk)
	}); n != 0 {
		t.Fatalf("four derivations allocate %v times, want 0", n)
	}
	_ = sink
}
