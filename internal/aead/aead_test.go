package aead

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestRFC8439AEADVector checks the full AEAD test vector from RFC 8439
// §2.8.2, restricted to empty AAD by re-deriving the expected tag: the
// RFC vector uses AAD, so here we check the ciphertext body (which is
// AAD-independent) and round-trip; the ciphertext body bytes are the
// published ones.
func TestRFC8439AEADCiphertextBody(t *testing.T) {
	key, _ := hex.DecodeString("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
	nonce, _ := hex.DecodeString("070000004041424344454647")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you " +
		"only one tip for the future, sunscreen would be it.")
	wantBody, _ := hex.DecodeString(
		"d31a8d34648e60db7b86afbc53ef7ec2" +
			"a4aded51296e08fea9e2b5a736ee62d6" +
			"3dbea45e8ca9671282fafb69da92728b" +
			"1a71de0a9e060b2905d6a5b67ecd3b36" +
			"92ddbd7f2d778b8c9803aee328091b58" +
			"fab324e4fad675945585808b4831d7bc" +
			"3ff4def08e4b7a9de576d26586cec64b" +
			"6116")

	var k [KeySize]byte
	var n [NonceSize]byte
	copy(k[:], key)
	copy(n[:], nonce)

	s := ChaCha20Poly1305()
	ct := s.Seal(nil, &k, &n, plaintext)
	if len(ct) != len(plaintext)+Overhead {
		t.Fatalf("ciphertext length = %d, want %d", len(ct), len(plaintext)+Overhead)
	}
	if !bytes.Equal(ct[:len(ct)-Overhead], wantBody) {
		t.Fatalf("ciphertext body mismatch\n got %x\nwant %x", ct[:len(ct)-Overhead], wantBody)
	}
	pt, err := s.Open(nil, &k, &n, ct)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(pt, plaintext) {
		t.Fatal("round trip failed")
	}
}

func schemes() []Scheme {
	return []Scheme{ChaCha20Poly1305(), AESGCM()}
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			var k [KeySize]byte
			var n [NonceSize]byte
			if _, err := rand.Read(k[:]); err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, 16, 255, 256, 1024} {
				msg := make([]byte, size)
				if _, err := rand.Read(msg); err != nil {
					t.Fatal(err)
				}
				ct := s.Seal(nil, &k, &n, msg)
				pt, err := s.Open(nil, &k, &n, ct)
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if !bytes.Equal(pt, msg) {
					t.Fatalf("size %d: plaintext mismatch", size)
				}
			}
		})
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			var k [KeySize]byte
			var n [NonceSize]byte
			if _, err := rand.Read(k[:]); err != nil {
				t.Fatal(err)
			}
			msg := []byte("a fixed-size XRD message body, 256 bytes in the real system")
			ct := s.Seal(nil, &k, &n, msg)
			for i := 0; i < len(ct); i += 7 {
				bad := append([]byte(nil), ct...)
				bad[i] ^= 0x40
				if _, err := s.Open(nil, &k, &n, bad); err == nil {
					t.Fatalf("tampered ciphertext byte %d accepted", i)
				}
			}
		})
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	// Property (2) from §3.1: a ciphertext must not authenticate under
	// a second key.
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			var k1, k2 [KeySize]byte
			var n [NonceSize]byte
			if _, err := rand.Read(k1[:]); err != nil {
				t.Fatal(err)
			}
			if _, err := rand.Read(k2[:]); err != nil {
				t.Fatal(err)
			}
			ct := s.Seal(nil, &k1, &n, []byte("for key one only"))
			if _, err := s.Open(nil, &k2, &n, ct); err == nil {
				t.Fatal("ciphertext authenticated under a second key")
			}
		})
	}
}

func TestOpenRejectsWrongNonce(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			var k [KeySize]byte
			if _, err := rand.Read(k[:]); err != nil {
				t.Fatal(err)
			}
			n1 := RoundNonce(7, 0)
			n2 := RoundNonce(8, 0)
			ct := s.Seal(nil, &k, &n1, []byte("round-bound message"))
			if _, err := s.Open(nil, &k, &n2, ct); err == nil {
				t.Fatal("replay into another round accepted")
			}
		})
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			var k [KeySize]byte
			var n [NonceSize]byte
			ct := s.Seal(nil, &k, &n, []byte("body"))
			for cut := 1; cut <= len(ct); cut++ {
				if _, err := s.Open(nil, &k, &n, ct[:len(ct)-cut]); err == nil {
					t.Fatalf("truncated ciphertext (-%d) accepted", cut)
				}
			}
		})
	}
}

func TestSealAppendsToDst(t *testing.T) {
	var k [KeySize]byte
	var n [NonceSize]byte
	s := ChaCha20Poly1305()
	prefix := []byte("prefix")
	out := s.Seal(append([]byte(nil), prefix...), &k, &n, []byte("msg"))
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("Seal did not append to dst")
	}
	pt, err := s.Open(nil, &k, &n, out[len(prefix):])
	if err != nil || !bytes.Equal(pt, []byte("msg")) {
		t.Fatalf("Open after append: %v", err)
	}
}

// TestSealInPlace pins the aliasing the onion builder relies on: for
// both schemes Seal(pt[:0], …, pt) gives the bytes Seal(nil, …, pt)
// gives, in pt's own array when its capacity holds the tag and in a
// grown one when it does not.
func TestSealInPlace(t *testing.T) {
	for _, s := range schemes() {
		t.Run(s.Name(), func(t *testing.T) {
			var k [KeySize]byte
			var n [NonceSize]byte
			if _, err := rand.Read(k[:]); err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 1, 16, 255, 387} {
				msg := make([]byte, size)
				if _, err := rand.Read(msg); err != nil {
					t.Fatal(err)
				}
				want := s.Seal(nil, &k, &n, msg)
				for _, spare := range []int{0, Overhead, 3 * Overhead} {
					buf := append(make([]byte, 0, size+spare), msg...)
					got := s.Seal(buf[:0], &k, &n, buf)
					if !bytes.Equal(got, want) {
						t.Fatalf("size %d, spare %d: in-place ciphertext differs", size, spare)
					}
					if inPlace := size > 0 && &got[0] == &buf[0]; inPlace != (spare >= Overhead && size > 0) {
						t.Fatalf("size %d, spare %d: sealed in place = %v", size, spare, inPlace)
					}
				}
			}
		})
	}
}

func TestRoundNonceUniqueness(t *testing.T) {
	seen := make(map[[NonceSize]byte]bool)
	for rho := uint64(0); rho < 100; rho++ {
		for lane := byte(0); lane < 2; lane++ {
			n := RoundNonce(rho, lane)
			if seen[n] {
				t.Fatalf("nonce collision at round %d lane %d", rho, lane)
			}
			seen[n] = true
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	s := ChaCha20Poly1305()
	f := func(key [KeySize]byte, rho uint64, msg []byte) bool {
		n := RoundNonce(rho, 1)
		ct := s.Seal(nil, &key, &n, msg)
		pt, err := s.Open(nil, &key, &n, ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemesInteroperabilityIsolation(t *testing.T) {
	// A ciphertext from one scheme must not open under the other.
	var k [KeySize]byte
	var n [NonceSize]byte
	ct := ChaCha20Poly1305().Seal(nil, &k, &n, []byte("scheme-bound"))
	if _, err := AESGCM().Open(nil, &k, &n, ct); err == nil {
		t.Fatal("cross-scheme open succeeded")
	}
}

func BenchmarkSeal256(b *testing.B) {
	for _, s := range schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			var k [KeySize]byte
			var n [NonceSize]byte
			msg := make([]byte, 256)
			buf := make([]byte, 0, 256+Overhead)
			b.SetBytes(256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Seal(buf[:0], &k, &n, msg)
			}
		})
	}
}

func BenchmarkOpen256(b *testing.B) {
	for _, s := range schemes() {
		b.Run(s.Name(), func(b *testing.B) {
			var k [KeySize]byte
			var n [NonceSize]byte
			ct := s.Seal(nil, &k, &n, make([]byte, 256))
			buf := make([]byte, 0, 256)
			b.SetBytes(256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Open(buf[:0], &k, &n, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
