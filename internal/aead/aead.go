// Package aead provides the authenticated encryption scheme XRD
// relies on (§3.1): AEnc(s, nonce, m) and ADec(s, nonce, c).
//
// The default scheme is ChaCha20-Poly1305 (RFC 8439), the same
// construction NaCl used in the original prototype (§7), built from
// this repository's from-scratch internal/chacha20 and
// internal/poly1305. An AES-256-GCM scheme backed by the standard
// library is provided for the ablation benchmarks.
//
// XRD's security argument needs two properties of the AEAD (§3.1):
// (1) a correctly authenticating ciphertext cannot be produced without
// the key, and (2) the same ciphertext does not authenticate under two
// different keys except with negligible probability. Both schemes have
// (1). Property (2) is open: ChaCha20-Poly1305 and AES-GCM as
// standardised are not key-committing, and one who picks both keys can
// build a ciphertext that opens under each. Blame opens accused
// ciphertexts with revealed keys, so whether the onion's key
// derivation rules that forgery out here is unsettled (ROADMAP item 4).
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chacha20"
	"repro/internal/poly1305"
)

const (
	// KeySize is the symmetric key length.
	KeySize = 32
	// NonceSize is the nonce length.
	NonceSize = 12
	// Overhead is the ciphertext expansion (the Poly1305/GCM tag).
	Overhead = 16
)

// ErrAuth is returned when a ciphertext fails authentication. The mix
// servers translate it into the blame protocol (§6.4).
var ErrAuth = errors.New("aead: message authentication failed")

// Scheme is an authenticated encryption scheme with the XRD interface.
// Implementations must be safe for concurrent use.
type Scheme interface {
	// Seal encrypts and authenticates plaintext, appending the result
	// to dst. It implements the paper's AEnc(s, nonce, m). dst may be
	// plaintext[:0] — sealing in place, which is how an onion's layers
	// share one buffer — and must otherwise not overlap plaintext.
	Seal(dst []byte, key *[KeySize]byte, nonce *[NonceSize]byte, plaintext []byte) []byte
	// Open authenticates and decrypts ciphertext, appending the
	// plaintext to dst. It implements ADec(s, nonce, c), returning
	// ErrAuth when b=0 in the paper's notation.
	Open(dst []byte, key *[KeySize]byte, nonce *[NonceSize]byte, ciphertext []byte) ([]byte, error)
	// Name identifies the scheme in logs and benchmarks.
	Name() string
}

// ChaCha20Poly1305 returns the default scheme used throughout XRD.
func ChaCha20Poly1305() Scheme { return chachaScheme{} }

// AESGCM returns an AES-256-GCM scheme used by the AEAD ablation
// benchmark.
func AESGCM() Scheme { return gcmScheme{} }

type chachaScheme struct{}

func (chachaScheme) Name() string { return "chacha20poly1305" }

func (chachaScheme) Seal(dst []byte, key *[KeySize]byte, nonce *[NonceSize]byte, plaintext []byte) []byte {
	otk := oneTimeKey(key, nonce)
	off := len(dst)
	dst = append(dst, plaintext...)
	ct := dst[off:]
	if err := chacha20.XORKeyStream(ct, ct, key[:], nonce[:], 1); err != nil {
		panic(fmt.Sprintf("aead: internal key size invariant broken: %v", err))
	}
	tag := computeTag(&otk, ct)
	return append(dst, tag[:]...)
}

func (chachaScheme) Open(dst []byte, key *[KeySize]byte, nonce *[NonceSize]byte, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrAuth
	}
	body := ciphertext[:len(ciphertext)-Overhead]
	tag := ciphertext[len(ciphertext)-Overhead:]
	otk := oneTimeKey(key, nonce)
	want := computeTag(&otk, body)
	if !tagEqual(tag, want[:]) {
		return nil, ErrAuth
	}
	off := len(dst)
	dst = append(dst, body...)
	pt := dst[off:]
	if err := chacha20.XORKeyStream(pt, pt, key[:], nonce[:], 1); err != nil {
		panic(fmt.Sprintf("aead: internal key size invariant broken: %v", err))
	}
	return dst, nil
}

func tagEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var acc byte
	for i := range a {
		acc |= a[i] ^ b[i]
	}
	return acc == 0
}

// oneTimeKey derives the per-(key,nonce) Poly1305 key from ChaCha20
// block 0 (RFC 8439 §2.6).
func oneTimeKey(key *[KeySize]byte, nonce *[NonceSize]byte) [poly1305.KeySize]byte {
	block, err := chacha20.Block(key[:], nonce[:], 0)
	if err != nil {
		panic(fmt.Sprintf("aead: internal key size invariant broken: %v", err))
	}
	var otk [poly1305.KeySize]byte
	copy(otk[:], block[:poly1305.KeySize])
	return otk
}

// computeTag MACs the ciphertext with no associated data, following
// the RFC 8439 §2.8 framing (pad16 and length trailer retained so the
// construction matches the standardized AEAD exactly).
func computeTag(otk *[poly1305.KeySize]byte, ciphertext []byte) [poly1305.TagSize]byte {
	m := poly1305.New(otk)
	// Zero-length AAD contributes nothing, not even padding.
	m.Write(ciphertext)
	if rem := len(ciphertext) % 16; rem != 0 {
		var pad [16]byte
		m.Write(pad[:16-rem])
	}
	var lens [16]byte
	binary.LittleEndian.PutUint64(lens[0:8], 0) // AAD length
	binary.LittleEndian.PutUint64(lens[8:16], uint64(len(ciphertext)))
	m.Write(lens[:])
	var tag [poly1305.TagSize]byte
	copy(tag[:], m.Sum(nil))
	return tag
}

type gcmScheme struct{}

func (gcmScheme) Name() string { return "aes256gcm" }

func newGCM(key *[KeySize]byte) cipher.AEAD {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("aead: aes key setup: %v", err))
	}
	g, err := cipher.NewGCM(blk)
	if err != nil {
		panic(fmt.Sprintf("aead: gcm setup: %v", err))
	}
	return g
}

func (gcmScheme) Seal(dst []byte, key *[KeySize]byte, nonce *[NonceSize]byte, plaintext []byte) []byte {
	return newGCM(key).Seal(dst, nonce[:], plaintext, nil)
}

func (gcmScheme) Open(dst []byte, key *[KeySize]byte, nonce *[NonceSize]byte, ciphertext []byte) ([]byte, error) {
	out, err := newGCM(key).Open(dst, nonce[:], ciphertext, nil)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
}

// RoundNonce builds the deterministic nonce for round rho. XRD passes
// the round number as the AEAD nonce (§3.1); every key in the system
// is either fresh per message (onion and inner layers, via ephemeral
// DH) or used at most once per (round, lane), so nonces never repeat
// under one key. The lane byte separates the current-round messages
// from the cover messages pre-submitted for round rho+1 (§5.3.3).
func RoundNonce(rho uint64, lane byte) [NonceSize]byte {
	var n [NonceSize]byte
	binary.BigEndian.PutUint64(n[:8], rho)
	n[8] = lane
	return n
}
