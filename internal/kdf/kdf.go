// Package kdf is the XRD key schedule: four labelled derivations
// under HKDF-SHA256 (RFC 5869).
//
// The paper's user protocol (Algorithm 2) derives directional
// conversation keys with a KDF: s_B = KDF(s_AB, pk_B) encrypts
// messages *to* Bob and s_A = KDF(s_AB, pk_A) encrypts messages *to*
// Alice, where s_AB = DH(pk_B, sk_A) is the shared secret. Loopback
// messages use a chain-specific key s_xA known only to the mailbox
// owner. This package provides those three, plus the per-layer onion
// key and the inner-envelope key of the mix chains (§6).
//
// Every derivation the protocol makes has a 32-byte secret, a label of
// under 64 bytes and a 32-byte output, for which HKDF is two HMACs of
// one message block each: deriveKey computes exactly that as four
// sha256.Sum256 calls over stack buffers — no hash.Hash, no allocation
// (crypto/hkdf spends 17 on the same bytes, and an onion at k = 6 makes
// eight derivations) — and hands anything longer to crypto/hkdf.
package kdf

import (
	"crypto/hkdf"
	"crypto/sha256"
	"encoding/binary"
)

// KeySize is the size of all derived symmetric keys.
const KeySize = 32

// Key is a 32-byte symmetric key for the AEAD.
type Key [KeySize]byte

var salt = []byte("xrd-v1")

const (
	blockSize = 64 // SHA-256's, and so HMAC's key pad
	// maxFastInfo leaves room for HKDF-Expand's one-byte block counter
	// in the same 64-byte message buffer.
	maxFastInfo = blockSize - 1
)

// hmacPads returns key ⊕ ipad and key ⊕ opad for an HMAC-SHA256 key of
// at most one block (RFC 2104).
func hmacPads(key []byte) (ipad, opad [blockSize]byte) {
	copy(ipad[:], key)
	opad = ipad
	for i := range ipad {
		ipad[i] ^= 0x36
		opad[i] ^= 0x5c
	}
	return ipad, opad
}

// saltIpad and saltOpad are HKDF-Extract's HMAC key pads: the salt is
// the same for every derivation.
var saltIpad, saltOpad = hmacPads(salt)

// hmacBlock is HMAC-SHA256 under pre-padded keys of a message of at
// most one block.
func hmacBlock(ipad, opad *[blockSize]byte, msg []byte) [sha256.Size]byte {
	var in [2 * blockSize]byte
	copy(in[:], ipad[:])
	n := copy(in[blockSize:], msg)
	inner := sha256.Sum256(in[:blockSize+n])
	var out [blockSize + sha256.Size]byte
	copy(out[:], opad[:])
	copy(out[blockSize:], inner[:])
	return sha256.Sum256(out[:])
}

func deriveKey(secret []byte, domain string, context ...[]byte) Key {
	var buf [blockSize]byte
	info := append(buf[:0], domain...)
	for _, c := range context {
		info = binary.BigEndian.AppendUint32(info, uint32(len(c)))
		info = append(info, c...)
	}
	if len(secret) > blockSize || len(info) > maxFastInfo {
		// The copy keeps secret from escaping through hkdf.Key, which
		// would put every caller's [32]byte on the heap.
		out, err := hkdf.Key(sha256.New, append([]byte(nil), secret...), salt, string(info), KeySize)
		if err != nil {
			// hkdf.Key fails only for a length above 255 hashes.
			panic(err)
		}
		return Key(out)
	}
	// Extract: PRK = HMAC(salt, secret). Expand, one block:
	// OKM = HMAC(PRK, info ‖ 0x01).
	prk := hmacBlock(&saltIpad, &saltOpad, secret)
	ipad, opad := hmacPads(prk[:])
	return Key(hmacBlock(&ipad, &opad, append(info, 1)))
}

// ConversationKey derives the directional key s_R = KDF(s_AB, pk_R)
// used to encrypt conversation messages addressed to the holder of
// recipient public key pkR (Algorithm 2 step 1b).
func ConversationKey(shared [32]byte, recipientPK []byte) Key {
	return deriveKey(shared[:], "conversation", recipientPK)
}

// LoopbackKey derives the chain-specific loopback key s_xA from a
// user's long-term loopback secret. Only the mailbox owner can derive
// it, so loopback messages are indistinguishable from conversation
// messages to everyone else (§5.3.2 step 1a).
func LoopbackKey(userSecret [32]byte, chain int) Key {
	var c [8]byte
	binary.BigEndian.PutUint64(c[:], uint64(chain))
	return deriveKey(userSecret[:], "loopback", c[:])
}

// OnionKey derives the per-layer AEAD key from a Diffie-Hellman shared
// secret during onion encryption and mixing (Algorithm 1/§6.3 step 1).
func OnionKey(shared [32]byte) Key {
	return deriveKey(shared[:], "onion")
}

// InnerKey derives the AEAD key protecting the inner ciphertext of an
// AHS double envelope from DH(∏ ipk_i, y) (§6.2).
func InnerKey(shared [32]byte) Key {
	return deriveKey(shared[:], "inner")
}
