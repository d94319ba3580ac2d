// Package kdf is the XRD key schedule: four labelled derivations
// over the standard library's HKDF-SHA256 (crypto/hkdf, RFC 5869).
//
// The paper's user protocol (Algorithm 2) derives directional
// conversation keys with a KDF: s_B = KDF(s_AB, pk_B) encrypts
// messages *to* Bob and s_A = KDF(s_AB, pk_A) encrypts messages *to*
// Alice, where s_AB = DH(pk_B, sk_A) is the shared secret. Loopback
// messages use a chain-specific key s_xA known only to the mailbox
// owner. This package provides those three, plus the per-layer onion
// key and the inner-envelope key of the mix chains (§6).
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

func deriveKey(secret []byte, domain string, context ...[]byte) Key {
	info := make([]byte, 0, 64)
	info = append(info, domain...)
	for _, c := range context {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(c)))
		info = append(info, l[:]...)
		info = append(info, c...)
	}
	out, err := hkdf.Key(sha256.New, secret, salt, string(info), KeySize)
	if err != nil {
		// hkdf.Key fails only for a length above 255 hashes.
		panic(err)
	}
	return Key(out)
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
