package mix

import (
	"bytes"
	"fmt"

	"repro/internal/aead"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// The blame protocol (§6.4) runs when an authenticated decryption
// fails at some server h. For each problem ciphertext, the upstream
// servers reveal one at a time, from h-1 back to the first, (a) the
// pre-blinding Diffie-Hellman key of that message with a DLEQ proof
// that their blinding was applied correctly, and (b) the exchanged
// decryption key with a DLEQ proof it matches their mixing key,
// letting everyone replay the decryption chain from the problem
// ciphertext back to the user's submitted ciphertext. If the whole
// chain checks out, the submitting user is malicious and is removed;
// if any server's reveal fails to verify, that server is blamed and
// the round halts with the inner keys destroyed, so nothing about
// honest users leaks either way. Each reveal opens one server's
// permutation at one accused message; no other message is linked.
//
// Reveals arrive through the hop transport; every verification runs
// against the orchestrator's own posRecord of the position's traffic,
// so a remote position that refuses to reveal, or reveals something
// inconsistent with what it actually forwarded, convicts itself.

// blameVerdict is the outcome of one blame protocol execution.
type blameVerdict struct {
	// Servers are blamed chain positions (at most one per execution
	// in practice; the first failure stops the walk).
	Servers []int
	// Users are blamed original submission indices.
	Users []int
}

// blameContext binds blame reveals to round, chain, server, message
// and step, so reveals cannot be replayed across messages.
func blameContext(round uint64, chain, server, msg int, step string) string {
	return fmt.Sprintf("xrd/blame/round=%d/chain=%d/server=%d/msg=%d/%s", round, chain, server, msg, step)
}

// runBlame executes the blame protocol at accusing position h for
// every failed index of its input (st.envs).
func (c *Chain) runBlame(round uint64, nonce [aead.NonceSize]byte, h int, failed []int, st *roundState) blameVerdict {
	var v blameVerdict
	blamedServers := make(map[int]bool)
	for _, j := range failed {
		sv := c.blameOne(round, nonce, h, j, st)
		for _, b := range sv.Servers {
			if !blamedServers[b] {
				blamedServers[b] = true
				v.Servers = append(v.Servers, b)
			}
		}
		v.Users = append(v.Users, sv.Users...)
	}
	return v
}

// blameOne traces a single problem ciphertext, input j of the accusing
// position h, upstream one position at a time (§6.4). At position i
// the message is an envelope the chain forwarded from i's output, so
// the chain finds its output index in its own record and asks i to
// reveal the input behind it. The revealed key is looked up in the
// chain's record of i's input, never taken as an index; the input it
// names must be one whose ciphertext opens, under the revealed key,
// to exactly what i forwarded. That input is the message as i's
// predecessor output it, where the next step starts; at position 0 it
// is a submission (st.accepted).
//
// Byte-identical envelopes — two submitters sending the same
// submission — are one envelope at every position, so each lookup
// takes the first match that no walk of this round has claimed (the
// records' gone marks): every accused copy traces to its own
// submitter, and re-certification drops each copy once.
func (c *Chain) blameOne(round uint64, nonce [aead.NonceSize]byte, h, j int, st *roundState) blameVerdict {
	accused := st.envs[j]
	env, q := accused, j
	for i := h - 1; i >= 0; i-- {
		rec := &st.states[i]
		p, ok := claim(rec.out, rec.outGone, func(e onion.Envelope) bool {
			return e.DHKey.Equal(env.DHKey) && bytes.Equal(e.Ct, env.Ct)
		})
		if !ok {
			panic("mix: blame walk lost an envelope the chain forwarded") // unreachable: i+1's input came from this output
		}
		rev, err := c.hops[i].BlameReveal(round, j, p)
		if err != nil {
			// Refusing (or failing) to reveal is indistinguishable
			// from hiding misbehaviour — the position is blamed.
			return blameVerdict{Servers: []int{i}}
		}
		fwd := rec.out[p]

		// (1) The blinding was applied correctly to this message.
		if err := nizk.VerifyDleq(blameContext(round, c.ID, i, j, "blind"),
			rev.Xin, fwd.DHKey, c.keys[i].BpkPrev, c.keys[i].Bpk, rev.BlindProof); err != nil {
			return blameVerdict{Servers: []int{i}}
		}
		// (2) The revealed decryption key matches the mixing key.
		if err := nizk.VerifyDleq(blameContext(round, c.ID, i, j, "key"),
			rev.Xin, rev.K, c.keys[i].BpkPrev, c.keys[i].Mpk, rev.KeyProof); err != nil {
			return blameVerdict{Servers: []int{i}}
		}
		// (3) The revealed key is one the position was sent, and
		// decrypting that input with the revealed key yields exactly
		// the ciphertext the position forwarded. At position 0 the
		// input is the user's submitted ciphertext, the commitment to
		// every layer.
		q, ok = claim(rec.in, rec.inGone, func(e onion.Envelope) bool {
			if !e.DHKey.Equal(rev.Xin) {
				return false
			}
			got, err := onion.OpenWithRevealedKey(c.scheme, rev.K, nonce, e.Ct)
			return err == nil && bytes.Equal(got, fwd.Ct)
		})
		if !ok {
			return blameVerdict{Servers: []int{i}}
		}
		env = rec.in[q]
	}

	// Step 4: the accusing server reveals its own exchanged key and
	// everyone checks the decryption really fails. If it succeeds the
	// accusation was false and the accuser is blamed; honest users
	// can never be convicted (§6.4 analysis).
	ar, err := c.hops[h].Accuse(round, j, accused.DHKey)
	if err != nil {
		return blameVerdict{Servers: []int{h}}
	}
	if err := nizk.VerifyDleq(blameContext(round, c.ID, h, j, "accuse"),
		accused.DHKey, ar.K, c.keys[h].BpkPrev, c.keys[h].Mpk, ar.Proof); err != nil {
		return blameVerdict{Servers: []int{h}}
	}
	if _, err := onion.OpenWithRevealedKey(c.scheme, ar.K, nonce, accused.Ct); err == nil {
		return blameVerdict{Servers: []int{h}}
	}
	// The full chain verified and the ciphertext indeed fails: the
	// submitting user is malicious.
	return blameVerdict{Users: []int{st.accepted[q]}}
}

// claim returns the first index of envs that gone does not mark and
// match accepts, and marks it.
func claim(envs []onion.Envelope, gone []bool, match func(onion.Envelope) bool) (int, bool) {
	for q, e := range envs {
		if !gone[q] && match(e) {
			gone[q] = true
			return q, true
		}
	}
	return 0, false
}
