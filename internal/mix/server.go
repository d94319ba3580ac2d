// Package mix implements XRD's mix chains: the baseline
// decrypt-and-shuffle of Algorithm 1, the aggregate hybrid shuffle
// (AHS) of §6 that detects active attacks with cheap discrete-log
// NIZKs, and the blame protocol of §6.4 that identifies misbehaving
// users and servers without hurting honest users' privacy.
//
// A Chain bundles the k servers of one anytrust group and runs rounds
// against them. Every server verifies every other server's proofs, as
// in the real protocol; the security guarantee only needs one of them
// to be honest. Fault injection hooks (Corruption) simulate malicious
// servers and users for tests and experiments.
package mix

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"

	"repro/internal/aead"
	"repro/internal/group"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// Server is one mix server's membership in one chain, holding the
// three AHS key pairs of §6.1: a long-term blinding key and mixing
// key chained off the previous server's blinding key, and a per-round
// inner key.
type Server struct {
	// Chain is the chain this membership belongs to.
	Chain int
	// Index is the position in the chain, 0-based.
	Index int

	scheme aead.Scheme

	// AHS long-term keys (§6.1). bpkPrev is the base of this server's
	// keys: g for the first server, bpk_{i-1} otherwise.
	bsk, msk    group.Scalar
	bpk, mpk    group.Point
	bpkPrev     group.Point
	bskProof    nizk.Proof
	mskProof    nizk.Proof
	baselineKey group.KeyPair // plain g^msk' pair for Algorithm 1 mode
	// innerMu guards innerKeys, lastKeyRound and the last batch
	// (lastIn, lastRound, lastPows). With round pipelining the
	// coordinator announces round ρ+2's keys (BeginRound, which prunes
	// both) while round ρ's mixing still reads them, so access is
	// concurrent.
	innerMu sync.Mutex
	// innerKeys holds the per-round inner key pairs (isk, ipk=g^isk).
	// Keys for round ρ+1 are generated during round ρ so users can
	// build their cover messages one round ahead (§5.3.3); old rounds
	// are pruned after reveal, and BeginRound prunes too so servers on
	// halted or skipped chains — which never reach the reveal — do not
	// accumulate one key pair per round forever.
	innerKeys map[uint64]group.KeyPair
	// lastKeyRound is the highest round BeginRound has seen.
	lastKeyRound uint64

	// lastIn holds the Diffie-Hellman keys of the last Mix call's
	// input batch and lastRound the round that call named, retained
	// for the blame protocol's reveals and for re-certification after
	// blame removals — both read only the keys, so the ciphertexts are
	// not kept, and both refuse a caller that names another round. The
	// outputs and the permutation are returned to the orchestrator in
	// MixResult; each verifier keeps its own record of those (Chain
	// does, per position), so the server holds only what it alone can
	// produce. Its lifetime ends at the reveal: once the round's inner
	// key is out nothing can ask for either, so RevealInnerKey drops the
	// batch (lastIn is nil again) and BeginRound's prune does the same
	// for a halted or skipped chain that never reveals.
	lastIn    []group.Point
	lastRound uint64
	// lastPows is set only between a Mix that found decryption
	// failures and the next Mix: lastIn[j]^msk in [0] and lastIn[j]^bsk
	// in [1], which the failing call computed and the re-mix of the
	// survivors would otherwise compute again. Each entry is a function
	// of its point under the long-term keys and of nothing else — no
	// ciphertext, round or nonce — so whatever batch the next Mix is
	// handed, an input Equal to lastIn[j] has exactly these two powers.
	lastPows [2][]group.Point

	// Corruption, when non-nil, makes the server misbehave; see
	// corrupt.go.
	Corruption *Corruption
}

// keyGenContext binds key-knowledge proofs to a chain position.
func keyGenContext(chain, index int, kind string) string {
	return fmt.Sprintf("xrd/keygen/chain=%d/server=%d/%s", chain, index, kind)
}

// innerKeyContext binds per-round inner keys to their round.
func innerKeyContext(chain, index int, round uint64) string {
	return fmt.Sprintf("xrd/innerkey/chain=%d/server=%d/round=%d", chain, index, round)
}

// NewChainServer generates a standalone mix server for position index
// of a chain, with long-term keys chained off base (= bpk_{i-1}, or g
// for the first position) and knowledge proofs as §6.1 requires. It
// is how a remote xrd-server process instantiates the one position it
// hosts; in-process chains call it through NewChain. A nil scheme
// selects ChaCha20-Poly1305.
func NewChainServer(chain, index int, base group.Point, scheme aead.Scheme) *Server {
	if scheme == nil {
		scheme = aead.ChaCha20Poly1305()
	}
	s := &Server{Chain: chain, Index: index, scheme: scheme, bpkPrev: base}
	s.bsk = group.MustRandomScalar()
	s.msk = group.MustRandomScalar()
	s.bpk = base.Mul(s.bsk)
	s.mpk = base.Mul(s.msk)
	s.bskProof = nizk.ProveDlogPrecomputed(keyGenContext(chain, index, "bsk"), base, s.bpk, s.bsk)
	s.mskProof = nizk.ProveDlogPrecomputed(keyGenContext(chain, index, "msk"), base, s.mpk, s.msk)
	s.baselineKey = group.GenerateBaseKeyPair()
	return s
}

// Keys returns the server's published key material: what it would
// put in the PKI for other chain members (and the orchestrator) to
// verify and chain off.
func (s *Server) Keys() HopKeys {
	return HopKeys{
		Chain:       s.Chain,
		Index:       s.Index,
		BpkPrev:     s.bpkPrev,
		Bpk:         s.bpk,
		Mpk:         s.mpk,
		BaselinePub: s.baselineKey.Public,
		BskProof:    s.bskProof,
		MskProof:    s.mskProof,
	}
}

// VerifyKeys checks the server's key-knowledge proofs against its
// published public keys, as every other chain member does at setup.
func (s *Server) VerifyKeys() error {
	return VerifyHopKeys(s.Keys())
}

// BeginRound generates the per-round inner key pair for the given
// round if it does not exist yet (§6.1) and returns the public inner
// key with its knowledge proof. It is idempotent per round, so the
// coordinator can announce round ρ+1's keys during round ρ for cover
// messages.
func (s *Server) BeginRound(round uint64) (group.Point, nizk.Proof) {
	s.innerMu.Lock()
	if s.innerKeys == nil {
		s.innerKeys = make(map[uint64]group.KeyPair)
	}
	kp, ok := s.innerKeys[round]
	if !ok {
		kp = group.GenerateBaseKeyPair()
		s.innerKeys[round] = kp
	}
	if round > s.lastKeyRound {
		s.lastKeyRound = round
		// Mirror Chain.innerAggs: anything older than two rounds
		// behind the newest announcement is unreachable
		// (RevealInnerKey prunes the success path, but a halted or
		// skipped chain never gets there, and §6.4 wants those keys
		// destroyed anyway). The window is two rounds, not one,
		// because a depth-2 pipeline announces round ρ+2 while round
		// ρ is still mixing and must later reveal.
		for r := range s.innerKeys {
			if r+2 < s.lastKeyRound {
				delete(s.innerKeys, r)
			}
		}
		if s.lastRound+2 < s.lastKeyRound {
			s.dropBatch()
		}
	}
	s.innerMu.Unlock()
	proof := nizk.ProveDlogPrecomputed(innerKeyContext(s.Chain, s.Index, round), group.Generator(), kp.Public, kp.Private)
	return kp.Public, proof
}

// InnerPublicKey returns the server's inner public key for round, if
// generated.
func (s *Server) InnerPublicKey(round uint64) (group.Point, bool) {
	s.innerMu.Lock()
	kp, ok := s.innerKeys[round]
	s.innerMu.Unlock()
	return kp.Public, ok
}

// RevealInnerKey discloses the per-round inner secret after mixing
// succeeded (§6.3) and prunes older rounds. Corrupt servers may
// refuse; the chain then halts without delivering, which leaks
// nothing (messages stay encrypted).
func (s *Server) RevealInnerKey(round uint64) (group.Scalar, error) {
	s.innerMu.Lock()
	defer s.innerMu.Unlock()
	kp, ok := s.innerKeys[round]
	if !ok {
		return group.Scalar{}, fmt.Errorf("mix: server %d has no inner key for round %d", s.Index, round)
	}
	if s.Corruption != nil && s.Corruption.WithholdInnerKey {
		return group.Scalar{}, fmt.Errorf("mix: server %d withheld its inner key", s.Index)
	}
	for r := range s.innerKeys {
		if r < round {
			delete(s.innerKeys, r)
		}
	}
	// A depth-2 pipeline may already have mixed round+1; that batch
	// stays.
	if s.lastRound == round {
		s.dropBatch()
	}
	return kp.Private, nil
}

// dropBatch forgets the last Mix's keys and powers; innerMu is held.
func (s *Server) dropBatch() {
	s.lastIn, s.lastPows = nil, [2][]group.Point{}
}

// mixContext binds a shuffle certificate to round, chain, position
// and a re-proof epoch (incremented after blame removes messages).
func mixContext(round uint64, chain, index, epoch int) string {
	return fmt.Sprintf("xrd/mix/round=%d/chain=%d/server=%d/epoch=%d", round, chain, index, epoch)
}

// MixResult is a server's output for one mixing step (§6.3): the
// blinded, shuffled envelopes, the shuffle certificate, the
// indices (into its input) whose authenticated decryption failed, and
// the output-to-input permutation. The permutation is disclosed to
// the orchestrator for lineage attribution and blame tracing — the
// same information the blame protocol would reveal per message (see
// roundState.origin); an honest deployment's privacy rests on the
// honest member's permutation staying inside that member. Out is an
// onion.Batch so that a remote position's reply crosses as one block
// (rpc's hop.mix); in process it is the slice it always was.
type MixResult struct {
	Out    onion.Batch
	Proof  nizk.Proof
	Failed []int
	Out2In []int
}

// Mix performs §6.3 steps 1-3: decrypt every envelope, blind every
// Diffie-Hellman key with bsk, shuffle both with one permutation, and
// certify (∏ Xin)^bsk = ∏ Xout with a DLEQ against (bpkPrev, bpk).
//
// Steps 1 and 2 raise every key to two exponents that are the same
// for the whole batch, X^msk for the AEAD key and X^bsk for the
// blinding, so each worker range runs them as one group.BatchMul —
// over the keys the call before this one has not already raised. A
// Mix that found decryption failures leaves its powers in lastPows
// and the re-mix of the survivors recalls them, so blame costs
// exponentiations per convict, not per batch. Every layer is opened
// afresh either way: an open is a thirtieth of the pair of
// exponentiations, and redoing it keeps what is recalled a function
// of the point alone.
//
// If any decryption fails, Mix returns the failed indices and no
// output; the chain moves to the blame protocol. Corrupt servers
// tamper according to their Corruption before proving.
func (s *Server) Mix(round uint64, nonce [aead.NonceSize]byte, in []onion.Envelope) (*MixResult, error) {
	keys := dhKeys(in)
	exchanged := make([]group.Point, len(in)) // X^msk
	blinded := make([]group.Point, len(in))   // X^bsk
	s.innerMu.Lock()
	hit, miss := s.recall(keys, exchanged, blinded)
	s.lastIn, s.lastRound, s.lastPows = keys, round, [2][]group.Point{}
	s.innerMu.Unlock()

	peeled := make([][]byte, len(in))
	opened := make([]bool, len(in))
	open := func(js []int) {
		for _, j := range js {
			pt, err := onion.OpenWithRevealedKey(s.scheme, exchanged[j], nonce, in[j].Ct)
			peeled[j], opened[j] = pt, err == nil
		}
	}
	bases := make([]group.Point, len(miss))
	for t, j := range miss {
		bases[t] = keys[j]
	}
	parallelRanges(len(miss), func(lo, hi int) {
		pows := group.BatchMul(bases[lo:hi], s.msk, s.bsk)
		for t, j := range miss[lo:hi] {
			exchanged[j], blinded[j] = pows[0][t], pows[1][t]
		}
		open(miss[lo:hi])
	})
	parallelRanges(len(hit), func(lo, hi int) { open(hit[lo:hi]) })

	var failed []int
	for j, ok := range opened {
		if !ok {
			failed = append(failed, j)
		}
	}
	if len(failed) > 0 {
		s.innerMu.Lock()
		s.lastIn, s.lastRound, s.lastPows = keys, round, [2][]group.Point{exchanged, blinded}
		s.innerMu.Unlock()
		return &MixResult{Failed: failed}, nil
	}
	if s.Corruption != nil && len(s.Corruption.FalselyAccuse) > 0 {
		f := append([]int(nil), s.Corruption.FalselyAccuse...)
		sort.Ints(f)
		return &MixResult{Failed: f}, nil
	}

	out := make([]onion.Envelope, len(in))
	out2in := randomPermutation(len(in))
	for p, j := range out2in {
		out[p] = onion.Envelope{DHKey: blinded[j], Ct: peeled[j]}
	}

	const epoch = 0
	if s.Corruption != nil {
		out = s.Corruption.applyMix(s, in, out, out2in)
	}

	// Step 3: shuffle certificate.
	proof := s.certify(mixContext(round, s.Chain, s.Index, epoch), keys)
	if s.Corruption != nil && s.Corruption.BadMixProof {
		proof.S = proof.S.Add(group.NewScalar(1))
	}

	return &MixResult{Out: out, Proof: proof, Out2In: out2in}, nil
}

// recall fills exchanged[j] and blinded[j] for every key that
// lastPows already holds the powers of, and returns those indices
// (hit) and the ones it holds nothing for (miss) — all of them unless
// the Mix before this one found decryption failures. Blame removes
// messages and keeps the rest in order, so one forward walk over
// lastIn finds every survivor; the walk never steps back, which
// bounds it at len(keys)+len(lastIn) comparisons whatever it is
// handed, and a batch that is not an in-order subset of lastIn only
// misses more.
func (s *Server) recall(keys, exchanged, blinded []group.Point) (hit, miss []int) {
	had := s.lastIn[:len(s.lastPows[0])]
	p := 0
	for j, x := range keys {
		for p < len(had) && !had[p].Equal(x) {
			p++
		}
		if p == len(had) {
			miss = append(miss, j)
			continue
		}
		exchanged[j], blinded[j] = s.lastPows[0][p], s.lastPows[1][p]
		hit = append(hit, j)
		p++
	}
	return hit, miss
}

// BlameRevealAt produces the server's blame disclosure for the
// message at input position pos of its last Mix call; msg names the
// accused working index and only binds the proof contexts. The round
// and bounds checks matter for the remote transport: a confused or
// hostile orchestrator must get an error — never a panic, and never a
// reveal bound to one round's context over another round's keys.
func (s *Server) BlameRevealAt(round uint64, msg, pos int) (BlameReveal, error) {
	in, err := s.mixedIn(round)
	if err != nil {
		return BlameReveal{}, err
	}
	if pos < 0 || pos >= len(in) {
		return BlameReveal{}, fmt.Errorf("mix: server %d has no input position %d", s.Index, pos)
	}
	// Each power is raised once and handed to its proof.
	xin := in[pos]
	xout, k := xin.Mul(s.bsk), xin.Mul(s.msk)
	return BlameReveal{
		Xin:        xin,
		BlindProof: nizk.ProveDleqPrecomputed(blameContext(round, s.Chain, s.Index, msg, "blind"), xin, xout, s.bpkPrev, s.bpk, s.bsk),
		K:          k,
		KeyProof:   nizk.ProveDleqPrecomputed(blameContext(round, s.Chain, s.Index, msg, "key"), xin, k, s.bpkPrev, s.mpk, s.msk),
	}, nil
}

// Accuse is blame step 4: the accusing server reveals its exchanged
// key for the accused message's Diffie-Hellman key, with proof it
// matches the published mixing key, so everyone can check the
// decryption really fails.
func (s *Server) Accuse(round uint64, msg int, key group.Point) AccuseReveal {
	k := key.Mul(s.msk)
	return AccuseReveal{
		K:     k,
		Proof: nizk.ProveDleqPrecomputed(blameContext(round, s.Chain, s.Index, msg, "accuse"), key, k, s.bpkPrev, s.mpk, s.msk),
	}
}

// VerifyMix is the check every other server runs on a peer's shuffle
// certificate (§6.3 step 3): the products of the input and output
// keys must be related by the peer's published blinding key.
func VerifyMix(round uint64, chain, index, epoch int, bpkPrev, bpk group.Point, in, out []onion.Envelope, proof nizk.Proof) error {
	if len(in) != len(out) {
		return fmt.Errorf("mix: server %d changed the message count %d -> %d", index, len(in), len(out))
	}
	prodIn := productOfKeys(in)
	prodOut := productOfKeys(out)
	if err := nizk.VerifyDleq(mixContext(round, chain, index, epoch), prodIn, prodOut, bpkPrev, bpk, proof); err != nil {
		return fmt.Errorf("mix: server %d shuffle certificate: %w", index, err)
	}
	return nil
}

// ReProveSubset re-issues the shuffle certificate over the messages
// that survived blame removal (§6.4: "the servers just have to repeat
// step 3"). keep[j] says whether input j of this server's last Mix
// call, which must have been round's, survived.
func (s *Server) ReProveSubset(round uint64, epoch int, keep []bool) (nizk.Proof, error) {
	in, err := s.mixedIn(round)
	if err != nil {
		return nizk.Proof{}, err
	}
	if len(keep) != len(in) {
		return nizk.Proof{}, fmt.Errorf("mix: server %d re-proof over %d messages, had %d", s.Index, len(keep), len(in))
	}
	kept := make([]group.Point, 0, len(in))
	for j, k := range keep {
		if k {
			kept = append(kept, in[j])
		}
	}
	return s.certify(mixContext(round, s.Chain, s.Index, epoch), kept), nil
}

// certify issues the shuffle certificate over a batch's input keys:
// (∏ keys)^bsk against bpk = bpkPrev^bsk, the product raised once here
// and bpk the server's own.
func (s *Server) certify(context string, keys []group.Point) nizk.Proof {
	prod := group.Product(keys)
	return nizk.ProveDleqPrecomputed(context, prod, prod.Mul(s.bsk), s.bpkPrev, s.bpk, s.bsk)
}

// mixedIn returns the last Mix's input keys, refusing a request for a
// round other than theirs or for a batch already dropped.
func (s *Server) mixedIn(round uint64) ([]group.Point, error) {
	s.innerMu.Lock()
	defer s.innerMu.Unlock()
	if s.lastIn == nil || round != s.lastRound {
		return nil, fmt.Errorf("mix: server %d holds no batch of round %d (last mixed round %d; a batch is dropped once its round's inner key is revealed)", s.Index, round, s.lastRound)
	}
	return s.lastIn, nil
}

// dhKeys returns the envelopes' Diffie-Hellman keys as a new slice.
func dhKeys(envs []onion.Envelope) []group.Point {
	keys := make([]group.Point, len(envs))
	for i, e := range envs {
		keys[i] = e.DHKey
	}
	return keys
}

func productOfKeys(envs []onion.Envelope) group.Point {
	return group.Product(dhKeys(envs))
}

// randomPermutation draws a uniform permutation from crypto/rand;
// the honest server's secret permutation is what hides message
// origins, so it must not come from a seedable PRNG.
func randomPermutation(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := randInt(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func randInt(n int) int {
	v, err := rand.Int(rand.Reader, big.NewInt(int64(n)))
	if err != nil {
		panic(fmt.Sprintf("mix: system randomness failed: %v", err))
	}
	return int(v.Int64())
}

// minRange is the fewest messages parallelRanges gives a worker. The
// ranges feed group.BatchMul, which pays 263 true field inversions per
// call whatever the batch size: ≈ 0.6 ms, against ≈ 55 µs a message
// under a hop's two secrets, so 9 % of a call at 128 messages, 4 % at
// 256 — and when several chains already mix concurrently, cutting
// each one's batch finer buys no parallelism at all.
const minRange = 128

// parallelRanges splits [0, n) into contiguous ranges of at least
// minRange, at most one per CPU, and runs fn on each concurrently.
// With a single worker (or n below 2·minRange) it degenerates to a
// direct call.
func parallelRanges(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if most := n / minRange; workers > most {
		workers = most
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Even split: every range holds at least n/workers ≥ minRange.
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// InputDigest hashes an input set so the chain's servers can agree on
// what they are mixing (§6.3: "the servers first agree on the inputs
// for this round").
func InputDigest(round uint64, chain int, subs []onion.Submission) [32]byte {
	h := newDigest()
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], round)
	binary.BigEndian.PutUint64(hdr[8:], uint64(chain))
	h.Write(hdr[:])
	for _, sub := range subs {
		h.Write(sub.DHKey.Bytes())
		h.Write(sub.Ct)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
