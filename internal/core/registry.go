package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/client"
	"repro/internal/group"
)

// numShards is the number of registry shards. It is a power of two so
// the shard index is a cheap mask of the mailbox hash; 64 keeps lock
// contention negligible for any worker-pool size the round pipeline
// will realistically run with, while staying small enough that the
// per-shard maps do not dominate memory for tiny test deployments.
const numShards = 64

// registry is the sharded user registry. Users are distributed over
// shards by a hash of their mailbox identifier; each shard has its own
// lock, so registrations, presence changes and the round pipeline's
// build workers contend only within a shard, never globally.
//
// Locking rule: a shard's mutex guards every registeredUser stored in
// it, including the embedded *client.User's conversation state. Core
// never reads or mutates a registered user without holding the owning
// shard's lock, and the round pipeline assigns whole shards to build
// workers so each user is only ever touched by one goroutine at a
// time.
type registry struct {
	shards [numShards]userShard
}

// mailboxID is a transport user's mailbox: her compressed public key
// (§5.1), which is all onion.Recipient routes by.
type mailboxID [group.PointSize]byte

// userShard is one lock domain of the registry: users are the
// in-process users it builds for, transport the far larger set of
// registered mailboxes, kept as arrays the garbage collector never scans.
type userShard struct {
	mu        sync.RWMutex
	users     map[string]*registeredUser
	transport map[mailboxID]struct{}
}

// registeredUser is the network's bookkeeping for one in-process
// user; her round traffic is in the frontend's bank (external.go). All
// fields are guarded by the owning shard's mutex.
type registeredUser struct {
	u      *client.User
	online bool
	// coversUsed records that the covers ran while the user was away:
	// the KindOffline signal went out and the partner reverted to
	// loopbacks, so on reconnection the user's conversation is over
	// and must be re-initiated out-of-band (§5.3.3: "this could be
	// used to end conversations as well").
	coversUsed bool
}

// newRegistry returns an empty registry with all shards initialised.
func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].users = make(map[string]*registeredUser)
		r.shards[i].transport = make(map[mailboxID]struct{})
	}
	return r
}

// parseMailboxID checks a mailbox from a peer or the log for its key.
func parseMailboxID[T string | []byte](mb T) (mailboxID, error) {
	var id mailboxID
	if len(mb) != len(id) {
		return id, fmt.Errorf("core: mailbox identifier is %d bytes, want %d (a compressed public key)", len(mb), len(id))
	}
	copy(id[:], mb)
	return id, nil
}

// shardIndex routes a mailbox identifier to its shard with FNV-1a.
// Mailbox identifiers are compressed group points and thus already
// well distributed, but hashing keeps the registry correct for any
// identifier scheme the transport layer might use.
func shardIndex[T string | []byte](key T) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h & (numShards - 1))
}

// shardOf returns the shard owning a mailbox identifier.
func (r *registry) shardOf(key string) *userShard {
	return &r.shards[shardIndex(key)]
}

// insert registers an in-process user under her mailbox identifier,
// taking it over from a transport registration if there is one.
func (r *registry) insert(key string, ru *registeredUser) {
	sh := r.shardOf(key)
	sh.mu.Lock()
	sh.users[key] = ru
	if id, err := parseMailboxID(key); err == nil {
		delete(sh.transport, id)
	}
	sh.mu.Unlock()
}

// register records a transport registration, unless an in-process user
// holds the identifier: then it is hers already.
func (r *registry) register(id mailboxID) {
	r.shards[shardIndex(id[:])].register(id)
}

// register is registry.register on the identifier's shard.
func (sh *userShard) register(id mailboxID) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, inProcess := sh.users[string(id[:])]; !inProcess {
		sh.transport[id] = struct{}{}
	}
}

// holdsInProcess reports whether an in-process user on the shard holds
// the identifier.
func holdsInProcess[T string | []byte](sh *userShard, key T) bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.users[string(key)]
	return ok
}

// update runs fn on the in-process user under the owning shard's write
// lock; it is a no-op for unknown identifiers.
func (r *registry) update(key string, fn func(*registeredUser)) {
	sh := r.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ru, ok := sh.users[key]; ok {
		fn(ru)
	}
}

// remove drops a convicted user's registration, in-process or
// transport, excluding her from future rounds (§6.4); the frontend's
// banned set is the record of the conviction. It touches only the
// owning shard.
func (r *registry) remove(key string) {
	sh := r.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.users, key)
	if id, err := parseMailboxID(key); err == nil {
		delete(sh.transport, id)
	}
}

// transportKeys returns the transport registrations in the given range,
// sorted — the registration set a durable snapshot persists.
// In-process users carry live key material that cannot be serialised
// and are excluded by design.
func (r *registry) transportKeys(rng ShardRange) []mailboxID {
	out := make([]mailboxID, 0, r.countActive()) // bounds the range's count
	for i := rng.Lo; i < rng.Hi; i++ {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id := range sh.transport {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	// In place: a comparison taking two keys by value copies both.
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// countActive returns the number of registered users.
func (r *registry) countActive() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		total += len(sh.transport) + len(sh.users)
		sh.mu.RUnlock()
	}
	return total
}
