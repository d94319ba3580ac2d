package core

import (
	"sort"
	"sync"

	"repro/internal/client"
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

// userShard is one lock domain of the registry.
type userShard struct {
	mu    sync.RWMutex
	users map[string]*registeredUser
	// built lists the users whose built still holds its Current, so
	// that a round's commit releases those submissions without a walk
	// over the users who never built.
	built []*registeredUser
}

// registeredUser is the network's bookkeeping for one in-process
// user. All fields are guarded by the owning shard's mutex.
type registeredUser struct {
	u       *client.User
	online  bool
	removed bool
	// cover holds the covers submitted last round, usable exactly in
	// round coverRound if the user is offline (§5.3.3).
	cover      []client.ChainMessage
	coverRound uint64
	// built is the user's most recent round output and the round it
	// was built for, reused verbatim when the coordinator re-begins
	// the same round: a failed round retried under its old number, or
	// a pipelined preparation that was discarded and re-requested. A
	// user's outbox drains at build time, so rebuilding would lose
	// queued bodies; reuse keeps the resubmission byte-identical.
	// Once the round has committed nothing resubmits it, and
	// FinishRound drops Current, ℓ whole submissions; Cover, which
	// cover aliases, stays. Cleared on Rebalance — an epoch
	// re-formation invalidates the onions — whereupon client.User
	// restores the drained bodies.
	built      *client.RoundOutput
	builtRound uint64
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
	}
	return r
}

// shardIndex routes a mailbox identifier to its shard with FNV-1a.
// Mailbox identifiers are compressed group points and thus already
// well distributed, but hashing keeps the registry correct for any
// identifier scheme the transport layer might use.
func shardIndex(key string) int {
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

// insert registers a user under her mailbox identifier.
func (r *registry) insert(key string, ru *registeredUser) {
	sh := r.shardOf(key)
	sh.mu.Lock()
	sh.users[key] = ru
	sh.mu.Unlock()
}

// update runs fn on the registered user under the owning shard's write
// lock; it is a no-op for unknown identifiers.
func (r *registry) update(key string, fn func(*registeredUser)) {
	sh := r.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ru, ok := sh.users[key]; ok {
		fn(ru)
	}
}

// view runs fn on the registered user under the owning shard's read
// lock and reports whether the user exists.
func (r *registry) view(key string, fn func(*registeredUser)) bool {
	sh := r.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ru, ok := sh.users[key]
	if ok {
		fn(ru)
	}
	return ok
}

// markRemoved convicts a user, excluding her from future rounds
// (§6.4). It touches only the owning shard.
func (r *registry) markRemoved(key string) {
	r.update(key, func(ru *registeredUser) { ru.removed = true })
}

// transportKeys returns the mailbox identifiers of every non-removed
// network-transport registration (entries without client state) in
// the given range, sorted — the registration set a durable snapshot
// persists. In-process users carry live key material that cannot be
// serialised and are excluded by design.
func (r *registry) transportKeys(rng ShardRange) []string {
	var out []string
	for i := rng.Lo; i < rng.Hi; i++ {
		sh := &r.shards[i]
		sh.mu.RLock()
		for key, ru := range sh.users {
			if ru.u == nil && !ru.removed {
				out = append(out, key)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// countActive returns the number of registered, non-removed users.
func (r *registry) countActive() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, ru := range sh.users {
			if !ru.removed {
				total++
			}
		}
		sh.mu.RUnlock()
	}
	return total
}
