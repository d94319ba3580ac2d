// Package store is the durability engine under a gateway shard's
// client-facing state: an append-only write-ahead log of typed
// records plus a periodic snapshot image that lets the log behind it
// be retired, both living in one data directory.
//
// The paper's deployment story assumes the client-facing edge
// survives failures — users poll mailboxes across rounds (§5.1) and
// pre-submit covers for the next one (§5.3.3), so a gateway that
// crashes and restarts must come back with the mailboxes, the
// registered/banned user sets, the accepted-but-unmixed submissions
// and its round/epoch watermark intact. The engine is deliberately
// domain-agnostic: it persists (op, payload) records and opaque image
// bytes; the owning layer (internal/core's Frontend) defines the
// record types, and emits its image as a compacted run of those same
// records so one decoder recovers both. That keeps the crash-recovery
// invariants — what is fsync'd when, how a torn tail is detected,
// which files survive a crash mid-compaction — testable in isolation
// from protocol logic.
//
// Write path: records append to the current WAL segment
// (CRC-framed; see wal.go), with Sync draining to stable storage at
// the caller's durability points (a submission acknowledgement, a
// round commit). Snapshot atomically installs an image and retires
// every segment the image covers, bounding both replay time and disk
// use.
//
// Read path: Open scans the directory, loads the newest intact
// snapshot, replays every later segment in order — truncating a torn
// tail at the first frame that fails its length or checksum — and
// hands the caller the image bytes plus the ordered surviving
// records.
package store

// Op tags a WAL record with its domain-level meaning. The engine
// never interprets it; the owning layer defines the values.
type Op uint8

// Record is one replayed WAL record: the op tag and its payload,
// exactly as appended.
type Record struct {
	Op      Op
	Payload []byte
}

// Recovered is everything Open read back from a data directory.
type Recovered struct {
	// Snapshot is the newest intact snapshot's state bytes, nil when
	// no snapshot has been taken.
	Snapshot []byte
	// Records are the WAL records logged after the snapshot, in
	// append order.
	Records []Record
	// Truncated counts bytes discarded from torn segment tails — a
	// crash mid-append leaves a partial frame, which replay cuts at
	// the last intact record.
	Truncated int64
	// Segments is the number of WAL segments replayed.
	Segments int
}

// Store is the persistence seam a gateway shard writes through.
// Durable implements it over a data directory; Mem is the in-memory
// default that retains nothing, so tests and benchmarks pay no I/O.
type Store interface {
	// Append logs one record. It does not guarantee the record has
	// reached stable storage until the next Sync.
	Append(op Op, payload []byte) error
	// Sync drains every appended record to stable storage. Callers
	// invoke it at durability points: before acknowledging a
	// submission, after committing a round.
	Sync() error
	// Snapshot installs an image of the caller's whole state and
	// retires the WAL records it covers. After a successful Snapshot, Open returns
	// the image plus only records appended after it.
	Snapshot(state []byte) error
	// Close releases the store; a Durable store syncs first.
	Close() error
}

// Mem is the no-op Store: nothing is retained, every operation
// succeeds. It is the default for in-process deployments, tests and
// benchmarks, preserving the seed's pure in-memory behaviour.
type Mem struct{}

// Append implements Store.
func (Mem) Append(Op, []byte) error { return nil }

// Sync implements Store.
func (Mem) Sync() error { return nil }

// Snapshot implements Store.
func (Mem) Snapshot([]byte) error { return nil }

// Close implements Store.
func (Mem) Close() error { return nil }

var _ Store = Mem{}
