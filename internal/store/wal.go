package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WAL segment format. A segment file is the 8-byte magic followed by
// frames:
//
//	[4B big-endian length n][4B CRC-32C][n bytes: 1B op + payload]
//
// The checksum covers the n framed bytes, so a frame is valid only if
// its length field, op and payload all survived intact. A crash
// mid-append leaves a partial frame (or a frame whose checksum does
// not match the bytes that made it to disk); replay cuts the segment
// at the last intact frame and reports the discarded byte count.
// Nothing after the first bad frame is trusted — once the tail is
// torn, later bytes have no framing anchor.
const (
	walMagic  = "XRDWAL01"
	frameHead = 8 // length + checksum
	// maxRecordBytes bounds one record (op + payload). A length field
	// beyond it is treated as tail corruption, not an allocation
	// request.
	maxRecordBytes = 64 << 20
)

// crcTable is CRC-32C (Castagnoli), the checksum with hardware
// support on every platform the deployment targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Durable store.
type Options struct {
	// SegmentBytes rolls the WAL to a fresh segment once the current
	// one exceeds this size; zero means 4 MiB.
	SegmentBytes int64
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 4 << 20
	}
	return o.SegmentBytes
}

// Durable is the file-backed Store: a directory of WAL segments and
// snapshots. Concurrent use is serialised internally; one process
// must own a data directory at a time (the deployment scripts give
// every gateway shard its own -data-dir).
type Durable struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // current segment, opened for append
	seq    uint64   // current segment sequence number
	size   int64    // bytes written to the current segment
	closed bool
}

var _ Store = (*Durable)(nil)

func segmentName(seq uint64) string  { return fmt.Sprintf("wal-%016d.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.dat", seq) }

// parseSeq extracts the sequence number from a segment or snapshot
// file name, reporting whether the name matches the given prefix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// Open loads (or creates) a data directory: the newest intact
// snapshot is read, every segment at or after it is replayed —
// truncating torn tails — and the store is left positioned to append.
// Stale files a crash may have left behind (segments fully covered by
// the snapshot, superseded snapshots, abandoned temp files) are
// removed.
func Open(dir string, opts Options) (*Durable, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading %s: %w", dir, err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-snapshot leaves the temp file; it was never
			// installed, so it holds nothing recovery may use.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if n, ok := parseSeq(name, "wal-", ".log"); ok {
			segs = append(segs, n)
		}
		if n, ok := parseSeq(name, "snap-", ".dat"); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	rec := &Recovered{}
	// Newest intact snapshot wins. An older snapshot is only
	// consulted when the newest is damaged — possible if the crash
	// hit after rename but before the covered segments were removed,
	// in which case those segments still exist and replay covers the
	// gap.
	snapSeq := uint64(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		state, err := readSnapshot(filepath.Join(dir, snapshotName(snaps[i])))
		if err != nil {
			continue
		}
		snapSeq = snaps[i]
		rec.Snapshot = state
		break
	}

	for _, seq := range segs {
		path := filepath.Join(dir, segmentName(seq))
		if seq < snapSeq {
			// Fully covered by the snapshot: a crash between snapshot
			// install and segment cleanup left it behind.
			os.Remove(path)
			continue
		}
		truncated, err := replaySegment(path, rec)
		if err != nil {
			return nil, nil, err
		}
		rec.Truncated += truncated
		rec.Segments++
	}
	for _, s := range snaps {
		if s != snapSeq {
			os.Remove(filepath.Join(dir, snapshotName(s)))
		}
	}

	d := &Durable{dir: dir, opts: opts}
	// Append into the newest existing segment, or start the segment
	// the snapshot boundary names (snapshot snap-N covers everything
	// before segment N, so new records belong to N or later).
	d.seq = snapSeq
	if d.seq == 0 {
		d.seq = 1
	}
	if len(segs) > 0 && segs[len(segs)-1] >= d.seq {
		d.seq = segs[len(segs)-1]
	}
	if err := d.openSegment(); err != nil {
		return nil, nil, err
	}
	live := rec.Segments
	if live == 0 {
		live = 1
	}
	obsWalSegments.Set(int64(live))
	return d, rec, nil
}

// openSegment opens (creating if needed) the current segment for
// append, writing the magic into a fresh file. Callers hold d.mu or
// have exclusive access.
func (d *Durable) openSegment() error {
	path := filepath.Join(d.dir, segmentName(d.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: segment stat: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return fmt.Errorf("store: segment magic: %w", err)
		}
		d.size = int64(len(walMagic))
	} else {
		d.size = st.Size()
	}
	d.f = f
	return nil
}

// Append implements Store: frame one record into the current
// segment, rolling to a new segment past the size threshold.
func (d *Durable) Append(op Op, payload []byte) error {
	if len(payload)+1 > maxRecordBytes {
		return fmt.Errorf("store: record %d bytes exceeds %d", len(payload)+1, maxRecordBytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("store: closed")
	}
	if d.size >= d.opts.segmentBytes() {
		if err := d.rollLocked(); err != nil {
			return err
		}
	}
	frame := make([]byte, frameHead+1+len(payload))
	n := 1 + len(payload)
	binary.BigEndian.PutUint32(frame[0:4], uint32(n))
	frame[frameHead] = byte(op)
	copy(frame[frameHead+1:], payload)
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHead:], crcTable))
	if _, err := d.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending: %w", err)
	}
	d.size += int64(len(frame))
	obsWalAppends.Inc()
	obsWalBytes.Add(uint64(len(frame)))
	return nil
}

// rollLocked fsyncs and closes the current segment and starts the
// next. Callers hold d.mu.
func (d *Durable) rollLocked() error {
	t0 := time.Now()
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing rolled segment: %w", err)
	}
	obsWalFsyncSeconds.ObserveDuration(time.Since(t0))
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("store: closing rolled segment: %w", err)
	}
	d.seq++
	if err := d.openSegment(); err != nil {
		return err
	}
	obsWalSegments.Add(1)
	return nil
}

// Sync implements Store.
func (d *Durable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("store: closed")
	}
	t0 := time.Now()
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	obsWalFsyncSeconds.ObserveDuration(time.Since(t0))
	return nil
}

// Snapshot implements Store: roll to a fresh segment, atomically
// install the state image at the roll boundary, then retire every
// older segment and snapshot. Crash-safe at every step — until the
// rename the old snapshot plus full replay recovers, after it the
// new snapshot plus the fresh segment does; cleanup is re-run by the
// next Open if interrupted.
func (d *Durable) Snapshot(state []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("store: closed")
	}
	t0 := time.Now()
	oldSeq := d.seq
	if err := d.rollLocked(); err != nil {
		return err
	}
	if err := writeSnapshot(d.dir, snapshotName(d.seq), state); err != nil {
		return err
	}
	// The image covers everything before the new segment; older
	// segments and snapshots are now dead weight.
	for seq := oldSeq; seq > 0; seq-- {
		path := filepath.Join(d.dir, segmentName(seq))
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break // already cleaned; earlier ones are gone too
			}
			return fmt.Errorf("store: retiring segment: %w", err)
		}
	}
	removeOtherSnapshots(d.dir, d.seq)
	obsSnapshotSeconds.ObserveDuration(time.Since(t0))
	obsSnapshotBytes.Set(int64(len(state)))
	obsWalSegments.Set(1)
	return nil
}

// Close implements Store: sync, then release the segment handle.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return fmt.Errorf("store: closing sync: %w", err)
	}
	return d.f.Close()
}

// Crash abandons the store without syncing, simulating the process
// dying mid-write: whatever the OS has not yet flushed is at the
// mercy of the page cache, exactly as after a SIGKILL. Tests use it
// to exercise the recovery path; production code calls Close.
func (d *Durable) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.f.Close()
}

// replaySegment reads one segment's intact frames into rec,
// truncating the file at the first torn or corrupt frame. Returns
// the number of bytes cut.
func replaySegment(path string, rec *Recovered) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("store: opening segment for replay: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: replay stat: %w", err)
	}
	size := st.Size()

	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		// No intact header: an empty or foreign file. Truncate to a
		// fresh header so later appends are well-framed.
		if err := f.Truncate(0); err != nil {
			return 0, fmt.Errorf("store: truncating headerless segment: %w", err)
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			return 0, fmt.Errorf("store: rewriting segment magic: %w", err)
		}
		return size, nil
	}

	good := int64(len(walMagic))
	head := make([]byte, frameHead)
	for {
		if _, err := io.ReadFull(f, head); err != nil {
			break // clean EOF or torn header
		}
		n := int64(binary.BigEndian.Uint32(head[0:4]))
		sum := binary.BigEndian.Uint32(head[4:8])
		if n < 1 || n > maxRecordBytes {
			break // corrupt length: no framing anchor past here
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			break // torn body
		}
		if crc32.Checksum(body, crcTable) != sum {
			break // corrupt frame
		}
		rec.Records = append(rec.Records, Record{Op: Op(body[0]), Payload: body[1:]})
		good += frameHead + n
	}
	if good < size {
		if err := f.Truncate(good); err != nil {
			return 0, fmt.Errorf("store: truncating torn tail: %w", err)
		}
		return size - good, nil
	}
	return 0, nil
}
