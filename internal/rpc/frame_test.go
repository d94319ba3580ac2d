package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// rawFrame is a frame around payload, for tests that speak bytes
// rather than gob.
func rawFrame(payload []byte) *bytes.Buffer {
	frame := NewFrame()
	frame.Write(payload)
	return frame
}

// prefixed is what a peer puts on the wire to claim an n-byte frame
// and then deliver only body.
func prefixed(n uint32, body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), body...)
}

// countingWriter counts Write calls and bytes.
type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 5000), make([]byte, 3<<20)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, rawFrame(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame round trip: got %d bytes, want %d", len(got), len(p))
		}
	}
}

// TestFrameIsOneWrite: prefix and payload leave in a single Write, so
// a frame is one TLS record run and one syscall, not two.
func TestFrameIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, rawFrame(make([]byte, 1000))); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 || w.bytes != prefixLen+1000 {
		t.Fatalf("%d writes, %d bytes; want 1 write of %d", w.writes, w.bytes, prefixLen+1000)
	}
}

// TestFrameSizeLimit: MaxFrameSize is enforced on both sides before
// anything moves — nothing is written for an oversized payload, and an
// oversized prefix is refused without reading on.
func TestFrameSizeLimit(t *testing.T) {
	var w countingWriter
	big := make([]byte, prefixLen+MaxFrameSize+1)
	err := WriteFrame(&w, bytes.NewBuffer(big))
	if !errors.Is(err, ErrFrameTooLarge) || w.writes != 0 {
		t.Fatalf("oversized payload: err %v after %d writes", err, w.writes)
	}
	if err := WriteFrame(&w, bytes.NewBuffer(big[:len(big)-1])); err != nil {
		t.Fatalf("payload of exactly MaxFrameSize refused: %v", err)
	}
	r := bytes.NewReader(prefixed(MaxFrameSize+1, []byte("body")))
	if _, err := ReadFrame(r); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: %v", err)
	}
	if r.Len() != len("body") {
		t.Fatal("ReadFrame read past a prefix it refused")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, rawFrame([]byte("hello world"))); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean end of stream: %v, want io.EOF itself", err)
	}
}

// allocated reports the bytes fn allocates, by TotalAlloc: what a
// peer made this process allocate whether or not it was kept. The
// counter is process-wide, so a measurement above limit is repeated:
// another goroutine's allocations can land in one run of a
// deterministic fn, not in every one.
func allocated(limit uint64, fn func()) uint64 {
	var before, after runtime.MemStats
	got := ^uint64(0)
	for try := 0; try < 3 && got > limit; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	return got
}

// TestFrameAllocationFollowsBytes: the prefix is a claim, not an
// allocation. A peer that announces the largest frame there is, sends
// a few bytes and hangs up has cost the receiver kilobytes.
func TestFrameAllocationFollowsBytes(t *testing.T) {
	stream := prefixed(MaxFrameSize, []byte("a few bytes"))
	var err error
	const limit = 2 << 20
	got := allocated(limit, func() { _, err = ReadFrame(bytes.NewReader(stream)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short frame: %v", err)
	}
	if got >= limit {
		t.Fatalf("a %d-byte stream claiming %d made ReadFrame allocate %d bytes", len(stream), MaxFrameSize, got)
	}
}

// FuzzReadFrame: any byte stream is an error or a frame, never a
// panic, the frame is exactly the bytes that followed its prefix, and
// what ReadFrame allocates is bounded by the bytes supplied, never by
// the prefix: under 4× for the buffer's doublings (twice that under
// the race detector, whose build does not fuse the grow's make and
// copy), plus slack for the runtime.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(prefixed(0, nil))
	f.Add(prefixed(5, []byte("hello, and the next frame")))
	f.Add(prefixed(MaxFrameSize, []byte("short")))
	f.Add(prefixed(MaxFrameSize+1, nil))
	f.Add(prefixed(1<<31, bytes.Repeat([]byte{0xFF}, 64)))
	f.Add(prefixed(3000, make([]byte, 3000)))
	f.Fuzz(func(t *testing.T, stream []byte) {
		var payload []byte
		var err error
		limit := uint64(8*len(stream) + 64<<10)
		if got := allocated(limit, func() { payload, err = ReadFrame(bytes.NewReader(stream)) }); got > limit {
			t.Fatalf("%d-byte stream made ReadFrame allocate %d bytes", len(stream), got)
		}
		if err != nil {
			return
		}
		n := binary.BigEndian.Uint32(stream)
		if n > MaxFrameSize || !bytes.Equal(payload, stream[prefixLen:prefixLen+int(n)]) {
			t.Fatalf("prefix %d: frame of %d bytes is not what followed the prefix", n, len(payload))
		}
	})
}
