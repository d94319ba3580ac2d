// Package rpc is the network transport of this reproduction:
// length-prefixed gob frames over TCP with TLS 1.3 and pinned
// certificates, standing in for the prototype's streaming gRPC over
// TLS (§7).
//
// There is one transport. Its dialing half is link (transport.go): a
// small connection pool per endpoint and a single request/response
// exchange, with each method's deadline class and retry rule read from
// one table (policies). Its serving half is listenerCore
// (listener.go): the TLS listener, the per-connection frame loop with
// idle and write deadlines, and dispatch by method name into a table
// of handlers whose typed adapter owns decoding and encoding. A
// message is one frame, however large the batch inside it: carrying a
// round-sized body is this file's job, not the protocol's. A listener
// grows a frame's buffer as its bytes arrive (ReadFrame); a caller
// reads the reply of a server it pinned into one buffer (readFrame).
//
// Three endpoints are built from it, each a method-for-method mapping
// of an interface the rest of the system already has. Server/Client is
// the user-facing surface of a deployment: fetch chain parameters,
// submit a round's messages and covers, register, download and
// acknowledge a mailbox, and (for the round driver) trigger round
// execution; MultiClient adds owner routing and failover across
// gateway shards. ShardServer serves the same user methods for one
// gateway shard plus the coordinator's shard.* methods, one per
// core.GatewayShard method, carried by ShardClient. HopServer and
// HopClient are mix.Hop, one hop.* exchange per method, so a chain can
// span separate processes and machines. DESIGN.md's Transport section
// holds the method table.
package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize is the one message cap of the transport: no sender
// emits more, and no receiver reads more for a single message. It is
// sized from the largest message the seams produce at the scale the
// ROADMAP targets, not from a chunking rule: a hop batch is 517 B a
// message at k = 6, so 1M registered / 100k active users is ≈ 52 MB per
// hop.mix and the paper's headline point (2M users, 100 chains) is
// ≈ 145 MB; a gateway shard's build is bounded by adding shards. A
// listener's peer makes it allocate at most about five times what it
// sent; a pinned hop or shard server turned hostile can make the
// coordinator allocate MaxFrameSize a call in flight, by announcing it.
const MaxFrameSize = 256 << 20

// prefixLen is the big-endian payload length in front of every frame.
const prefixLen = 4

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// NewFrame returns an empty frame for a payload to be written into:
// the length prefix is already reserved, so the payload is encoded in
// place and WriteFrame sends prefix and payload as one Write.
func NewFrame() *bytes.Buffer {
	frame := new(bytes.Buffer)
	frame.Write(make([]byte, prefixLen))
	return frame
}

// WriteFrame fills in the prefix of a frame built on NewFrame and
// sends it with a single Write. An oversized payload is refused before
// anything is sent.
func WriteFrame(w io.Writer, frame *bytes.Buffer) error {
	b := frame.Bytes()
	n := len(b) - prefixLen
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("rpc: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame's payload by the listener's rule. The
// prefix is only a claim: it is refused above MaxFrameSize, and below
// it the buffer grows as bytes arrive, from at most 32 KiB in steps of
// at most four times what has been read: a peer that announces a large
// frame and stalls has made the receiver allocate at most about five
// times what it sent, and an honest frame costs at most 4/3 its length.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r, 32<<10) }

// readFrame reads a frame whose first step is at most first bytes; a
// caller reading its reply passes MaxFrameSize, for one exact buffer.
func readFrame(r io.Reader, first int) ([]byte, error) {
	var hdr [prefixLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	step := int(n)
	for step > first {
		step = (step + 3) / 4
	}
	buf := []byte{}
	for ; len(buf) < int(n); step = min(int(n), 4*step) {
		read := len(buf)
		buf = append(make([]byte, 0, step), buf...)[:step]
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("rpc: reading frame body: %w", err)
		}
	}
	return buf, nil
}
