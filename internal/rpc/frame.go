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
// of handlers whose typed adapter owns decoding and encoding. Batches
// cross it in bounded chunks (MaxHopChunkEnvelopes per frame).
//
// Three endpoints are built from it. Server/Client is the user-facing
// surface of a deployment: fetch chain parameters, submit a round's
// messages and covers, register, download and acknowledge a mailbox,
// and (for the round driver) trigger round execution; MultiClient adds
// owner routing and failover across gateway shards. ShardServer serves
// the same user methods for one gateway shard plus the coordinator's
// shard.* round protocol, carried by ShardClient (core.GatewayShard).
// HopServer/HopClient let the coordinator drive one remote mix
// position through a chain's round (mix.Hop), so a chain can span
// separate processes and machines. DESIGN.md's Transport section holds
// the method table.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single frame; a full round's submissions for
// one user are far below this, and the cap keeps a malicious peer
// from ballooning server memory.
const MaxFrameSize = 64 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rpc: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("rpc: writing frame body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame, enforcing MaxFrameSize.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("rpc: reading frame body: %w", err)
	}
	return buf, nil
}
