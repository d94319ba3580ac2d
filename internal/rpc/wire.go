package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/client"
)

// Messages are gob-encoded domain types: mix.Params, onion.Submission,
// core.RoundReport and the rest cross the network as themselves, and
// the group elements inside them validate on arrival in
// group.Point/Scalar.UnmarshalBinary (off-curve encodings and
// non-canonical scalars are decode errors). The structs declared here
// are the per-method requests and replies that no domain type already
// is.
//
// A frame's payload is one gob stream of two values: a string, then
// the body. In a request the string is the method name; in a reply it
// is the error, empty on success, and a failed call has no body. One
// encoder writes both straight into the frame, so a body is encoded
// once and copied never; the reader decodes the string and hands the
// same decoder, positioned at the body, to whoever knows its type.

// ParamsRequest asks for a chain's public parameters (a mix.Params)
// for a round.
type ParamsRequest struct {
	Chain int
	Round uint64
}

// SubmitRequest carries a user's full round output: current messages
// for Round and covers for Round+1 (§5.3.3). Mailbox identifies the
// submitter for cover bookkeeping only; chains never see it.
type SubmitRequest struct {
	Round   uint64
	Mailbox []byte
	Current []client.ChainMessage
	Cover   []client.ChainMessage
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	Accepted bool
}

// FetchRequest downloads a mailbox for a round.
type FetchRequest struct {
	Round   uint64
	Mailbox []byte
}

// FetchResponse carries the mailbox contents.
type FetchResponse struct {
	Messages [][]byte
}

// AckRequest confirms receipt of a round's mailbox contents so the
// gateway can prune them (and, under a durable store, compact them
// out at the next snapshot).
type AckRequest struct {
	Round   uint64
	Mailbox []byte
}

// AckResponse reports how many messages the ack pruned.
type AckResponse struct {
	Pruned int
}

// StatusResponse describes the deployment as seen from one endpoint.
type StatusResponse struct {
	Round       uint64
	NumChains   int
	ChainLength int
	L           int
	// Epoch is the topology epoch; clients compare it across polls to
	// notice a re-formation and rebuild against the new plan.
	Epoch uint64
	// Role distinguishes endpoint kinds: "coordinator" serves the full
	// monolith API, "gateway" a shard of the user base.
	Role string
	// ShardLo/ShardHi are the registry-shard range a gateway shard
	// owns ([0, 64) half-open); both zero on a coordinator.
	ShardLo, ShardHi int
	// Users is the registered, non-removed population behind this
	// endpoint.
	Users int
}

// RegisterRequest records mailbox identifiers with a gateway, in
// batches so a large population can be registered in few exchanges.
type RegisterRequest struct {
	Mailboxes [][]byte
}

// RegisterResponse reports how many identifiers were accepted.
type RegisterResponse struct {
	Registered int
}

// encodeFrame builds the frame for head and body; a nil body is
// omitted.
func encodeFrame(head string, body any) (*bytes.Buffer, error) {
	frame := NewFrame()
	enc := gob.NewEncoder(frame)
	if err := enc.Encode(head); err != nil {
		return nil, fmt.Errorf("rpc: encoding frame header: %w", err)
	}
	if body != nil {
		if err := enc.Encode(body); err != nil {
			return nil, fmt.Errorf("rpc: encoding %T: %w", body, err)
		}
	}
	return frame, nil
}

// openFrame decodes a payload's leading string and returns it with
// the decoder positioned at the body.
func openFrame(payload []byte) (string, *gob.Decoder, error) {
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var head string
	if err := dec.Decode(&head); err != nil {
		return "", nil, fmt.Errorf("rpc: decoding frame header: %w", err)
	}
	return head, dec, nil
}

// decodeBody decodes the body a frame's decoder is positioned at.
func decodeBody(dec *gob.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("rpc: decoding %T: %w", v, err)
	}
	return nil
}
