package rpc

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
	"repro/internal/nizk"
)

// Messages are gob-encoded domain types: mix.Params, onion.Submission,
// core.RoundReport and the rest cross the network as themselves, and
// the group elements inside them validate on arrival in
// group.Point/Scalar.UnmarshalBinary (off-curve encodings and
// non-canonical scalars are decode errors). The structs declared here
// are the per-method requests and replies that no domain type already
// is.
//
// A frame's payload is one gob stream of two values, a string and then
// the body, written by one encoder straight into the frame. In a
// request the string is the method name; in a reply it is the error,
// empty on success, and a failed call has no body. A body with a block
// field (hop.mix's onion.Batch both ways, shard.begin's reply's
// core.ChainBatches) crosses with that field zero in gob and the block
// appended raw after it, into the frame grown once; the reader decodes
// the block in place from the frame it read, keys x‖y.

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
	// Role distinguishes endpoint kinds: "coordinator" drives rounds
	// (and, in a single-process deployment, serves its one Frontend's
	// users), "gateway" a shard of the user base.
	Role string
	// ShardLo/ShardHi are the registry-shard range a gateway shard
	// owns ([0, 64) half-open); both zero on a coordinator.
	ShardLo, ShardHi int
	// Users is the registered, non-removed population behind this
	// endpoint.
	Users int
	// Outcomes are the last two finished rounds' outcomes, from the
	// parameter snapshot a gateway serves; a client settles its
	// drained bodies with them (client.User.Settle).
	Outcomes []client.Outcome
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

// gob numbers a type the first time the process sends it, process-wide
// and from 64 up, and a number from 128 up takes one more byte in every
// frame whose type descriptors name it. init sends every request and
// reply body once, in one fixed order, so each type's number, and so
// each frame's size, does not depend on what the process encoded first
// (TestWireSizes, run alone or with its package).
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, body := range []any{
		ParamsRequest{}, mix.Params{},
		SubmitRequest{}, SubmitResponse{},
		RegisterRequest{}, RegisterResponse{},
		FetchRequest{}, FetchResponse{},
		AckRequest{}, AckResponse{},
		struct{}{}, StatusResponse{}, core.RoundReport{},
		HopInitRequest{}, mix.HopKeys{},
		HopBeginRequest{}, HopBeginResponse{},
		HopRevealRequest{}, HopRevealResponse{},
		HopMixRequest{}, mix.MixResult{},
		HopCertifyRequest{}, nizk.Proof{},
		HopBlameRequest{}, mix.BlameReveal{},
		HopAccuseRequest{}, mix.AccuseReveal{},
		ShardInitRequest{}, ShardInitResponse{},
		core.BeginRound{}, core.ShardBuild{},
		core.FinishRound{}, core.FinishStats{},
		ShardRebalanceRequest{}, ack{},
	} {
		if err := enc.Encode(body); err != nil {
			panic(fmt.Sprintf("rpc: registering %T: %v", body, err))
		}
	}
}

// block is a batch that crosses raw after its body's gob.
type block interface {
	AppendBinary([]byte) ([]byte, error)
	Decode([]byte) error
}

// blockField returns the struct body is or points to and its block
// field's index, or -1.
func blockField(body any) (reflect.Value, int) {
	v := reflect.Indirect(reflect.ValueOf(body))
	if v.Kind() == reflect.Struct {
		for i := range v.NumField() {
			if reflect.PointerTo(v.Field(i).Type()).Implements(reflect.TypeFor[block]()) {
				return v, i
			}
		}
	}
	return v, -1
}

// encodeFrame builds the frame for head and body; a nil body is
// omitted.
func encodeFrame(head string, body any) (*bytes.Buffer, error) {
	var blk encoding.BinaryAppender
	if v, i := blockField(body); i >= 0 {
		blk = v.Field(i).Interface().(encoding.BinaryAppender)
		hdr := reflect.New(v.Type()).Elem()
		hdr.Set(v)
		hdr.Field(i).SetZero()
		body = hdr.Interface()
	}
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
	if blk != nil {
		b, err := blk.AppendBinary(frame.Bytes())
		if err != nil {
			return nil, fmt.Errorf("rpc: encoding %T: %w", body, err)
		}
		frame = bytes.NewBuffer(b)
	}
	return frame, nil
}

// frameBody is a payload past its head: the body's gob, then its block.
type frameBody struct {
	dec     *gob.Decoder
	r       *bytes.Reader
	payload []byte
}

// openFrame decodes a payload's leading string and returns it with
// the body that follows.
func openFrame(payload []byte) (string, frameBody, error) {
	r := bytes.NewReader(payload)
	body := frameBody{dec: gob.NewDecoder(r), r: r, payload: payload}
	var head string
	if err := body.dec.Decode(&head); err != nil {
		return "", body, fmt.Errorf("rpc: decoding frame header: %w", err)
	}
	return head, body, nil
}

// decodeBody decodes a body into v, a pointer: gob, then v's block.
func decodeBody(body frameBody, v any) error {
	if err := body.dec.Decode(v); err != nil {
		return fmt.Errorf("rpc: decoding %T: %w", v, err)
	}
	if s, i := blockField(v); i >= 0 {
		rest := body.payload[len(body.payload)-body.r.Len():]
		if err := s.Field(i).Addr().Interface().(block).Decode(rest); err != nil {
			return fmt.Errorf("rpc: decoding %T: %w", v, err)
		}
	}
	return nil
}
