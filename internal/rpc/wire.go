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

// request wraps every client->server message with a method tag.
type request struct {
	Method string
	Body   []byte
}

// response wraps every server->client message; Err is empty on
// success.
type response struct {
	Err  string
	Body []byte
}

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

func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: encoding %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

func decode(b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("rpc: decoding %T: %w", v, err)
	}
	return nil
}
