package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/client"
	"repro/internal/group"
	"repro/internal/mix"
	"repro/internal/nizk"
	"repro/internal/onion"
)

// Wire DTOs: every group element and proof crosses the network as
// canonical bytes and is re-validated on arrival (ParsePoint rejects
// off-curve encodings, ParseProof rejects non-canonical scalars).

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

// ParamsRequest asks for a chain's public parameters for a round.
type ParamsRequest struct {
	Chain int
	Round uint64
}

// ParamsResponse carries mix.Params in wire form.
type ParamsResponse struct {
	ChainID        int
	Round          uint64
	MixKeys        [][]byte
	BlindKeys      [][]byte
	BaselineKeys   [][]byte
	InnerAggregate []byte
}

// WireSubmission is one onion.Submission in wire form. Proof is a
// commitment-format knowledge proof (nizk.DlogProofSize bytes).
type WireSubmission struct {
	Chain int
	DHKey []byte
	Ct    []byte
	Proof []byte
}

// SubmitRequest carries a user's full round output: current messages
// for Round and covers for Round+1 (§5.3.3). Mailbox identifies the
// submitter for cover bookkeeping only; chains never see it.
type SubmitRequest struct {
	Round   uint64
	Mailbox []byte
	Current []WireSubmission
	Cover   []WireSubmission
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

// RunRoundResponse summarises an executed round for the driver.
type RunRoundResponse struct {
	Round          uint64
	Delivered      int
	HaltedChains   []int
	FailedChains   []int
	BlamedUsers    []string
	OfflineCovered int
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

// paramsToWire converts mix.Params for transmission. The per-chain
// key columns are whole slices of points, so they go through the
// batch encode seam rather than point-by-point marshalling.
func paramsToWire(p mix.Params) ParamsResponse {
	return ParamsResponse{
		ChainID:        p.ChainID,
		Round:          p.Round,
		InnerAggregate: p.InnerAggregate.Bytes(),
		MixKeys:        group.EncodePoints(p.MixKeys),
		BlindKeys:      group.EncodePoints(p.BlindKeys),
		BaselineKeys:   group.EncodePoints(p.BaselineKeys),
	}
}

// paramsFromWire validates and converts a received ParamsResponse.
func paramsFromWire(w ParamsResponse) (mix.Params, error) {
	p := mix.Params{ChainID: w.ChainID, Round: w.Round}
	var err error
	if p.InnerAggregate, err = group.ParsePoint(w.InnerAggregate); err != nil {
		return mix.Params{}, fmt.Errorf("rpc: inner aggregate: %w", err)
	}
	if p.MixKeys, err = group.ParsePoints(w.MixKeys); err != nil {
		return mix.Params{}, fmt.Errorf("rpc: mix key: %w", err)
	}
	if p.BlindKeys, err = group.ParsePoints(w.BlindKeys); err != nil {
		return mix.Params{}, fmt.Errorf("rpc: blind key: %w", err)
	}
	if p.BaselineKeys, err = group.ParsePoints(w.BaselineKeys); err != nil {
		return mix.Params{}, fmt.Errorf("rpc: baseline key: %w", err)
	}
	return p, nil
}

// paramsSliceToWire converts a per-chain parameter snapshot. Chains
// in the dead list carry zero parameters (they failed to announce) and
// are sent as empty entries.
func paramsSliceToWire(ps []mix.Params, dead []int) []ParamsResponse {
	out := make([]ParamsResponse, len(ps))
	for c, p := range ps {
		if slices.Contains(dead, c) || p.InnerAggregate.IsIdentity() {
			continue
		}
		out[c] = paramsToWire(p)
	}
	return out
}

// paramsSliceFromWire validates and converts a received snapshot;
// empty entries (dead chains) stay zero.
func paramsSliceFromWire(ws []ParamsResponse) ([]mix.Params, error) {
	out := make([]mix.Params, len(ws))
	for c, w := range ws {
		if len(w.InnerAggregate) == 0 {
			continue
		}
		p, err := paramsFromWire(w)
		if err != nil {
			return nil, fmt.Errorf("rpc: chain %d params: %w", c, err)
		}
		out[c] = p
	}
	return out, nil
}

// submissionToWire converts a chain submission for transmission.
func submissionToWire(chain int, s onion.Submission) WireSubmission {
	return WireSubmission{
		Chain: chain,
		DHKey: s.DHKey.Bytes(),
		Ct:    append([]byte(nil), s.Ct...),
		Proof: s.Proof.Bytes(),
	}
}

// submissionFromWire validates and converts a received submission.
func submissionFromWire(w WireSubmission) (int, onion.Submission, error) {
	key, err := group.ParsePoint(w.DHKey)
	if err != nil {
		return 0, onion.Submission{}, fmt.Errorf("rpc: submission key: %w", err)
	}
	proof, err := nizk.ParseDlogProof(w.Proof)
	if err != nil {
		return 0, onion.Submission{}, fmt.Errorf("rpc: submission proof: %w", err)
	}
	return w.Chain, onion.Submission{
		Envelope: onion.Envelope{DHKey: key, Ct: w.Ct},
		Proof:    proof,
	}, nil
}

// submitFromWire converts a SubmitRequest into the client round
// output core expects, validating every group element.
func submitFromWire(sr *SubmitRequest) (*client.RoundOutput, error) {
	out := &client.RoundOutput{Round: sr.Round}
	for _, w := range sr.Current {
		chain, sub, err := submissionFromWire(w)
		if err != nil {
			return nil, err
		}
		out.Current = append(out.Current, client.ChainMessage{Chain: chain, Sub: sub})
	}
	for _, w := range sr.Cover {
		chain, sub, err := submissionFromWire(w)
		if err != nil {
			return nil, err
		}
		out.Cover = append(out.Cover, client.ChainMessage{Chain: chain, Sub: sub})
	}
	return out, nil
}
