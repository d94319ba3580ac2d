package rpc

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/chainsel"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mix"
)

// userMethods is the user-facing part of a gateway shard's method
// table: parameter distribution, message submission, registration,
// mailbox download and acknowledgement, all served by the Frontend that
// holds the users. Server and ShardServer add their own status (and
// round-driving or shard.*) methods to it.
func userMethods(fe *core.Frontend) map[string]handler {
	return map[string]handler{
		"params": typed(func(r *ParamsRequest) (mix.Params, error) {
			return fe.ChainParams(r.Chain, r.Round)
		}),
		"submit": typed(func(r *SubmitRequest) (SubmitResponse, error) {
			out := &client.RoundOutput{Round: r.Round, Current: r.Current, Cover: r.Cover}
			if err := checkRow(fe.Plan(), r.Mailbox, out); err != nil {
				return SubmitResponse{}, err
			}
			if err := fe.SubmitExternal(string(r.Mailbox), out); err != nil {
				return SubmitResponse{}, err
			}
			return SubmitResponse{Accepted: true}, nil
		}),
		"register": typed(func(r *RegisterRequest) (RegisterResponse, error) {
			if err := fe.Register(r.Mailboxes...); err != nil {
				return RegisterResponse{}, err
			}
			return RegisterResponse{Registered: len(r.Mailboxes)}, nil
		}),
		"fetch": typed(func(r *FetchRequest) (FetchResponse, error) {
			return FetchResponse{Messages: fe.FetchMailbox(r.Round, r.Mailbox)}, nil
		}),
		"ack": typed(func(r *AckRequest) (AckResponse, error) {
			return AckResponse{Pruned: fe.AckMailbox(r.Round, r.Mailbox)}, nil
		}),
	}
}

// checkRow refuses a submission unless each non-empty lane is the
// sender's row under plan, in order: one message to each of her ℓ
// chains (§5.3.1), so the wire sees ℓ messages from her whoever sends
// them. A shard without a plan, or an identifier that is not a key's
// length, is left to SubmitExternal, which refuses both.
func checkRow(plan *chainsel.Plan, mailbox []byte, out *client.RoundOutput) error {
	if plan == nil || len(mailbox) != group.PointSize {
		return nil
	}
	row := plan.ChainsForUser(mailbox)
	onRow := func(cm client.ChainMessage, c int) bool { return cm.Chain == c }
	for _, lane := range [][]client.ChainMessage{out.Current, out.Cover} {
		if len(lane) > 0 && !slices.EqualFunc(lane, row, onRow) {
			return fmt.Errorf("rpc: submission for round %d is not the sender's row of %d chains", out.Round, len(row))
		}
	}
	return nil
}

// Server is the round coordinator's endpoint: deployment status, round
// driving and chain parameters, all from the coordinator's own chains.
// In a single-process deployment it also serves the users of the one
// Frontend it is given; a sharded coordinator holds no users and
// refuses submit, register, fetch and ack, which its gateway shards
// serve. Connection handling (deadlines, shutdown) lives in
// listenerCore.
type Server struct {
	*listenerCore
	network *core.Network
	fe      *core.Frontend
}

// NewServer starts a TLS listener on addr (e.g. "127.0.0.1:0") serving
// the given coordinator and, when fe is non-nil, that Frontend's users.
// Connections are handled until Close.
func NewServer(network *core.Network, fe *core.Frontend, addr string) (*Server, error) {
	s := &Server{network: network, fe: fe}
	var methods map[string]handler
	if fe != nil {
		methods = userMethods(fe)
	} else {
		methods = make(map[string]handler)
		for _, name := range []string{"submit", "register", "fetch", "ack"} {
			methods[name] = func(frameBody) (*bytes.Buffer, error) {
				return nil, fmt.Errorf("rpc: %s refused: this coordinator holds no users; use the gateway shard owning the mailbox", name)
			}
		}
	}
	methods["params"] = typed(func(r *ParamsRequest) (mix.Params, error) {
		return network.ChainParams(r.Chain, r.Round)
	})
	methods["status"] = typed(s.status)
	methods["runround"] = typed(s.runRound)
	lc, err := newListenerCore(addr, nil, nil, methods)
	if err != nil {
		return nil, err
	}
	s.listenerCore = lc
	return s, nil
}

func (s *Server) status(*struct{}) (StatusResponse, error) {
	resp := StatusResponse{
		Round:       s.network.Round(),
		NumChains:   s.network.NumChains(),
		ChainLength: s.network.Topology().ChainLength,
		L:           s.network.Plan().L,
		Epoch:       s.network.Epoch(),
		Role:        "coordinator",
	}
	if s.fe != nil {
		resp.Users, resp.Outcomes = s.fe.NumUsers(), s.fe.Outcomes()
	}
	return resp, nil
}

func (s *Server) runRound(*struct{}) (*core.RoundReport, error) {
	return s.network.RunRound()
}
