package rpc

import (
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
)

// gateway is what the user-facing methods need from the deployment
// behind an endpoint. *core.Network (the monolith) and *core.Frontend
// (one gateway shard) both provide it.
type gateway interface {
	ChainParams(chain int, round uint64) (mix.Params, error)
	SubmitExternal(mailbox string, out *client.RoundOutput) error
	Register(mailboxes ...[]byte) error
	FetchMailbox(round uint64, mailbox []byte) [][]byte
	AckMailbox(round uint64, mailbox []byte) int
}

// userMethods is the user-facing part of a gateway endpoint's method
// table: parameter distribution, message submission, registration,
// mailbox download and acknowledgement. Server and ShardServer add
// their own status (and round-driving or shard.*) methods to it.
func userMethods(g gateway) map[string]handler {
	return map[string]handler{
		"params": typed(func(r *ParamsRequest) (mix.Params, error) {
			return g.ChainParams(r.Chain, r.Round)
		}),
		"submit": typed(func(r *SubmitRequest) (SubmitResponse, error) {
			out := &client.RoundOutput{Round: r.Round, Current: r.Current, Cover: r.Cover}
			if err := g.SubmitExternal(string(r.Mailbox), out); err != nil {
				return SubmitResponse{}, err
			}
			return SubmitResponse{Accepted: true}, nil
		}),
		"register": typed(func(r *RegisterRequest) (RegisterResponse, error) {
			if err := g.Register(r.Mailboxes...); err != nil {
				return RegisterResponse{}, err
			}
			return RegisterResponse{Registered: len(r.Mailboxes)}, nil
		}),
		"fetch": typed(func(r *FetchRequest) (FetchResponse, error) {
			return FetchResponse{Messages: g.FetchMailbox(r.Round, r.Mailbox)}, nil
		}),
		"ack": typed(func(r *AckRequest) (AckResponse, error) {
			return AckResponse{Pruned: g.AckMailbox(r.Round, r.Mailbox)}, nil
		}),
	}
}

// Server exposes a core.Network to remote users over TLS: the user
// methods plus deployment status and round driving. Connection
// handling (deadlines, shutdown) lives in listenerCore.
type Server struct {
	*listenerCore
	network *core.Network
}

// NewServer starts a TLS listener on addr (e.g. "127.0.0.1:0")
// serving the given network. Connections are handled until Close.
func NewServer(network *core.Network, addr string) (*Server, error) {
	s := &Server{network: network}
	methods := userMethods(network)
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
	return StatusResponse{
		Round:       s.network.Round(),
		NumChains:   s.network.NumChains(),
		ChainLength: s.network.Topology().ChainLength,
		L:           s.network.Plan().L,
		Epoch:       s.network.Epoch(),
		Role:        "coordinator",
		Users:       s.network.NumUsers(),
	}, nil
}

func (s *Server) runRound(*struct{}) (*core.RoundReport, error) {
	return s.network.RunRound()
}
