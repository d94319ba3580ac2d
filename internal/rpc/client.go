package rpc

import (
	"crypto/tls"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mix"
)

// Client is a remote user's connection to an XRD gateway. It
// implements client.ParamsSource, so a client.User can build rounds
// against a remote deployment exactly as against an in-process one.
// The coordinator's ShardClient rides on one too. Connections are
// pooled and self-healing; see link.
type Client struct {
	// Timeout bounds one call's write-request/read-response exchange;
	// zero disables the deadline. Defaults to DefaultCallTimeout.
	Timeout time.Duration

	*link

	// paramsCache avoids refetching identical (chain, round) params
	// during one BuildRound (2ℓ lookups), and is where a remote
	// client's keys get their fixed-key tables (mix.Params.Precomputed).
	// It holds the newest round fetched and the one before it — what
	// mix.Chain itself keeps — so a long-lived client's memory does not
	// grow with the rounds it has seen.
	paramsMu    sync.Mutex
	paramsCache map[[2]uint64]mix.Params
	newestRound uint64
}

var _ client.ParamsSource = (*Client)(nil)

// Dial connects to a gateway with the pinned TLS configuration
// obtained from the deployment (Server.ClientTLS or the PKI).
func Dial(addr string, tlsCfg *tls.Config) (*Client, error) {
	c := NewClient(addr, tlsCfg)
	conn, err := c.get(false)
	if err != nil {
		return nil, fmt.Errorf("rpc: dialing %s: %w", addr, err)
	}
	c.put(conn)
	return c, nil
}

// NewClient creates a client without connecting; the first call
// dials. Use it when the target may not be up yet, or when failover
// logic (MultiClient) should decide lazily which gateways to touch.
func NewClient(addr string, tlsCfg *tls.Config) *Client {
	c := &Client{Timeout: DefaultCallTimeout, paramsCache: make(map[[2]uint64]mix.Params)}
	c.link = &link{
		addr:      addr,
		tlsCfg:    tlsCfg,
		dials:     obsClientDials,
		idleReaps: obsClientIdleRedials,
		timeout: func(class deadlineClass) time.Duration {
			if class == classBuild {
				return DefaultShardCallTimeout
			}
			return c.Timeout
		},
	}
	return c
}

// Addr returns the gateway address this client targets.
func (c *Client) Addr() string { return c.addr }

// Close closes the client's connections; subsequent calls fail.
func (c *Client) Close() error { c.link.close(); return nil }

// ChainParams fetches (and caches) a chain's parameters for a round.
func (c *Client) ChainParams(chain int, round uint64) (mix.Params, error) {
	key := [2]uint64{uint64(chain), round}
	c.paramsMu.Lock()
	if p, ok := c.paramsCache[key]; ok {
		c.paramsMu.Unlock()
		return p, nil
	}
	c.paramsMu.Unlock()

	var p mix.Params
	if err := c.call("params", ParamsRequest{Chain: chain, Round: round}, &p); err != nil {
		return mix.Params{}, err
	}
	c.paramsMu.Lock()
	defer c.paramsMu.Unlock()
	// The chain's mix keys rarely change between rounds: keep the
	// previous round's points, and with them their tables, so a lone
	// client does not rebuild epoch-long tables every round.
	p = p.Precomputed(c.paramsCache[[2]uint64{uint64(chain), round - 1}])
	if round > c.newestRound {
		c.newestRound = round
		for k := range c.paramsCache {
			if k[1]+1 < round {
				delete(c.paramsCache, k)
			}
		}
	}
	if round+1 >= c.newestRound {
		c.paramsCache[key] = p
	}
	return p, nil
}

// Submit uploads a user's round output (current messages + covers).
func (c *Client) Submit(mailbox []byte, out *client.RoundOutput) error {
	req := SubmitRequest{Round: out.Round, Mailbox: mailbox, Current: out.Current, Cover: out.Cover}
	var resp SubmitResponse
	if err := c.call("submit", req, &resp); err != nil {
		return err
	}
	if !resp.Accepted {
		return errors.New("rpc: submission rejected")
	}
	return nil
}

// Fetch downloads a mailbox for a round.
func (c *Client) Fetch(round uint64, mailbox []byte) ([][]byte, error) {
	var resp FetchResponse
	err := c.call("fetch", FetchRequest{Round: round, Mailbox: mailbox}, &resp)
	return resp.Messages, err
}

// Ack confirms receipt of a round's mailbox contents, letting the
// gateway prune them. Returns the number of messages pruned.
func (c *Client) Ack(round uint64, mailbox []byte) (int, error) {
	var resp AckResponse
	err := c.call("ack", AckRequest{Round: round, Mailbox: mailbox}, &resp)
	return resp.Pruned, err
}

// Status reports the deployment's shape and current round.
func (c *Client) Status() (StatusResponse, error) {
	var resp StatusResponse
	err := c.call("status", struct{}{}, &resp)
	return resp, err
}

// RunRound triggers execution of the open round (round driver role).
func (c *Client) RunRound() (core.RoundReport, error) {
	var rep core.RoundReport
	err := c.call("runround", struct{}{}, &rep)
	return rep, err
}

// Register records a batch of mailbox identifiers with the gateway:
// the registered-but-not-necessarily-active population the cover
// traffic model sizes against. Identifiers a gateway shard does not
// own are rejected.
func (c *Client) Register(mailboxes [][]byte) (int, error) {
	var resp RegisterResponse
	err := c.call("register", RegisterRequest{Mailboxes: mailboxes}, &resp)
	return resp.Registered, err
}
