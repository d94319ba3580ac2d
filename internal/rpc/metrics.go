package rpc

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// RPC-layer observability. Counters and histograms live in the
// process-wide obs.Default registry; client-side metrics surface on
// whichever process holds the client (the coordinator for hop and
// shard clients, user tooling for MultiClient), server-side ones on
// the process behind the listener. Everything on a request path is a
// pre-created metric recorded with atomic ops only.
var (
	// Connection churn per kind of link — Client (users, and the
	// coordinator's shard handles) and HopClient: dials, and stale
	// pooled connections discarded on checkout.
	obsClientDials       = obs.GetOrCreateCounter("xrd_rpc_client_dials_total")
	obsClientIdleRedials = obs.GetOrCreateCounter("xrd_rpc_client_idle_redials_total")
	obsHopDials          = obs.GetOrCreateCounter("xrd_rpc_hop_dials_total")
	obsHopIdleReaps      = obs.GetOrCreateCounter("xrd_rpc_hop_idle_conns_reaped_total")

	// Exchanges that ended in a *TransportError, on any link.
	obsClientTransportErrors = obs.GetOrCreateCounter("xrd_rpc_client_transport_errors_total")

	// MultiClient failover machinery: retriable errors that moved the
	// client on to the next gateway or retry cycle, full retry cycles,
	// and the backoff pauses between them.
	obsFailovers      = obs.GetOrCreateCounter("xrd_rpc_failovers_total")
	obsRetryCycles    = obs.GetOrCreateCounter("xrd_rpc_retry_cycles_total")
	obsBackoffSeconds = obs.GetOrCreateHistogram("xrd_rpc_backoff_seconds")

	// Coordinator→shard retries (policy.retry redials).
	obsShardRetries = obs.GetOrCreateCounter("xrd_rpc_shard_retries_total")

	// Listener side, shared by Server, ShardServer and HopServer:
	// per-frame counts, payload bytes and handler latency.
	obsServerRequests      = obs.GetOrCreateCounter("xrd_rpc_server_requests_total")
	obsServerErrors        = obs.GetOrCreateCounter("xrd_rpc_server_errors_total")
	obsServerHandleSeconds = obs.GetOrCreateHistogram("xrd_rpc_server_handle_seconds")
	obsServerBytesIn       = obs.GetOrCreateCounter(`xrd_rpc_server_bytes_total{dir="in"}`)
	obsServerBytesOut      = obs.GetOrCreateCounter(`xrd_rpc_server_bytes_total{dir="out"}`)
)

// hopMetrics is one HopClient's per-position metric set, rebuilt at
// InitEpoch when the binding (chain, position) changes. The maps are
// read-only after construction, so the call path is a map lookup
// plus atomic adds.
type hopMetrics struct {
	latency  map[string]*obs.Histogram
	bytesOut *obs.Counter
	bytesIn  *obs.Counter
	errors   *obs.Counter
}

func newHopMetrics(chain, index int) *hopMetrics {
	labels := fmt.Sprintf(`chain="%d",pos="%d"`, chain, index)
	m := &hopMetrics{
		latency:  make(map[string]*obs.Histogram),
		bytesOut: obs.GetOrCreateCounter(fmt.Sprintf(`xrd_hop_bytes_total{%s,dir="out"}`, labels)),
		bytesIn:  obs.GetOrCreateCounter(fmt.Sprintf(`xrd_hop_bytes_total{%s,dir="in"}`, labels)),
		errors:   obs.GetOrCreateCounter(fmt.Sprintf("xrd_hop_errors_total{%s}", labels)),
	}
	// One latency histogram per hop.* method, pre-created from the
	// method table so the call path never touches the registry.
	for method := range policies {
		if strings.HasPrefix(method, "hop.") {
			m.latency[method] = obs.GetOrCreateHistogram(
				fmt.Sprintf(`xrd_hop_call_seconds{%s,method="%s"}`, labels, method))
		}
	}
	return m
}
