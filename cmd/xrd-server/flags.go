package main

// Shared flag-parsing and wiring helpers used by every role. All
// remote-process flags use the same "key=addr=certfile" shape:
//
//	-hops         chain:pos=addr=certfile,...   (coordinator → mix, coordinate-keyed)
//	-mix-servers  id=addr=certfile,...          (coordinator → mix, identity-keyed)
//	-gateways     lo:hi=addr=certfile,...       (coordinator → gateway shard)
//
// and every certfile is the pinned TLS certificate the target process
// wrote with its own -cert-out (the paper's assumed PKI, modelled as
// files).

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/rpc"
)

// hopSpec locates one remote process: its address and pinned cert.
type hopSpec struct {
	addr     string
	certFile string
}

// dialSpec opens a hop client for one remote mix process, pinning its
// certificate and installing the fault-injection wrapper when one is
// configured.
func dialSpec(spec hopSpec, label string, inj *faults.Injector) (*rpc.HopClient, error) {
	tlsCfg, err := rpc.ClientTLSFromFile(spec.certFile)
	if err != nil {
		return nil, err
	}
	hc := rpc.DialHop(spec.addr, tlsCfg)
	if inj != nil {
		hc.SetConnWrapper(inj.Wrapper(label))
	}
	return hc, nil
}

// eachSpec walks a "key=addr=certfile,..." flag value, handing fn
// each entry's key and location.
func eachSpec(s, shape string, fn func(entry, key string, spec hopSpec) error) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), "=")
		if len(parts) != 3 {
			return fmt.Errorf("entry %q: want %s", entry, shape)
		}
		if err := fn(entry, parts[0], hopSpec{addr: parts[1], certFile: parts[2]}); err != nil {
			return err
		}
	}
	return nil
}

// parseIntPair splits "a:b" into two ints.
func parseIntPair(s, what string) (int, int, error) {
	halves := strings.Split(s, ":")
	if len(halves) != 2 {
		return 0, 0, fmt.Errorf("%q is not %s", s, what)
	}
	a, err := strconv.Atoi(halves[0])
	if err != nil {
		return 0, 0, fmt.Errorf("%q: %w", s, err)
	}
	b, err := strconv.Atoi(halves[1])
	if err != nil {
		return 0, 0, fmt.Errorf("%q: %w", s, err)
	}
	return a, b, nil
}

// parseHopSpecs parses "chain:pos=addr=certfile,..." into a position
// map.
func parseHopSpecs(s string) (map[[2]int]hopSpec, error) {
	out := make(map[[2]int]hopSpec)
	err := eachSpec(s, "chain:pos=addr=certfile", func(entry, key string, spec hopSpec) error {
		chain, pos, err := parseIntPair(key, "chain:pos")
		if err != nil {
			return fmt.Errorf("entry %q: %w", entry, err)
		}
		k := [2]int{chain, pos}
		if _, dup := out[k]; dup {
			return fmt.Errorf("position %d:%d listed twice", chain, pos)
		}
		out[k] = spec
		return nil
	})
	return out, err
}

// parseServerSpecs parses "id=addr=certfile,..." into a server
// identity map.
func parseServerSpecs(s string) (map[int]hopSpec, error) {
	out := make(map[int]hopSpec)
	err := eachSpec(s, "id=addr=certfile", func(entry, key string, spec hopSpec) error {
		id, err := strconv.Atoi(key)
		if err != nil {
			return fmt.Errorf("entry %q: server id: %w", entry, err)
		}
		if _, dup := out[id]; dup {
			return fmt.Errorf("server %d listed twice", id)
		}
		out[id] = spec
		return nil
	})
	return out, err
}

// gatewaySpec locates one gateway shard process and the registry
// range it owns.
type gatewaySpec struct {
	lo, hi int
	hopSpec
}

// parseGatewaySpecs parses "lo:hi=addr=certfile,..." into shard
// specs; range validity (partitioning) is checked by core.
func parseGatewaySpecs(s string) ([]gatewaySpec, error) {
	var out []gatewaySpec
	err := eachSpec(s, "lo:hi=addr=certfile", func(entry, key string, spec hopSpec) error {
		lo, hi, err := parseIntPair(key, "lo:hi")
		if err != nil {
			return fmt.Errorf("entry %q: %w", entry, err)
		}
		out = append(out, gatewaySpec{lo: lo, hi: hi, hopSpec: spec})
		return nil
	})
	return out, err
}

func writeCert(pemOf func() ([]byte, error), path string) error {
	pem, err := pemOf()
	if err != nil {
		return fmt.Errorf("exporting certificate: %w", err)
	}
	if err := os.WriteFile(path, pem, 0o644); err != nil {
		return fmt.Errorf("writing certificate: %w", err)
	}
	return nil
}
