#!/usr/bin/env bash
# crash_e2e.sh — gateway crash-recovery smoke test.
#
# Builds the binaries and launches a sharded deployment on localhost
# (coordinator, 2 gateway shards, 3 mix processes) with the first
# gateway running durable: -data-dir points it at a WAL+snapshot
# store. The drill then exercises the crash contract with a real
# SIGKILL between a submission's acknowledgement and its round:
#
#   1. xrd-client -crash-drill places both users on gateway 1, submits
#      their round outputs there (fsync'd to the WAL before the ack),
#      and touches $workdir/drill/submitted.
#   2. This script SIGKILLs gateway 1 — no shutdown hook runs — and
#      restarts it over the same -data-dir.
#   3. The client triggers the round and asserts exactly-once
#      delivery within two rounds: the restarted process replayed its
#      WAL, rejoined the coordinator's round protocol, and fed the
#      recovered submissions into their round — once. It then checks
#      redelivery-until-ack and that the ack prunes for good.
#
# Any break in the chain — lost submissions, duplicated delivery, a
# shard that cannot rejoin — fails the client, which fails this script.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir/xrd-server" ./cmd/xrd-server
go build -o "$workdir/xrd-client" ./cmd/xrd-client

cd "$workdir"
mkdir -p drill

wait_for_file() {
    local path=$1 tries=50
    until [ -s "$path" ]; do
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "timed out waiting for $path" >&2
            exit 1
        fi
        sleep 0.2
    done
}

echo "== launching 3 mix processes"
specs=""
for i in 0 1 2; do
    port=$((7941 + i))
    ./xrd-server -role mix -addr "127.0.0.1:$port" -cert-out "mix$i.pem" >"mix$i.log" 2>&1 &
    pids+=($!)
    specs="${specs:+$specs,}$i=127.0.0.1:$port=mix$i.pem"
done
for i in 0 1 2; do
    wait_for_file "mix$i.pem"
done

echo "== launching 2 gateway shards (shard 1 durable in $workdir/gw1-data)"
start_gw1() {
    ./xrd-server -role gateway -addr 127.0.0.1:7951 -shard-range 0:32 \
        -data-dir gw1-data -cert-out gw1.pem >>gw1.log 2>&1 &
    gw1_pid=$!
    pids+=($gw1_pid)
}
start_gw1
./xrd-server -role gateway -addr 127.0.0.1:7952 -shard-range 32:64 -cert-out gw2.pem >gw2.log 2>&1 &
pids+=($!)
wait_for_file gw1.pem
wait_for_file gw2.pem
gateways="127.0.0.1:7951=gw1.pem,127.0.0.1:7952=gw2.pem"

echo "== launching coordinator (1 chain of 3, all positions remote)"
./xrd-server -role coordinator -addr 127.0.0.1:7940 -servers 3 -chains 1 -k 3 \
    -interval 0 -cert-out coord.pem -mix-servers "$specs" \
    -gateways "0:32=127.0.0.1:7951=gw1.pem,32:64=127.0.0.1:7952=gw2.pem" >coord.log 2>&1 &
pids+=($!)
wait_for_file coord.pem

dump_logs() {
    echo "--- coordinator log ---" >&2; cat coord.log >&2
    for f in gw1 gw2 mix0 mix1 mix2; do
        echo "--- $f log ---" >&2; cat "$f.log" >&2
    done
    echo "--- client log ---" >&2; cat client.log >&2
}

echo "== starting crash drill client"
# Retry the initial connection: the coordinator needs a moment after
# writing its certificate before the listener serves.
(
    tries=25
    while true; do
        if ./xrd-client -addr 127.0.0.1:7940 -cert coord.pem \
            -gateways "$gateways" -crash-drill drill \
            -msg "survives the kill" >client.log 2>&1; then
            exit 0
        fi
        # Only pre-submission failures are retriable; once the marker
        # exists the drill ran and its verdict stands.
        if [ -f drill/submitted ]; then
            exit 1
        fi
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            exit 1
        fi
        sleep 0.2
    done
) &
client_pid=$!
pids+=($client_pid)

wait_for_marker() {
    local path=$1 tries=150
    until [ -e "$path" ]; do
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "timed out waiting for $path" >&2
            dump_logs
            exit 1
        fi
        sleep 0.2
    done
}
wait_for_marker drill/submitted

echo "== SIGKILL gateway 1 (pid $gw1_pid) with acked submissions on disk"
kill -9 "$gw1_pid"
wait "$gw1_pid" 2>/dev/null || true

echo "== restarting gateway 1 over the same -data-dir"
rm -f gw1.pem
start_gw1
wait_for_file gw1.pem
touch drill/restarted

if ! wait "$client_pid"; then
    echo "crash drill failed" >&2
    dump_logs
    exit 1
fi
cat client.log
if ! grep -q "^crash-drill: PASS$" client.log; then
    echo "crash drill did not reach its verdict" >&2
    dump_logs
    exit 1
fi
if ! grep -q "recovered .* records" gw1.log; then
    echo "restarted gateway did not report WAL recovery" >&2
    dump_logs
    exit 1
fi

echo "PASS: gateway SIGKILLed after ack, restarted from its data dir, delivered exactly once"
