#!/usr/bin/env bash
# chaos_e2e.sh — fault-injection deployment test: epoch recovery after
# a mix process dies.
#
# Builds xrd-server and xrd-client, launches a coordinator with its own
# in-process gateway shard plus three `-role mix` processes (one chain
# of 3, every position its own OS process, identity-keyed via
# -mix-servers, the stable identities epoch recovery re-binds), delivers
# a round end to end, then SIGKILLs one mix process and
# keeps driving rounds. The dead hop halts its chain (the round
# reports an error and delivers nothing); the coordinator must evict
# the dead server, re-form the chain from the two survivors and resume
# delivery within a bounded number of rounds — otherwise this script
# exits non-zero.
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

dump_logs() {
    echo "--- coordinator log ---" >&2; cat gw.log >&2
    for i in 0 1 2; do echo "--- mix$i log ---" >&2; cat "mix$i.log" >&2; done
}

echo "== launching 3 mix processes"
specs=""
mix_pids=()
for i in 0 1 2; do
    port=$((7921 + i))
    ./xrd-server -role mix -addr "127.0.0.1:$port" -cert-out "mix$i.pem" >"mix$i.log" 2>&1 &
    mix_pids+=($!)
    pids+=($!)
    specs="${specs:+$specs,}$i=127.0.0.1:$port=mix$i.pem"
done
for i in 0 1 2; do
    wait_for_file "mix$i.pem"
done

echo "== launching coordinator (1 chain of 3, identity-keyed remotes)"
./xrd-server -role coordinator -addr 127.0.0.1:7920 -servers 3 -chains 1 -k 3 \
    -interval 0 -cert-out gw.pem -mix-servers "$specs" >gw.log 2>&1 &
pids+=($!)
wait_for_file gw.pem

# try_round runs one client round and reports via exit status whether
# the conversation message was delivered. Client output lands in
# round.out either way.
try_round() {
    local msg=$1
    if ! ./xrd-client -addr 127.0.0.1:7920 -cert gw.pem -msg "$msg" >round.out 2>&1; then
        return 1
    fi
    grep -qF "bob reads: \"$msg\"" round.out
}

echo "== round 1: healthy delivery"
tries=25
until try_round "hello before the crash"; do
    # The coordinator needs a moment after writing its certificate before
    # the listener serves; retry the first connection.
    tries=$((tries - 1))
    if [ "$tries" -le 0 ]; then
        echo "healthy round never delivered:" >&2
        cat round.out >&2
        dump_logs
        exit 1
    fi
    sleep 0.2
done
cat round.out

echo "== killing mix1 (position 1 of the only chain)"
kill -9 "${mix_pids[1]}"
wait "${mix_pids[1]}" 2>/dev/null || true

echo "== dirty round: the chain must halt, not deliver"
if try_round "message into the void"; then
    echo "round delivered through a dead hop" >&2
    dump_logs
    exit 1
fi
cat round.out || true

echo "== recovery: delivery must resume within 6 rounds"
recovered=""
for attempt in 1 2 3 4 5 6; do
    # A bare trigger advances the deployment: the coordinator evicts the
    # dead server and re-forms the chain at the top of the next round.
    # Clients cannot submit into a halted epoch (cover building needs
    # the next round's announced keys), so the trigger has no users.
    ./xrd-client -addr 127.0.0.1:7920 -cert gw.pem -trigger-only >trigger.out 2>&1 || true
    if try_round "hello after recovery $attempt"; then
        recovered=$attempt
        break
    fi
    echo "  round $attempt: not yet delivered (recovery in progress)"
    sleep 0.2
done
if [ -z "$recovered" ]; then
    echo "delivery never resumed after the crash" >&2
    cat round.out >&2
    dump_logs
    exit 1
fi
cat round.out

echo "== stability: one more round on the re-formed chain"
if ! try_round "steady state"; then
    echo "re-formed chain failed a follow-up round" >&2
    cat round.out >&2
    dump_logs
    exit 1
fi
cat round.out

echo "PASS: chain halted on hop death, re-formed from survivors, delivery resumed (round $recovered)"
