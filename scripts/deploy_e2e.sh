#!/usr/bin/env bash
# deploy_e2e.sh — multi-process deployment smoke test.
#
# Builds the binaries and launches a full sharded deployment on
# localhost, every role a separate OS process:
#
#   coordinator (round driver, 1 chain of 3, all positions remote)
#   2 gateway shards owning registry shards [0:32) and [32:64)
#   3 `-role mix` processes reached over the TLS hop transport
#
# then runs two full rounds through xrd-client with -cross-shard, so
# each round proves a message submitted on one gateway shard comes out
# of a mailbox owned by the other — end-to-end coverage of the
# coordinator round protocol (shard.begin/shard.finish), the hop
# transport (hop.begin/hop.mix/hop.reveal), and cross-shard delivery
# routing. If any of those
# regress, the conversation dies and this script exits non-zero.
#
# Every process also gets an -admin-addr; the script asserts /healthz
# answers on all six and, after the rounds, that the coordinator's
# /metrics carries the round-phase histograms. Set METRICS_OUT to a
# directory to keep the post-round /metrics dumps (CI archives them
# as a workflow artifact).
#
# With LOADGEN_OUT set the same six processes carry one xrd-loadgen
# round instead of the two xrd-client ones — LOADGEN_REGISTERED
# registered users, LOADGEN_ACTIVE of them submitting, on
# LOADGEN_SEED (default 1 000 000 / 100 000 / 1), the gateways
# WAL-backed so that the round pays its fsyncs — and the script leaves
# the loadgen report, every admin endpoint's histograms merged in, at
# $LOADGEN_OUT, and each process's peak resident set (VmHWM, kB) in
# $LOADGEN_OUT.rss. BENCH_0005.json is two such runs.
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

loadgen_out=${LOADGEN_OUT:+$(realpath -m "$LOADGEN_OUT")}
[ -n "${METRICS_OUT:-}" ] && METRICS_OUT=$(realpath -m "$METRICS_OUT")

echo "== building binaries"
go build -o "$workdir/xrd-server" ./cmd/xrd-server
go build -o "$workdir/xrd-client" ./cmd/xrd-client
[ -n "$loadgen_out" ] && go build -o "$workdir/xrd-loadgen" ./cmd/xrd-loadgen

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

echo "== launching 3 mix processes"
hops=""
for i in 0 1 2; do
    port=$((7911 + i))
    ./xrd-server -role mix -addr "127.0.0.1:$port" -cert-out "mix$i.pem" \
        -admin-addr "127.0.0.1:$((7933 + i))" >"mix$i.log" 2>&1 &
    pids+=($!)
    hops="${hops:+$hops,}0:$i=127.0.0.1:$port=mix$i.pem"
done
for i in 0 1 2; do
    wait_for_file "mix$i.pem"
done

echo "== launching 2 gateway shards"
./xrd-server -role gateway -addr 127.0.0.1:7921 -shard-range 0:32 -cert-out gw1.pem \
    ${loadgen_out:+-data-dir gw1.data} -admin-addr 127.0.0.1:7931 >gw1.log 2>&1 &
pids+=($!)
./xrd-server -role gateway -addr 127.0.0.1:7922 -shard-range 32:64 -cert-out gw2.pem \
    ${loadgen_out:+-data-dir gw2.data} -admin-addr 127.0.0.1:7932 >gw2.log 2>&1 &
pids+=($!)
wait_for_file gw1.pem
wait_for_file gw2.pem
gateways="127.0.0.1:7921=gw1.pem,127.0.0.1:7922=gw2.pem"

echo "== launching coordinator (1 chain of 3, all positions remote, 2 gateway shards)"
./xrd-server -role coordinator -addr 127.0.0.1:7910 -servers 3 -chains 1 -k 3 \
    -interval 0 -cert-out coord.pem -hops "$hops" \
    -admin-addr 127.0.0.1:7930 \
    -gateways "0:32=127.0.0.1:7921=gw1.pem,32:64=127.0.0.1:7922=gw2.pem" >coord.log 2>&1 &
pids+=($!)
wait_for_file coord.pem

dump_logs() {
    echo "--- coordinator log ---" >&2; cat coord.log >&2
    for f in gw1 gw2 mix0 mix1 mix2; do
        echo "--- $f log ---" >&2; cat "$f.log" >&2
    done
}

# name=admin-port pairs for every process's observability endpoint.
admin_endpoints="coord=7930 gw1=7931 gw2=7932 mix0=7933 mix1=7934 mix2=7935"

fetch() {
    local url=$1 tries=25 out
    while true; do
        if out=$(curl -fsS --max-time 5 "$url" 2>/dev/null); then
            printf '%s' "$out"
            return 0
        fi
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            return 1
        fi
        sleep 0.2
    done
}

echo "== asserting /healthz on all 6 admin endpoints"
for ep in $admin_endpoints; do
    name=${ep%=*} port=${ep#*=}
    if ! health=$(fetch "http://127.0.0.1:$port/healthz"); then
        echo "$name: /healthz on port $port did not answer" >&2
        dump_logs
        exit 1
    fi
    if ! grep -q '"role"' <<<"$health"; then
        echo "$name: /healthz returned no role: $health" >&2
        exit 1
    fi
    echo "$name: $(tr -d ' \n' <<<"$health")"
done

run_round() {
    local n=$1 msg="hello from round $1" out tries=25
    # The coordinator needs a moment after writing its certificate
    # before the listener serves; retry the first connection.
    while true; do
        if out=$(./xrd-client -addr 127.0.0.1:7910 -cert coord.pem \
                -gateways "$gateways" -cross-shard -msg "$msg" 2>&1); then
            break
        fi
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "round $n client failed:" >&2
            echo "$out" >&2
            dump_logs
            exit 1
        fi
        sleep 0.2
    done
    echo "$out"
    if ! grep -q "^cross-shard: " <<<"$out"; then
        echo "round $n: users were not placed on different shards" >&2
        exit 1
    fi
    if ! grep -qF "bob reads: \"$msg\"" <<<"$out"; then
        echo "round $n: message not delivered" >&2
        dump_logs
        exit 1
    fi
}

dump_metrics() {
    echo "== dumping post-round /metrics from all 6 processes"
    metrics_dir=${METRICS_OUT:-$workdir/metrics}
    mkdir -p "$metrics_dir"
    for ep in $admin_endpoints; do
        name=${ep%=*} port=${ep#*=}
        if ! fetch "http://127.0.0.1:$port/metrics" >"$metrics_dir/$name.metrics.txt"; then
            echo "$name: /metrics on port $port did not answer" >&2
            dump_logs
            exit 1
        fi
        if ! [ -s "$metrics_dir/$name.metrics.txt" ]; then
            echo "$name: /metrics dump is empty" >&2
            exit 1
        fi
    done
}

if [ -n "$loadgen_out" ]; then
    echo "== one xrd-loadgen round"
    admins=$(sed 's/[a-z0-9]*=/127.0.0.1:/g; s/ /,/g' <<<"$admin_endpoints")
    if ! ./xrd-loadgen -addr 127.0.0.1:7910 -cert coord.pem -gateways "$gateways" \
            -registered "${LOADGEN_REGISTERED:-1000000}" -active "${LOADGEN_ACTIVE:-100000}" \
            -seed "${LOADGEN_SEED:-1}" -admin "$admins" -out "$loadgen_out"; then
        dump_logs
        exit 1
    fi
    dump_metrics
    # pids are in launch order.
    i=0
    for name in mix0 mix1 mix2 gw1 gw2 coord; do
        echo "$name $(awk '/^VmHWM:/ { print $2 }' "/proc/${pids[$i]}/status")"
        i=$((i + 1))
    done | tee "$loadgen_out.rss"
    echo "PASS: one loadgen round delivered across 6 processes; report at $loadgen_out"
    exit 0
fi

echo "== round 1"
run_round 1
echo "== round 2"
run_round 2

dump_metrics
if ! grep -q '^xrd_round_phase_seconds_bucket{' "$metrics_dir/coord.metrics.txt"; then
    echo "coordinator /metrics has no round-phase histograms after two rounds" >&2
    head -50 "$metrics_dir/coord.metrics.txt" >&2
    exit 1
fi
rounds=$(grep '^xrd_rounds_total' "$metrics_dir/coord.metrics.txt" | awk '{print $2}')
if [ "${rounds:-0}" -lt 2 ]; then
    echo "coordinator xrd_rounds_total=$rounds after two rounds" >&2
    exit 1
fi
echo "coordinator metrics: xrd_rounds_total=$rounds, round-phase histograms present"

echo "PASS: two cross-shard rounds delivered end to end across 6 processes, /healthz and /metrics live on all"
