#!/usr/bin/env bash
# bench_compare.sh — CI's crypto gate: the microbenchmarks of two trees
# on one box, alternated, compared as a ratio of medians.
#
#   scripts/bench_compare.sh BASE [HEAD] [N]
#
# BASE and HEAD are each a commit (anything `git rev-parse` takes) or a
# directory holding a checkout; HEAD defaults to `.`, the working tree.
# CI passes the merge base and the head. N is the number of pairs
# (default 5).
#
# The gated families — ScalarBaseMult, BatchBase, MultiScalarMult,
# SubmissionVerify, BatchMul, Dleq, ProveDlog and VerifyDlog — are
# tight loops of pure computation, and what a regression in them means is a lost
# precomputation path, a batch seam silently falling back to per-item
# work, or a prover raising a power its caller already holds. BatchBase
# (3, 24 and 48 scalars: one onion, a user's round at ℓ = 4 and 8)
# prices the generator's tree sum; a row that jumps means its lanes are
# walked one by one again. Register and SnapshotImage (internal/core)
# price one registered-only user at a gateway and the snapshot of
# 100 000 of them: a row that jumps means a registration grew back into
# an object per user. RegisterDurable prices a registration logged to a
# store.Durable, one identifier a call and 10 000 (a client's register
# request): a batch row that jumps means a call's identifiers went back
# to a record and a write each. BuildRound (internal/client) prices one user's
# whole round at k = 32. HistogramObserve (internal/obs) is one Observe
# contended by every P into an octave already allocated: a row that
# jumps means the hot path took a lock or an allocation. ProveDlog
# (internal/nizk: ProveDlogPrecomputed, the prover servers call, on the
# generator and on a bare base) and VerifyDlog (one two-term product on
# either base) price a key-knowledge proof, and NewNetwork
# (internal/core) stands up 8 chains of 6: a ProveDlog row that jumps
# means the prover raises again the power its caller holds, a VerifyDlog
# row that the product fell back to two ladders, and NewNetwork that
# chains are keyed one by one again.
# SubmissionVerify's dirty rows (1, 2, 16 and n/8 bad proofs in a batch) price the halving of a failed chunk's
# defect; there is no per-proof sweep above its 8-proof leaves any more,
# so a row that jumps means the walk lost its inference, not that a
# cut-off moved. Those rows, Dleq, BatchBase, ProveDlog's and
# VerifyDlog's generator and bare rows, NewNetwork and RegisterDurable are compared from
# the first commit both sides have them — until then they are listed as
# only on the head. Absolute ns/op say
# nothing across boxes or days (one untouched benchmark has read
# 14–28 µs on one machine within one PR), so nothing here is compared
# with a committed number: each side's test binaries are built once,
# pair i runs both at -benchtime=200ms (a fixed 5x times the cheapest
# of them for 30 µs, cold), the base first on odd i and the head first
# on even i, as bench_pair.sh alternates the end-to-end benchmark, and
# the script FAILS if any benchmark's median ns/op on the head is more
# than 20 % above its median on the base. A benchmark only one side
# has is listed and not gated.
set -euo pipefail

usage="usage: bench_compare.sh BASE [HEAD=.] [N=5]"
base=${1:?$usage}
head=${2:-.}
pairs=${3:-5}
gated='^Benchmark(ScalarBaseMult|BatchBase|MultiScalarMult|SubmissionVerify|BatchMul|Dleq|Register|RegisterDurable|SnapshotImage|BuildRound|HistogramObserve|ProveDlog|VerifyDlog|NewNetwork)$'
packages=". ./internal/group ./internal/nizk ./internal/core ./internal/client ./internal/obs" # where the gated families live

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# build SIDE REV-OR-DIR: one test binary per package; trees[SIDE] is where
# its packages lie, so that each binary runs from its package directory.
declare -A trees
build() {
    local side=$1 src=$2 tree i=0 pkg
    if [ -d "$src" ]; then
        tree=$(cd "$src" && pwd)
    else
        tree=$work/tree-$side
        mkdir -p "$tree"
        git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$src^{commit}")" | tar -x -C "$tree"
    fi
    trees[$side]=$tree
    for pkg in $packages; do
        (cd "$tree" && go test -c -o "$work/$side-$i.test" "$pkg")
        i=$((i + 1))
    done
}
build base "$base"
build head "$head"

# run SIDE: "side name ns/op" per benchmark line, -cpu suffix dropped.
run() {
    local side=$1 i=0 pkg
    for pkg in $packages; do
        (cd "${trees[$side]}/$pkg" && "$work/$side-$i.test" -test.run '^$' -test.bench "$gated" -test.benchtime 200ms -test.timeout 20m) |
            awk -v side="$side" '/^Benchmark/ { for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") { sub(/-[0-9]+$/, "", $1); print side, $1, $i } }'
        i=$((i + 1))
    done
}
for i in $(seq 1 "$pairs"); do
    order="base head"
    [ $((i % 2)) -eq 0 ] && order="head base"
    for side in $order; do
        run "$side" >>"$work/values.txt"
    done
    echo "pair $i/$pairs done ($order)" >&2
done

echo "bench_compare: $pairs pairs at -benchtime=200ms; base = $base, head = $head"
sort -k2,2 -k1,1 -k3,3g "$work/values.txt" | awk '
    { v[$2, $1, ++n[$2, $1]] = $3; names[$2] = 1 }
    function median(name, side,    m) {
        m = n[name, side]
        return m == 0 ? 0 : m % 2 ? v[name, side, (m + 1) / 2] : (v[name, side, m / 2] + v[name, side, m / 2 + 1]) / 2
    }
    END {
        for (name in names) {
            b = median(name, "base"); h = median(name, "head")
            if (b == 0 || h == 0) { printf "%-44s only on the %s\n", name, b == 0 ? "head" : "base"; continue }
            gated++
            worse = h > 1.20 * b
            printf "%-44s base %12.0f ns/op  head %12.0f ns/op  ratio %.3f%s\n", name, b, h, h / b, worse ? "  REGRESSION" : ""
            bad += worse
        }
        if (gated == 0) { print "bench_compare: no gated benchmark ran on both sides" > "/dev/stderr"; exit 1 }
        if (bad) { printf "bench_compare: %d of %d benchmarks regressed past 20 %%\n", bad, gated > "/dev/stderr"; exit 1 }
    }' | sort
