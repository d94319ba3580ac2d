#!/usr/bin/env bash
# bench_pair.sh — the paired end-to-end comparison every performance PR
# reports (EXPERIMENTS.md, "Method"), as a tool.
#
#   scripts/bench_pair.sh PARENT CHANGE [WORKLOAD] [N]
#
# PARENT and CHANGE are each a commit (anything `git rev-parse` takes)
# or a directory holding a checkout (`.` is the working tree, for a
# change not committed yet). WORKLOAD is one of BENCHMARK.json's
# (default mix-k6), N the number of pairs (default 10).
#
# A commit is exported with `git archive` into a scratch directory —
# its committed files in a new directory, which is what the benchmark
# driver builds — and `bench` is built there once per side; nothing is
# written under bench/ or anywhere else in the repository. Pair i runs
# both binaries on seed i, the parent first on odd i and the change
# first on even i, so drift of the machine within a pair falls on each
# side equally often. Per end-to-end metric it prints each side's
# median and quartiles, the ratio of medians, and how many pairs the
# change won (the direction comes from BENCHMARK.json's "better").
#
# Environment: BENCH_SECONDS (each run's --seconds, default
# BENCHMARK.json's run_seconds), BENCH_PAIR_DIR (the scratch directory;
# default a fresh mktemp -d, removed on exit — one that is given is
# kept, with every run's last line in runs.txt).
set -euo pipefail

usage="usage: bench_pair.sh PARENT CHANGE [WORKLOAD=mix-k6] [N=10]"
parent=${1:?$usage}
change=${2:?$usage}
workload=${3:-mix-k6}
pairs=${4:-10}

repo=$(cd "$(dirname "$0")/.." && pwd)
seconds=${BENCH_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$repo/BENCHMARK.json")}
if [ -n "${BENCH_PAIR_DIR:-}" ]; then
    work=$BENCH_PAIR_DIR
    mkdir -p "$work"
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi

# build SIDE REV-OR-DIR: $work/bench-SIDE from that tree's bench/.
build() {
    local side=$1 src=$2 tree
    if [ -d "$src" ]; then
        tree=$(cd "$src" && pwd)
    else
        tree=$work/tree-$side
        rm -rf "$tree" && mkdir -p "$tree"
        git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$src^{commit}")" | tar -x -C "$tree"
    fi
    go build -C "$tree/bench" -o "$work/bench-$side" .
}
build parent "$parent"
build change "$change"

# run SIDE SEED: one line per metric, "seed side metric value", plus
# the failed share of the run's operations.
run() {
    local side=$1 seed=$2 last
    last=$("$work/bench-$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --dir "$work/out-$side" | tail -1)
    echo "$seed $side $last" >>"$work/runs.txt"
    echo "$last" | grep -o '"[a-z_]*":{"value":[-+0-9.eE]*' |
        sed "s/\"\([a-z_]*\)\":{\"value\":/$seed $side \1 /"
    echo "$last" | sed -n "s/.*\"attempted\":\([0-9]*\),\"failed\":\([0-9]*\).*/\1 \2/p" |
        awk -v seed="$seed" -v side="$side" '{ print seed, side, "failed_share", ($1 ? $2 / $1 : 1) }'
}
: >"$work/runs.txt"
: >"$work/values.txt"
for i in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        run "$side" "$i" >>"$work/values.txt"
    done
    echo "pair $i/$pairs done ($order)" >&2
done

# "better" per end-to-end metric, from BENCHMARK.json's end_to_end list.
directions=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }' "$repo/BENCHMARK.json")
directions="$directions
failed_share lower"

# quartiles SIDE METRIC: "q1 median q3", linearly interpolated.
quartiles() {
    awk -v side="$1" -v metric="$2" '$2 == side && $3 == metric { print $4 }' "$work/values.txt" | sort -g |
        awk '{ v[NR] = $1 }
            function q(p,    h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
            END { print q(0.25), q(0.5), q(0.75) }'
}

echo "$workload: $pairs pairs on seeds 1..$pairs, ${seconds} s a run; parent = $parent, change = $change"
printf '%-16s %-34s %-34s %8s %7s\n' metric "parent median [q1, q3]" "change median [q1, q3]" ratio won
echo "$directions" | while read -r metric better; do
    read -r p1 p2 p3 <<<"$(quartiles parent "$metric")"
    read -r c1 c2 c3 <<<"$(quartiles change "$metric")"
    won=$(awk -v metric="$metric" -v better="$better" '
        $3 == metric { v[$1, $2] = $4; seeds[$1] = 1 }
        END { for (s in seeds) { d = v[s, "change"] - v[s, "parent"]; if (better == "higher" ? d > 0 : d < 0) n++ }; print n + 0 }' "$work/values.txt")
    ratio=$(awk -v p="$p2" -v c="$c2" 'BEGIN { if (p == 0) print "-"; else printf "%.3f", c / p }')
    printf '%-16s %-34s %-34s %8s %4s/%s\n' "$metric" \
        "$(printf '%.4g [%.4g, %.4g]' "$p2" "$p1" "$p3")" "$(printf '%.4g [%.4g, %.4g]' "$c2" "$c1" "$c3")" "$ratio" "$won" "$pairs"
done
