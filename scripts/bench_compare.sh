#!/usr/bin/env bash
# bench_compare.sh — compare a fresh benchmark run against the repo's
# committed baselines, in two passes of different strictness.
#
#   scripts/bench_compare.sh BENCH_ci.json [BENCH_crypto.json]
#
# The baseline is the set of committed BENCH_*.json archives (the
# files are numbered BENCH_0001, BENCH_0002, ...; per benchmark the
# newest archive carrying it wins, so loadgen archives and
# microbenchmark archives coexist).
#
# Pass 1 (warn-only): every benchmark present on both sides has its
# users/s compared; a drop of more than 20% prints a GitHub Actions
# ::warning:: annotation for a human to read. Shared CI runners are
# too noisy for a hard gate on end-to-end throughput.
#
# Pass 2 (hard gate): the crypto microbenchmarks — ScalarBaseMult,
# MultiScalarMult, SubmissionVerify, BatchMul — have their ns/op
# compared and the script FAILS if any regresses past 25%. These are tight loops
# of pure computation; measured at -benchtime=5x (the second,
# optional argument is a report from such a run; pass 2 falls back to
# the first report without it) they are stable enough that a 25% jump
# means a real change — a lost precomputation path, a batch seam
# silently falling back to serial — not noise. Refresh the committed
# baselines when the runner hardware class changes.
set -euo pipefail

cd "$(dirname "$0")/.."

fresh=${1:?usage: bench_compare.sh FRESH.json [CRYPTO.json]}
crypto=${2:-$fresh}
# The fresh reports may live in the repo root too (CI writes
# BENCH_ci.json there) — never pick one as its own baseline.
baselines=$(ls BENCH_*.json 2>/dev/null | grep -vxF "$(basename "$fresh")" | grep -vxF "$(basename "$crypto")" | sort || true)
if [ -z "$baselines" ]; then
    echo "bench_compare: no committed BENCH_*.json baseline; nothing to compare"
    exit 0
fi
if [ ! -s "$fresh" ]; then
    echo "bench_compare: fresh report $fresh missing or empty" >&2
    exit 1
fi

echo "bench_compare: baselines:" $baselines

echo "bench_compare: pass 1 — throughput (warn-only)"
# shellcheck disable=SC2086 # the baseline list is word-split on purpose
go run ./cmd/benchjson -compare -metric users/s -threshold 0.20 $baselines "$fresh"

echo "bench_compare: pass 2 — crypto ns/op (hard gate, 25%)"
if [ ! -s "$crypto" ]; then
    echo "bench_compare: crypto report $crypto missing or empty" >&2
    exit 1
fi
# shellcheck disable=SC2086
go run ./cmd/benchjson -compare -metric ns/op -lower-better -fail \
    -match '^(ScalarBaseMult|MultiScalarMult|SubmissionVerify|BatchMul)($|[/-])' \
    -threshold 0.25 $baselines "$crypto"
