#!/usr/bin/env bash
# Runs every workload twice on this commit and compares the two sets by
# the benchmark's own bounds: a steady host and a steady benchmark read
# "within bound" on every row. Exit code is non-zero if any row is worse.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

workloads=(device_direct serve_short compile_cold cnn_frames)
for side in a b; do
    for w in "${workloads[@]}"; do
        echo "== $side: $w" >&2
        run --workload "$w" --seed "${SEED:-1}" --out-dir "benchmark/out/$side" | tail -n 1 >&2
    done
done

status=0
for w in "${workloads[@]}"; do
    run --compare "benchmark/out/a/$w.json" "benchmark/out/b/$w.json" || status=1
done
exit $status
