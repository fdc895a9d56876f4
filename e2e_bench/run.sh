#!/usr/bin/env bash
# Build `gvdb` and the benchmark from source, then run the benchmark.
# Usage: bash e2e_bench/run.sh --workload roam|explore|edit --seed N
#                              --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); databases and traces stay under .bench_work
# and .bench_out in the current directory.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin gvdb >&2
cargo build --release --offline --quiet --manifest-path e2e_bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gvdb-e2e-bench" --gvdb "$CARGO_TARGET_DIR/release/gvdb" "$@"
