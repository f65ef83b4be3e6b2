#!/usr/bin/env bash
# Builds the service binaries and the benchmark from source, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Cargo output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p osc-bench --bin osc_service --bin shard_worker >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@"
