#!/usr/bin/env bash
# Builds the benchmark and the `cluster` binary it serves, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root). Run it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" \
    -p lshclust-bench --bin cluster >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
