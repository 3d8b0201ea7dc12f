#!/usr/bin/env bash
# Builds `pscds` and `pscds-bench` from source, then runs the benchmark
# with the given arguments. Run from the repository root, e.g.
#
#   bash crates/bench/src/bin/pscds-bench/run.sh --workload count_exact --seed 1 --seconds 15 --trace 0
#   bash crates/bench/src/bin/pscds-bench/run.sh run --seed 1
#
# Both builds share $CARGO_TARGET_DIR (default target/). The benchmark
# runs as a child of this script, not through exec, so its
# RUSAGE_CHILDREN counts only the processes it starts itself.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p pscds-cli
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
"$CARGO_TARGET_DIR/release/pscds-bench" "$@"
