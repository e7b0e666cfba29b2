#!/usr/bin/env bash
# Builds the benchmark and the fairness-serve daemon from this checkout,
# then runs the benchmark. From the root of the checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark's scratch files go to .bench_work. Both are ignored by git.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fairness-serve --bin fairness-serve >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
