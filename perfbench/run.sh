#!/usr/bin/env bash
# Builds the benchmark and the reduction daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload classfile-suite --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p lbr-service --bin lbr-serviced >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serviced "$CARGO_TARGET_DIR/release/lbr-serviced" "$@"
