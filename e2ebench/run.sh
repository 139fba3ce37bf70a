#!/usr/bin/env bash
# Build `rta-admit` and the benchmark from source, then run one workload.
#
#   bash e2ebench/run.sh --workload <fig-grid|admit-exact|admit-loops|wcdfp-socket> \
#                        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin rta-admit >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --daemon "$CARGO_TARGET_DIR/release/rta-admit" "$@"
