#!/usr/bin/env bash
# The benchmark's one command: builds the release `wodex` binary from the
# repository's own manifest and the harness from this directory's, then
# hands every argument to the harness.
#
#   benchmark/run.sh [--seed N] [--trace] [--quick | --full] [--out FILE]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Both builds share one target directory (`CARGO_TARGET_DIR`, by default
# benchmark/out/target), so the harness finds `wodex` beside itself.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/out/target}"
cargo build --release --offline --quiet --bin wodex
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/wodex-benchmark" "$@"
