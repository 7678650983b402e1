#!/usr/bin/env bash
# The benchmark's own checks: its unit and integration tests (generator
# determinism, name rules, BENCHMARK.json and README tables in step with
# spec.rs, compare's verdicts, every metric present in the output), then a
# quick traced pass over all five workloads.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/out/target}"
cargo build --release --offline --quiet --bin wodex
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick --trace
