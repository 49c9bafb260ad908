#!/usr/bin/env bash
# The benchmark's single entry point: builds the benchmark package offline
# (release, from source, touching nothing outside its own target dir) and
# hands every argument to the binary.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--traced] [--quick] [--runs R] [--out F]   all four workloads
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build chatter goes to stderr: stdout carries the result line.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

export GRAPHAUG_BENCHMARK_DIR="$here"
exec "$target/release/benchmark" "$@"
