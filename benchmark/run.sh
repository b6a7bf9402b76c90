#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; every argument goes
# to dcws-benchmark. Run from anywhere: it works from the repository root.
#
#   benchmark/run.sh [--seed N] [--quick] [--runs K]     all workloads, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#
# Everything it writes goes under benchmark/target/ (or CARGO_TARGET_DIR,
# for the build alone).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec "$target/release/dcws-benchmark" "$@"
