#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh                        every workload, untraced then traced
#   benchmark/run.sh --only wire_read       one workload (comma-separated list)
#   benchmark/run.sh --seed 7               another input seed
#   benchmark/run.sh --repeat 10            repeatability of the end-to-end metrics
#   benchmark/run.sh --write-expected       regenerate expected/memsim_*.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                           one run; the result object is the
#                                           last line of standard output
#
# Runs from the repository root (the workloads read results/GOLDEN_*.json
# and BENCHMARK.json, and write benchmark/out/). Exits non-zero when the
# build fails or any correctness check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# A relative CARGO_TARGET_DIR is relative to where cargo is started: here.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

export STACKBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export STACKBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/stackbench" "$@"
