#!/usr/bin/env bash
# Build the benchmark from source and run it. See README.md.
#
#   benchmark/run.sh                       the suite: every workload, a fresh process each
#   benchmark/run.sh --workload NAME       one workload of the suite
#   benchmark/run.sh --trace               the suite plus a traced run per workload
#   benchmark/run.sh --check               the suite twice; fails if gated metrics disagree
#   benchmark/run.sh --calibrate           capacity probe behind the frozen service rates
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run in one process (what the driver calls)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The engine's crates are path dependencies of the benchmark package; in a
# directory without them there is nothing to measure.
if [ ! -f crates/engine/Cargo.toml ]; then
    echo "benchmark/run.sh: no engine sources next to benchmark/ (run from a checkout of the repository)" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR is relative to here, the checkout's root.
target="${CARGO_TARGET_DIR:-target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

export BENCH_RUSTC="${BENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec "$target/release/fusion-benchmark" "$@"
