#!/usr/bin/env bash
# The repo benchmark in one command: build the harness (Release, into
# build-e2e/), run the workloads, check their outputs and print every
# metric by name with its unit. Results land in bench_out/e2e/.
#
#   bench/e2e/run.sh [--traced | --trace 0|1] [--seed=N] [--workload=NAME|all]
#                    [--reps=N] [--seconds=S]
#
# Build logs go to stderr; the last line of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 1)"
if [[ ! -f build-e2e/CMakeCache.txt ]]; then
  cmake -S bench/e2e -B build-e2e -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build build-e2e --target heteroplace_bench -j "$jobs" >&2

exec build-e2e/heteroplace_bench "$@"
