#!/usr/bin/env bash
# The CI pipeline, runnable locally: three configurations of the same
# tree, each driven through its CMake preset (see CMakePresets.json).
# Every check is a ctest; no other script runs here.
#
#   ci-release     Release build, the full ctest suite (unit tests,
#                  harness determinism, the bench export files parsing
#                  and matching across --jobs, the differential oracle,
#                  and every bench smoke run as a --jobs 1 vs --jobs 8
#                  identity check with its self-checks armed).
#   ci-asan-ubsan  address+undefined sanitizers over the labelled
#                  corruption paths and the config registry: -L
#                  faults, resilience, harness, obs, check, adversary,
#                  domain, cluster, rca, config, timing, ckpt (the
#                  differential-oracle tests, including the fixed-seed
#                  fuzz slice, its planted-bug sensitivity checks and
#                  the malformed scenario-JSON test, run under both
#                  sanitizer configs; timing holds the page-transfer
#                  kernel's equivalence property test and the
#                  cache's differential test against a timestamp-LRU
#                  reference model; ckpt holds the checkpoint engines,
#                  the co-location tests, which build and tear down
#                  services on shared slots, and the recovery ladder).
#   ci-tsan        thread sanitizer over the parallel sweep harness,
#                  the storm cells, and the per-cell trace logs:
#                  -L harness, resilience, obs, check, adversary,
#                  domain, cluster, rca, config.
#
# All three presets set CMAKE_COMPILE_WARNING_AS_ERROR, so a -Wall
# -Wextra warning anywhere in the tree fails the build (CMake 3.24 or
# newer; older CMake ignores the setting).
#
# The ci-release leg additionally runs the repository benchmark's
# smoke gate, perfbench/gate.py --smoke (every BENCHMARK.json workload
# at quarter size, untraced and traced, with its digest and schema
# checks).
#
# Usage: scripts/ci.sh [preset ...]   (default: all three in order)

set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(ci-release ci-asan-ubsan ci-tsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)

for preset in "${presets[@]}"; do
    echo "=== [$preset] configure"
    cmake --preset "$preset"
    echo "=== [$preset] build"
    cmake --build --preset "$preset" -j "$jobs"
    echo "=== [$preset] test"
    ctest --preset "$preset" -j "$jobs"
    if [ "$preset" = ci-release ]; then
        # Benchmark smoke: perfbench builds its own optimized tree;
        # sanitizer builds would only measure the instrumentation.
        echo "=== [$preset] perfbench smoke"
        python3 perfbench/gate.py --smoke
    fi
done

echo "=== all CI presets passed: ${presets[*]}"
