#!/usr/bin/env bash
# The CI pipeline, runnable locally: three configurations of the same
# tree, each driven through its CMake preset (see CMakePresets.json).
#
#   ci-release     Release build, the full ctest suite (unit tests,
#                  harness determinism, fault campaign smoke, overload
#                  storm smoke with its self-checks, and the obs
#                  export smoke: --stats-json/--trace validation).
#   ci-asan-ubsan  address+undefined sanitizers over the labelled
#                  corruption paths and the config registry: -L
#                  faults, resilience, harness, obs, check, adversary,
#                  domain, cluster, rca, config (the differential-oracle
#                  tests run with INDRA_CHECK=ON under both sanitizer
#                  configs).
#   ci-tsan        thread sanitizer over the parallel sweep harness,
#                  the storm cells, and the per-cell trace logs:
#                  -L harness, resilience, obs, check, adversary,
#                  domain, cluster, rca, config.
#
# The ci-release leg additionally runs the repository benchmark's
# smoke gate, perfbench/gate.py --smoke (every BENCHMARK.json workload
# at quarter size, untraced and traced, with its digest and schema
# checks), scripts/adversary_smoke.sh
# (the survivability matrix: --jobs 1/8 bit-identity of the closed
# feedback loop plus a caught re-infection), scripts/domain_smoke.sh
# (confined rewind vs full rejuvenation with the bench self-checks
# armed, plus the fuzzer's planted confined-rewind bug caught by
# domain-rewind-confined and shrunk), and scripts/cluster_smoke.sh
# (the fleet sweep with its graceful-degradation and monotone
# recovery-tail self-checks, bit-identical across --jobs 1/8), and
# scripts/rca_smoke.sh (the vulnerability map with replay-based
# root-cause analysis: --jobs 1/8 bit-identity, the planted
# backup-corruption escape caught and shrunk, and a --replay CLI
# round trip).
#
# After the presets, scripts/fuzz_smoke.sh runs a fixed-seed slice of
# the oracle fuzzer plus its planted-bug sensitivity check.
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
        echo "=== [$preset] adversary smoke"
        scripts/adversary_smoke.sh \
            build-ci-release/bench/bench_adaptive_adversary
        echo "=== [$preset] domain smoke"
        scripts/domain_smoke.sh \
            build-ci-release/bench/bench_domain_rewind
        echo "=== [$preset] cluster smoke"
        scripts/cluster_smoke.sh \
            build-ci-release/bench/bench_cluster_scale
        echo "=== [$preset] rca smoke"
        scripts/rca_smoke.sh \
            build-ci-release/bench/bench_vuln_map
    fi
done

scripts/fuzz_smoke.sh

echo "=== all CI presets passed: ${presets[*]}"
