#!/usr/bin/env bash
# Builds the test suite under ThreadSanitizer and runs it.
#
#   scripts/run_tsan.sh [EXTRA_CMAKE_FLAGS...]
#
# The suite's parallel-determinism and thread-pool tests drive the engine's
# pooled phases (region build, map-layout join probing, plan-group
# evaluation, discard scans) with num_threads > 1, so data races in those
# paths surface here rather than in production sweeps. Benchmarks and
# examples are skipped: TSan slows execution ~10x and they add no coverage.
#
# Pass -DCAQE_SIMD=OFF to sanitize the forced-scalar dominance kernels;
# scripts/run_simd_matrix.sh runs the full scalar/SIMD determinism matrix.
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build-tsan}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCAQE_SANITIZE=thread \
  -DCAQE_BUILD_BENCHMARKS=OFF \
  -DCAQE_BUILD_EXAMPLES=OFF \
  "$@"
cmake --build "${BUILD_DIR}" -j"$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"$(nproc)"
