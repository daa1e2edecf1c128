#!/usr/bin/env bash
# Builds the test suite under ThreadSanitizer and runs it.
#
#   scripts/run_tsan.sh [EXTRA_CMAKE_FLAGS...]
#
# The suite's parallel-determinism and thread-pool tests drive the phases
# that fork onto the pool (region build, projection, plan-group evaluation,
# discard scans) with num_threads > 1, so data races in those paths surface
# here rather than in production sweeps. The tests that run an engine under
# ScopedScalarBatchKernels (oracle_test, engine_pin_test, views_pin_test,
# serve_test) put the scalar dominance kernels under TSan as well as the
# CPU's. Benchmarks and examples are skipped: TSan slows execution ~10x and
# they add no coverage.
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
