#!/usr/bin/env bash
# Steady-state allocation gate for the region hot path.
#
# Builds bench_alloc — the only binary linking caqe_alloc_hook, the
# counting operator new/delete — and fails if the engine averages more than
# the checked-in budget of heap allocations per region after warmup, in
# either batch execution or serving replay.
#
#   scripts/run_alloc_gate.sh [EXTRA_CMAKE_FLAGS...]
set -euo pipefail
cd "$(dirname "$0")/.."

# The budget is part of the repo contract: raising it is a reviewed change,
# not a knob. See DESIGN.md "Memory architecture" for what it buys.
ALLOC_BUDGET=5

build_dir="build-alloc-gate"
cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build "${build_dir}" -j"$(nproc)" --target bench_alloc
"./${build_dir}/bench/bench_alloc" \
  --max_allocs_per_region="${ALLOC_BUDGET}" \
  --out="${build_dir}/BENCH_alloc.json"
echo "alloc gate OK (budget ${ALLOC_BUDGET} allocs/region," \
     "report ${build_dir}/BENCH_alloc.json)"
