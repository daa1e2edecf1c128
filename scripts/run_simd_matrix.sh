#!/usr/bin/env bash
# Builds and tests the suite with the SIMD batch dominance kernels OFF and
# ON, then proves the determinism contract: the Figure 9 report must be
# byte-identical between the forced-scalar and SIMD builds at 1 and 8
# threads, with the parallel emission flush (--pipeline) off and on, and
# with the tree-indexed coarse phase off and on (the batch kernels charge
# the exact dominance_cmps counts of the serial scalar loops, the flush
# merges its shards in the serial emit order, and the coarse index charges
# the serial scan's exact coarse_ops, so no report quantity may move).
#
#   scripts/run_simd_matrix.sh [EXTRA_CMAKE_FLAGS...]
#
# Pair with scripts/run_tsan.sh, which accepts -DCAQE_SIMD=OFF/ON the same
# way for a sanitized run of either kernel path.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $(nproc) < 2 )); then
  echo "WARNING: nproc=$(nproc) — the 8-thread cells all run on one" \
       "hardware CPU; the matrix still proves determinism, but not" \
       "parallel speedup." >&2
fi

FIG9_ARGS=(--rows=4000)
declare -A REPORTS

for simd in OFF ON; do
  build_dir="build-simd-${simd,,}"
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCAQE_SIMD="${simd}" \
    -DCAQE_BUILD_EXAMPLES=OFF \
    "$@"
  cmake --build "${build_dir}" -j"$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"
  for threads in 1 8; do
    for pipeline in 0 1; do
      for coarse in 0 1; do
        out="${build_dir}/fig9_t${threads}_p${pipeline}_c${coarse}.txt"
        "./${build_dir}/bench/bench_fig9" "${FIG9_ARGS[@]}" \
          --threads="${threads}" --pipeline="${pipeline}" \
          --coarse_index="${coarse}" > "${out}"
        REPORTS["${simd}_${threads}_${pipeline}_${coarse}"]="${out}"
      done
    done
  done
done

# Per thread count, every (SIMD, pipeline, coarse_index) cell must match
# the scalar serial-flush scan-phase report.
status=0
for threads in 1 8; do
  tools/report_diff.sh "fig9 report (threads=${threads})" \
    "${REPORTS[OFF_${threads}_0_0]}" \
    "OFF_pipeline=${REPORTS[OFF_${threads}_1_0]}" \
    "OFF_coarse_index=${REPORTS[OFF_${threads}_0_1]}" \
    "OFF_pipeline_coarse_index=${REPORTS[OFF_${threads}_1_1]}" \
    "ON_scalar_path=${REPORTS[ON_${threads}_0_0]}" \
    "ON_pipeline=${REPORTS[ON_${threads}_1_0]}" \
    "ON_coarse_index=${REPORTS[ON_${threads}_0_1]}" \
    "ON_pipeline_coarse_index=${REPORTS[ON_${threads}_1_1]}" || status=1
done
exit "${status}"
