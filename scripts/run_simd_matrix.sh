#!/usr/bin/env bash
# Builds and tests the suite with the SIMD batch dominance kernels OFF and
# ON, then proves the determinism contract: the Figure 9 report must be
# byte-identical between the forced-scalar and SIMD builds at 1 and 8
# threads, with the tree-indexed coarse phase off and on (the batch kernels
# charge the exact dominance_cmps counts of the serial scalar loops, and
# the coarse index charges the serial scan's exact coarse_ops, so no report
# quantity may move).
# The 4000-row report's region steps are too small to fork (DESIGN.md §7),
# so a large-region cell per build — caqe_cli's CAQE run over a
# 1.4M-result join, its own baseline — must write the same per-query and
# emission-trace CSVs at 1 and 8 threads, and its 8-thread --metrics_out
# must show forked projection steps. Six runs per build.
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
LARGE_ARGS=(--rows=100000 --sel=0.0002 --engines=CAQE)
declare -A REPORTS
status=0

for simd in OFF ON; do
  build_dir="build-simd-${simd,,}"
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCAQE_SIMD="${simd}" \
    -DCAQE_BUILD_EXAMPLES=ON \
    "$@"
  cmake --build "${build_dir}" -j"$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"
  for threads in 1 8; do
    for coarse in 0 1; do
      out="${build_dir}/fig9_t${threads}_c${coarse}.txt"
      "./${build_dir}/bench/bench_fig9" "${FIG9_ARGS[@]}" \
        --threads="${threads}" --coarse_index="${coarse}" > "${out}"
      REPORTS["${simd}_${threads}_${coarse}"]="${out}"
    done
    prefix="${build_dir}/cli_t${threads}_large"
    "./${build_dir}/tools/caqe_cli" "${LARGE_ARGS[@]}" \
      --threads="${threads}" --metrics_out="${prefix}.prom" \
      --out="${prefix}" > /dev/null
    cat "${prefix}_queries_CAQE.csv" "${prefix}_trace_CAQE.csv" \
      > "${prefix}.txt"
    REPORTS["${simd}_${threads}_large"]="${prefix}.txt"
  done
  prom="${build_dir}/cli_t8_large.prom"
  forks=$(sed -n 's/^caqe_region_phase_forks_total{phase="project"} //p' \
    "${prom}")
  if [[ -z "${forks}" || "${forks}" == 0 ]]; then
    echo "FAIL: no projection step forked in ${prom}" >&2
    status=1
  else
    echo "${prom}: projection forked in ${forks} steps"
  fi
done

# Per thread count, every (SIMD, coarse_index) cell must match the scalar
# scan-phase report.
for threads in 1 8; do
  tools/report_diff.sh "fig9 report (threads=${threads})" \
    "${REPORTS[OFF_${threads}_0]}" \
    "OFF_coarse_index=${REPORTS[OFF_${threads}_1]}" \
    "ON_scalar_path=${REPORTS[ON_${threads}_0]}" \
    "ON_coarse_index=${REPORTS[ON_${threads}_1]}" || status=1
done
# The large-region cells against their scalar serial baseline.
tools/report_diff.sh "large-region CAQE results vs OFF_1_large" \
  "${REPORTS[OFF_1_large]}" \
  "OFF_8_large=${REPORTS[OFF_8_large]}" \
  "ON_1_large=${REPORTS[ON_1_large]}" \
  "ON_8_large=${REPORTS[ON_8_large]}" || status=1
exit "${status}"
