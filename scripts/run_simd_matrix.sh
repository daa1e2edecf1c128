#!/usr/bin/env bash
# Builds and tests the suite with the SIMD batch dominance kernels OFF and
# ON, then proves the determinism contract: the Figure 9 report must be
# byte-identical between the forced-scalar and SIMD builds at 1 and 8
# threads (the batch kernels charge the exact dominance_cmps counts of the
# serial scalar loops, so no report quantity may move).
# The 4000-row report's region steps are too small to fork (DESIGN.md §7),
# so a large-region cell per build — caqe_cli's CAQE run over a
# 1.4M-result join, its own baseline — must write the same per-query and
# emission-trace CSVs at 1 and 8 threads, and its 8-thread --metrics_out
# must show forked projection steps. Four runs per build: two fig9, two
# large-region.
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
    out="${build_dir}/fig9_t${threads}.txt"
    "./${build_dir}/bench/bench_fig9" "${FIG9_ARGS[@]}" \
      --threads="${threads}" > "${out}"
    REPORTS["${simd}_${threads}"]="${out}"
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

# Every fig9 cell must match the scalar single-threaded report.
tools/report_diff.sh "fig9 report vs OFF_1" "${REPORTS[OFF_1]}" \
  "OFF_8=${REPORTS[OFF_8]}" \
  "ON_1=${REPORTS[ON_1]}" \
  "ON_8=${REPORTS[ON_8]}" || status=1
# The large-region cells against their scalar serial baseline.
tools/report_diff.sh "large-region CAQE results vs OFF_1_large" \
  "${REPORTS[OFF_1_large]}" \
  "OFF_8_large=${REPORTS[OFF_8_large]}" \
  "ON_1_large=${REPORTS[ON_1_large]}" \
  "ON_8_large=${REPORTS[ON_8_large]}" || status=1
exit "${status}"
