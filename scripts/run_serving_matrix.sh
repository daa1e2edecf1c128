#!/usr/bin/env bash
# Proves the serving layer's determinism contract: one fixed arrival trace
# replayed through caqe_serve must produce a byte-identical serving report
# across SIMD builds (CAQE_SIMD=OFF/ON) and worker thread counts (1 and 8),
# plus tree-indexed coarse-phase cells (--coarse_index=1 at both worker
# counts) and one cell per build with the observability layer attached
# (--trace_out/--metrics_out/--health_out) — tracing is read-only with
# respect to the engine, so it must not move a byte either, and the traced
# cells' contract-health timelines must match across the SIMD builds. A
# second matrix runs the same trace with --calibrate=1: self-tuning
# admission changes decisions by design (data-shape parameter), so the
# calibrated cells are byte-diffed among themselves across threads x SIMD.
# The 1000-row trace's region steps are too small to fork (DESIGN.md §7),
# so large-region cells (denser joins over 16 target regions, their own
# baseline) must show forked projection and plan-group evaluation in the
# 8-worker cell's --metrics_out. Nine caqe_serve runs per build. The report
# text deliberately excludes every non-deterministic quantity, so any diff
# is a real determinism bug.
#
#   scripts/run_serving_matrix.sh [EXTRA_CMAKE_FLAGS...]
#
# Reuses the build trees of scripts/run_simd_matrix.sh when present.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $(nproc) < 2 )); then
  echo "WARNING: nproc=$(nproc) — the 8-worker cells all run on one" \
       "hardware CPU; the matrix still proves determinism, but not" \
       "parallel speedup." >&2
fi

SERVE_ARGS=(--rows=1000 --requests=12 --rate=40 --seed=2014
            --cancel-fraction=0.1 --deadline-fraction=0.25)
LARGE_ARGS=(--sel=0.05 --target-regions=16)
declare -A REPORTS
status=0

# Fails the matrix unless every listed phase forked at least once in the
# Prometheus snapshot $1.
expect_forks() {
  local prom=$1 phase forks
  shift
  for phase in "$@"; do
    forks=$(sed -n "s/^caqe_region_phase_forks_total{phase=\"${phase}\"} //p" \
      "${prom}")
    if [[ -z "${forks}" || "${forks}" == 0 ]]; then
      echo "FAIL: no ${phase} step forked in ${prom}" >&2
      status=1
    else
      echo "${prom}: ${phase} forked in ${forks} steps"
    fi
  done
}

for simd in OFF ON; do
  build_dir="build-simd-${simd,,}"
  # caqe_serve lives under tools/, gated by CAQE_BUILD_EXAMPLES.
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCAQE_SIMD="${simd}" \
    -DCAQE_BUILD_EXAMPLES=ON \
    "$@"
  cmake --build "${build_dir}" -j"$(nproc)" --target caqe_serve_cli
  for threads in 1 8; do
    out="${build_dir}/serving_t${threads}.txt"
    "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
      --threads="${threads}" --report-out="${out}" > /dev/null
    REPORTS["${simd}_${threads}"]="${out}"
  done
  # Coarse-index cells: the tree-indexed coarse phase must reproduce the
  # scan-phase serving report byte for byte at both worker counts.
  for threads in 1 8; do
    out="${build_dir}/serving_t${threads}_coarse.txt"
    "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
      --threads="${threads}" --coarse_index=1 \
      --report-out="${out}" > /dev/null
    REPORTS["${simd}_${threads}_coarse"]="${out}"
  done
  # Calibrated cells: --calibrate is a DATA-SHAPE parameter (it changes
  # admission decisions by design), so calibrated cells get their own
  # baseline and are byte-diffed among themselves across threads and SIMD
  # builds — the calibrator updates on the serial driver step, so no
  # execution axis may leak into its factors.
  for threads in 1 8; do
    out="${build_dir}/serving_t${threads}_calib.txt"
    "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
      --threads="${threads}" --calibrate=1 \
      --report-out="${out}" > /dev/null
    REPORTS["${simd}_${threads}_calib"]="${out}"
  done
  # Large-region cells: the 8-worker cell must fork and still reproduce
  # the serial report byte for byte.
  for threads in 1 8; do
    out="${build_dir}/serving_t${threads}_large.txt"
    "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" "${LARGE_ARGS[@]}" \
      --threads="${threads}" \
      --metrics_out="${build_dir}/serving_t${threads}_large.prom" \
      --report-out="${out}" > /dev/null
    REPORTS["${simd}_${threads}_large"]="${out}"
  done
  expect_forks "${build_dir}/serving_t8_large.prom" project evaluate
  # Tracing-attached cell: the observability layer must not move a byte.
  out="${build_dir}/serving_traced.txt"
  "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
    --threads=1 --report-out="${out}" \
    --trace_out="${build_dir}/serving_trace.json" \
    --metrics_out="${build_dir}/serving_metrics.prom" \
    --health_out="${build_dir}/serving_health.jsonl" > /dev/null
  REPORTS["${simd}_traced"]="${out}"
  grep -q '"traceEvents"' "${build_dir}/serving_trace.json"
  grep -q '^# TYPE caqe_serve_admission_decisions_total counter$' \
    "${build_dir}/serving_metrics.prom"
  # Alloc-gate cell: the steady-state allocation budget of the region hot
  # path must hold in this build too. bench_alloc fails hard past the
  # budget.
  cmake --build "${build_dir}" -j"$(nproc)" --target bench_alloc
  "./${build_dir}/bench/bench_alloc" --max_allocs_per_region=5 \
    --out="${build_dir}/BENCH_alloc.json" > /dev/null
done

# Every cell of the matrix must match the scalar single-threaded baseline.
tools/report_diff.sh "serving report vs OFF_1" "${REPORTS[OFF_1]}" \
  "OFF_8=${REPORTS[OFF_8]}" \
  "ON_1=${REPORTS[ON_1]}" \
  "ON_8=${REPORTS[ON_8]}" \
  "OFF_1_coarse=${REPORTS[OFF_1_coarse]}" \
  "OFF_8_coarse=${REPORTS[OFF_8_coarse]}" \
  "ON_1_coarse=${REPORTS[ON_1_coarse]}" \
  "ON_8_coarse=${REPORTS[ON_8_coarse]}" \
  "OFF_traced=${REPORTS[OFF_traced]}" \
  "ON_traced=${REPORTS[ON_traced]}" || status=1
# Calibrated cells against the calibrated scalar baseline.
tools/report_diff.sh "calibrated serving report vs OFF_1_calib" \
  "${REPORTS[OFF_1_calib]}" \
  "OFF_8_calib=${REPORTS[OFF_8_calib]}" \
  "ON_1_calib=${REPORTS[ON_1_calib]}" \
  "ON_8_calib=${REPORTS[ON_8_calib]}" || status=1
# Large-region cells against their scalar serial baseline.
tools/report_diff.sh "large-region serving report vs OFF_1_large" \
  "${REPORTS[OFF_1_large]}" \
  "OFF_8_large=${REPORTS[OFF_8_large]}" \
  "ON_1_large=${REPORTS[ON_1_large]}" \
  "ON_8_large=${REPORTS[ON_8_large]}" || status=1
# The traced cells' contract-health timelines (virtual time only) must not
# depend on the SIMD build either.
tools/report_diff.sh "traced health timeline vs OFF" \
  build-simd-off/serving_health.jsonl \
  "ON=build-simd-on/serving_health.jsonl" || status=1
exit "${status}"
