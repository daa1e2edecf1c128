#!/usr/bin/env bash
# Proves the serving layer's determinism contract: one fixed arrival trace
# replayed through caqe_serve must produce a byte-identical serving report
# across the full matrix of SIMD builds (CAQE_SIMD=OFF/ON), worker thread
# counts (1 and 8), and the parallel emission flush (--pipeline=0/1), plus
# tree-indexed coarse-phase cells (--coarse_index=1 at both worker counts)
# and one cell per build with the observability layer attached
# (--trace_out/--metrics_out/--health_out) — tracing is read-only with
# respect to the engine, so it must not move a byte either, and the traced
# cells' contract-health timelines must match across the SIMD builds. A
# composed
# coarse-index x compact-layout-off cell checks the orthogonal knobs
# together, and a second matrix runs the same trace with --calibrate=1:
# self-tuning admission changes decisions by design (data-shape
# parameter), so the calibrated cells are byte-diffed among themselves
# across threads x pipeline x SIMD. The report text deliberately excludes
# every non-deterministic quantity, so any diff is a real determinism bug.
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
declare -A REPORTS

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
    for pipeline in 0 1; do
      out="${build_dir}/serving_t${threads}_p${pipeline}.txt"
      "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
        --threads="${threads}" --pipeline="${pipeline}" \
        --report-out="${out}" > /dev/null
      REPORTS["${simd}_${threads}_${pipeline}"]="${out}"
    done
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
  # Compact-layout-off cells: the cache-conscious steady-state layout
  # (flat CSR join indexes, arena scratch) is a pure layout change, so
  # switching it off must reproduce the report byte for byte.
  for threads in 1 8; do
    out="${build_dir}/serving_t${threads}_mapidx.txt"
    "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
      --threads="${threads}" --compact_layout=0 \
      --report-out="${out}" > /dev/null
    REPORTS["${simd}_${threads}_mapidx"]="${out}"
  done
  # Coarse-index x compact-layout-off cell: the two orthogonal layout/index
  # knobs composed — still byte-identical.
  out="${build_dir}/serving_coarse_mapidx.txt"
  "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
    --threads=8 --coarse_index=1 --compact_layout=0 \
    --report-out="${out}" > /dev/null
  REPORTS["${simd}_coarse_mapidx"]="${out}"
  # Calibrated cells: --calibrate is a DATA-SHAPE parameter (it changes
  # admission decisions by design), so calibrated cells get their own
  # baseline and are byte-diffed among themselves across threads,
  # pipelining, and SIMD builds — the calibrator updates on the serial
  # driver step, so no execution axis may leak into its factors.
  for threads in 1 8; do
    for pipeline in 0 1; do
      out="${build_dir}/serving_t${threads}_p${pipeline}_calib.txt"
      "./${build_dir}/tools/caqe_serve" "${SERVE_ARGS[@]}" \
        --threads="${threads}" --pipeline="${pipeline}" --calibrate=1 \
        --report-out="${out}" > /dev/null
      REPORTS["${simd}_${threads}_${pipeline}_calib"]="${out}"
    done
  done
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
  # budget and cross-checks that the compact layout is report-neutral.
  cmake --build "${build_dir}" -j"$(nproc)" --target bench_alloc
  "./${build_dir}/bench/bench_alloc" --max_allocs_per_region=5 \
    --out="${build_dir}/BENCH_alloc.json" > /dev/null
done

# Every cell of the matrix must match the scalar single-threaded
# non-pipelined baseline.
status=0
tools/report_diff.sh "serving report vs OFF_1_0" "${REPORTS[OFF_1_0]}" \
  "OFF_1_pipeline=${REPORTS[OFF_1_1]}" \
  "OFF_8=${REPORTS[OFF_8_0]}" \
  "OFF_8_pipeline=${REPORTS[OFF_8_1]}" \
  "ON_1=${REPORTS[ON_1_0]}" \
  "ON_1_pipeline=${REPORTS[ON_1_1]}" \
  "ON_8=${REPORTS[ON_8_0]}" \
  "ON_8_pipeline=${REPORTS[ON_8_1]}" \
  "OFF_1_coarse=${REPORTS[OFF_1_coarse]}" \
  "OFF_8_coarse=${REPORTS[OFF_8_coarse]}" \
  "ON_1_coarse=${REPORTS[ON_1_coarse]}" \
  "ON_8_coarse=${REPORTS[ON_8_coarse]}" \
  "OFF_1_mapidx=${REPORTS[OFF_1_mapidx]}" \
  "OFF_8_mapidx=${REPORTS[OFF_8_mapidx]}" \
  "ON_1_mapidx=${REPORTS[ON_1_mapidx]}" \
  "ON_8_mapidx=${REPORTS[ON_8_mapidx]}" \
  "OFF_traced=${REPORTS[OFF_traced]}" \
  "ON_traced=${REPORTS[ON_traced]}" \
  "OFF_coarse_mapidx=${REPORTS[OFF_coarse_mapidx]}" \
  "ON_coarse_mapidx=${REPORTS[ON_coarse_mapidx]}" || status=1
# Calibrated cells against the calibrated scalar baseline.
tools/report_diff.sh "calibrated serving report vs OFF_1_0_calib" \
  "${REPORTS[OFF_1_0_calib]}" \
  "OFF_1_pipeline_calib=${REPORTS[OFF_1_1_calib]}" \
  "OFF_8_calib=${REPORTS[OFF_8_0_calib]}" \
  "OFF_8_pipeline_calib=${REPORTS[OFF_8_1_calib]}" \
  "ON_1_calib=${REPORTS[ON_1_0_calib]}" \
  "ON_1_pipeline_calib=${REPORTS[ON_1_1_calib]}" \
  "ON_8_calib=${REPORTS[ON_8_0_calib]}" \
  "ON_8_pipeline_calib=${REPORTS[ON_8_1_calib]}" || status=1
# The traced cells' contract-health timelines (virtual time only) must not
# depend on the SIMD build either.
tools/report_diff.sh "traced health timeline vs OFF" \
  build-simd-off/serving_health.jsonl \
  "ON=build-simd-on/serving_health.jsonl" || status=1
exit "${status}"
