#!/usr/bin/env bash
# Proves the observability layer's determinism contract: attaching the
# tracing/metrics sinks must not change a single byte of any report. The
# Figure 9 benchmark is run over the full matrix of SIMD builds
# (CAQE_SIMD=OFF/ON) x tracing (detached / --trace_out + --metrics_out);
# its stdout tables must be byte-identical down every column, and the
# traced cells must actually produce a non-empty Chrome trace and a
# Prometheus snapshot. Two extra cells per build run the tree-indexed
# coarse phase (--coarse_index=1) at 1 and 8 threads — the coarse index may
# not move a byte either.
#
# A second matrix drives caqe_serve (batch mode) with --ledger_out,
# --health_out and --events_out at threads 1 and 8 per build. Every view of the contract event log must be byte-identical down
# every column: the audit ledger after stripping its single wall-clock
# field (report_diff.sh --normalize-wall), the contract-health timeline
# and the exec event stream as written — the DESIGN.md §15 determinism
# contract for per-request causal audit records.
#
#   scripts/run_obs_matrix.sh [EXTRA_CMAKE_FLAGS...]
#
# Reuses the build trees of scripts/run_simd_matrix.sh when present.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $(nproc) < 2 )); then
  echo "WARNING: nproc=$(nproc) — the 8-thread cells all run on one" \
       "hardware CPU; the matrix still proves determinism, but not" \
       "parallel speedup." >&2
fi

FIG9_ARGS=(--rows=2000)
SERVE_ARGS=(--rows=400 --sel=0.02 --requests=10 --seed=2014
            --target-regions=64)
declare -A REPORTS
declare -A LEDGERS
declare -A HEALTHS
declare -A EXEC_EVENTS
declare -A SERVE_REPORTS

for simd in OFF ON; do
  build_dir="build-simd-${simd,,}"
  # caqe_serve lives under tools/, gated by CAQE_BUILD_EXAMPLES.
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCAQE_SIMD="${simd}" \
    -DCAQE_BUILD_EXAMPLES=ON \
    "$@"
  cmake --build "${build_dir}" -j"$(nproc)" --target bench_fig9 caqe_serve_cli
  for tracing in off on; do
    out="${build_dir}/fig9_obs_${tracing}.txt"
    extra=()
    if [[ "${tracing}" == on ]]; then
      extra=(--trace_out="${build_dir}/fig9_trace.json"
             --metrics_out="${build_dir}/fig9_metrics.prom")
    fi
    "./${build_dir}/bench/bench_fig9" "${FIG9_ARGS[@]}" "${extra[@]}" \
      > "${out}"
    REPORTS["${simd}_${tracing}"]="${out}"
  done
  # Coarse-index cells: the tree-indexed coarse phase at 1 and 8 threads
  # must reproduce the scan-phase stdout byte for byte.
  for threads in 1 8; do
    out="${build_dir}/fig9_obs_coarse_t${threads}.txt"
    "./${build_dir}/bench/bench_fig9" "${FIG9_ARGS[@]}" \
      --threads="${threads}" --coarse_index=1 > "${out}"
    REPORTS["${simd}_coarse_t${threads}"]="${out}"
  done
  # Event-log cells: the serving layer's ledger, health timeline and exec
  # events must not move a byte (wall field aside) across thread counts.
  serve_bin="./${build_dir}/tools/caqe_serve"
  [[ -x "${serve_bin}" ]] || serve_bin="./${build_dir}/caqe_serve"
  for threads in 1 8; do
    cell="t${threads}"
    "${serve_bin}" "${SERVE_ARGS[@]}" \
      --threads="${threads}" \
      --ledger_out="${build_dir}/ledger_${cell}.jsonl" \
      --health_out="${build_dir}/health_${cell}.jsonl" \
      --events_out="${build_dir}/exec_events_${cell}.jsonl" \
      --report-out="${build_dir}/serve_report_${cell}.txt" > /dev/null
    LEDGERS["${simd}_${cell}"]="${build_dir}/ledger_${cell}.jsonl"
    HEALTHS["${simd}_${cell}"]="${build_dir}/health_${cell}.jsonl"
    EXEC_EVENTS["${simd}_${cell}"]="${build_dir}/exec_events_${cell}.jsonl"
    SERVE_REPORTS["${simd}_${cell}"]="${build_dir}/serve_report_${cell}.txt"
  done
  # Ledger cells must contain the full request lifecycle.
  grep -q '"kind":"arrival"' "${build_dir}/ledger_t1.jsonl"
  grep -q '"kind":"decision"' "${build_dir}/ledger_t1.jsonl"
  grep -q '"kind":"finish"' "${build_dir}/ledger_t1.jsonl"
  grep -q '"pscore":' "${build_dir}/health_t1.jsonl"
  grep -q '"kind":"query_admitted"' "${build_dir}/exec_events_t1.jsonl"
  # The traced cell must have written real artifacts.
  grep -q '"traceEvents"' "${build_dir}/fig9_trace.json"
  grep -q '^# TYPE caqe_engine_dominance_cmps_total counter$' \
    "${build_dir}/fig9_metrics.prom"
  echo "artifacts ok: ${build_dir}/fig9_trace.json," \
       "${build_dir}/fig9_metrics.prom"
done

# Every cell must match the scalar untraced baseline.
status=0
tools/report_diff.sh "fig9 stdout vs OFF_off" "${REPORTS[OFF_off]}" \
  "OFF_on=${REPORTS[OFF_on]}" \
  "ON_off=${REPORTS[ON_off]}" \
  "ON_on=${REPORTS[ON_on]}" \
  "OFF_coarse_t1=${REPORTS[OFF_coarse_t1]}" \
  "OFF_coarse_t8=${REPORTS[OFF_coarse_t8]}" \
  "ON_coarse_t1=${REPORTS[ON_coarse_t1]}" \
  "ON_coarse_t8=${REPORTS[ON_coarse_t8]}" || status=1

# Audit ledgers (wall field stripped), health timelines and exec event
# streams must match the scalar t1 baseline across threads x SIMD; the
# serving reports alongside them too.
ledger_cells=()
health_cells=()
exec_cells=()
serve_cells=()
for key in "${!LEDGERS[@]}"; do
  [[ "${key}" == "OFF_t1" ]] && continue
  ledger_cells+=("${key}=${LEDGERS[${key}]}")
  health_cells+=("${key}=${HEALTHS[${key}]}")
  exec_cells+=("${key}=${EXEC_EVENTS[${key}]}")
  serve_cells+=("${key}=${SERVE_REPORTS[${key}]}")
done
tools/report_diff.sh --normalize-wall "audit ledger vs OFF_t1" \
  "${LEDGERS[OFF_t1]}" "${ledger_cells[@]}" || status=1
tools/report_diff.sh "health timeline vs OFF_t1" \
  "${HEALTHS[OFF_t1]}" "${health_cells[@]}" || status=1
tools/report_diff.sh "exec events vs OFF_t1" \
  "${EXEC_EVENTS[OFF_t1]}" "${exec_cells[@]}" || status=1
tools/report_diff.sh "serve report vs OFF_t1" \
  "${SERVE_REPORTS[OFF_t1]}" "${serve_cells[@]}" || status=1
exit "${status}"
