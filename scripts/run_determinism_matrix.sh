#!/usr/bin/env bash
# The determinism matrix: one Release build tree (build-matrix), one ctest
# run, then 13 binary runs whose outputs are byte-diffed with
# tools/report_diff.sh. Every compared file deliberately excludes wall time
# (the audit ledger's one wall field is stripped), so any diff is a real
# determinism bug, never noise.
#
# The batch dominance kernel axis is not a cell: ctest checks it in-process
# under ScopedScalarBatchKernels (oracle_test, engine_pin_test,
# views_pin_test, serve_test's ScalarKernelsReproduceReportAndEventViews,
# dominance_batch_test), on this tree's Release build too.
#
# Cells (binary runs in parentheses):
#   fig9     bench_fig9 at threads 1 and 8, and at threads 1 with
#            --trace_out/--metrics_out: stdout byte-identical across
#            threads and with tracing attached; the traced run writes a
#            Chrome trace and a Prometheus snapshot. (3)
#   cli      caqe_cli's CAQE run over a 1.4M-result join at threads 1 and
#            8: identical per-query and emission-trace CSVs, and the
#            8-thread --metrics_out shows forked projection steps (the
#            fig9 regions are too small to fork, DESIGN.md §7). (2)
#   serve    one caqe_serve arrival trace (cancels, deadlines) at threads 1
#            and 8, and at threads 1 with --trace_out/--metrics_out: the
#            serving report byte-identical across threads and with tracing
#            attached. The 8-thread and traced runs also write the audit
#            ledger, health timeline and exec events, which must match
#            across the thread counts (ledger minus its wall field). (3)
#   calib    the same trace with --calibrate=1 at threads 1 and 8: a
#            data-shape parameter that changes admission by design, so its
#            own baseline; the calibrator's factors may not move with
#            threads. (2)
#   large    the same trace over denser joins and 16 target regions at
#            threads 1 and 8: identical reports, and the 8-worker
#            --metrics_out shows forked projection and evaluation. (2)
#   alloc    bench_alloc: the region hot path stays within the checked-in
#            budget of heap allocations per region after warmup, in batch
#            execution and serving replay; it fails hard past it. (1)
#
#   scripts/run_determinism_matrix.sh [EXTRA_CMAKE_FLAGS...]
#
# scripts/run_net_matrix.sh builds into the same tree.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $(nproc) < 2 )); then
  echo "WARNING: nproc=$(nproc) — the 8-thread cells all run on one" \
       "hardware CPU; the matrix still proves determinism, but not" \
       "parallel speedup." >&2
fi

# The budget is part of the repo contract: raising it is a reviewed change,
# not a knob. See DESIGN.md "Memory architecture" for what it buys.
ALLOC_BUDGET=5
FIG9_ARGS=(--rows=4000)
CLI_ARGS=(--rows=100000 --sel=0.0002 --engines=CAQE)
SERVE_ARGS=(--rows=1000 --requests=12 --rate=40 --seed=2014
            --cancel-fraction=0.1 --deadline-fraction=0.25)
LARGE_ARGS=(--sel=0.05 --target-regions=16)
status=0

build_dir="build-matrix"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCAQE_BUILD_EXAMPLES=ON \
  "$@"
cmake --build "${build_dir}" -j"$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"

out="${build_dir}/determinism"
rm -rf "${out}"
mkdir -p "${out}"
fig9="./${build_dir}/bench/bench_fig9"
cli="./${build_dir}/tools/caqe_cli"
serve="./${build_dir}/tools/caqe_serve"

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

# ---- fig9 ----------------------------------------------------------------
for threads in 1 8; do
  "${fig9}" "${FIG9_ARGS[@]}" --threads="${threads}" \
    > "${out}/fig9_t${threads}.txt"
done
"${fig9}" "${FIG9_ARGS[@]}" --threads=1 \
  --trace_out="${out}/fig9_trace.json" \
  --metrics_out="${out}/fig9_metrics.prom" > "${out}/fig9_traced.txt"
grep -q '"traceEvents"' "${out}/fig9_trace.json"
grep -q '^# TYPE caqe_engine_dominance_cmps_total counter$' \
  "${out}/fig9_metrics.prom"
tools/report_diff.sh "fig9 report vs t1" "${out}/fig9_t1.txt" \
  "t8=${out}/fig9_t8.txt" \
  "traced=${out}/fig9_traced.txt" || status=1

# ---- cli: large regions through the batch engine -------------------------
for threads in 1 8; do
  prefix="${out}/cli_t${threads}"
  "${cli}" "${CLI_ARGS[@]}" --threads="${threads}" \
    --metrics_out="${prefix}.prom" --out="${prefix}" > /dev/null
  cat "${prefix}_queries_CAQE.csv" "${prefix}_trace_CAQE.csv" \
    > "${prefix}.txt"
done
expect_forks "${out}/cli_t8.prom" project
tools/report_diff.sh "large-region CAQE results vs t1" "${out}/cli_t1.txt" \
  "t8=${out}/cli_t8.txt" || status=1

# ---- serve: threads, tracing and the event-log views ---------------------
"${serve}" "${SERVE_ARGS[@]}" --threads=1 \
  --report-out="${out}/serve_t1.txt" > /dev/null
for cell in t8 traced; do
  extra=(--threads=8)
  if [[ "${cell}" == traced ]]; then
    extra=(--threads=1 --trace_out="${out}/serve_trace.json"
           --metrics_out="${out}/serve_metrics.prom")
  fi
  "${serve}" "${SERVE_ARGS[@]}" "${extra[@]}" \
    --ledger_out="${out}/ledger_${cell}.jsonl" \
    --health_out="${out}/health_${cell}.jsonl" \
    --events_out="${out}/exec_events_${cell}.jsonl" \
    --report-out="${out}/serve_${cell}.txt" > /dev/null
done
grep -q '"traceEvents"' "${out}/serve_trace.json"
grep -q '^# TYPE caqe_serve_admission_decisions_total counter$' \
  "${out}/serve_metrics.prom"
# The event log holds the full request lifecycle.
grep -q '"kind":"arrival"' "${out}/ledger_traced.jsonl"
grep -q '"kind":"decision"' "${out}/ledger_traced.jsonl"
grep -q '"kind":"finish"' "${out}/ledger_traced.jsonl"
grep -q '"pscore":' "${out}/health_traced.jsonl"
grep -q '"kind":"query_admitted"' "${out}/exec_events_traced.jsonl"
tools/report_diff.sh "serving report vs t1" "${out}/serve_t1.txt" \
  "t8=${out}/serve_t8.txt" \
  "traced=${out}/serve_traced.txt" || status=1
tools/report_diff.sh --normalize-wall "audit ledger vs traced t1" \
  "${out}/ledger_traced.jsonl" "t8=${out}/ledger_t8.jsonl" || status=1
tools/report_diff.sh "health timeline vs traced t1" \
  "${out}/health_traced.jsonl" "t8=${out}/health_t8.jsonl" || status=1
tools/report_diff.sh "exec events vs traced t1" \
  "${out}/exec_events_traced.jsonl" "t8=${out}/exec_events_t8.jsonl" \
  || status=1

# ---- calib and large: their own baselines --------------------------------
for threads in 1 8; do
  "${serve}" "${SERVE_ARGS[@]}" --threads="${threads}" --calibrate=1 \
    --report-out="${out}/calib_t${threads}.txt" > /dev/null
  "${serve}" "${SERVE_ARGS[@]}" "${LARGE_ARGS[@]}" --threads="${threads}" \
    --metrics_out="${out}/large_t${threads}.prom" \
    --report-out="${out}/large_t${threads}.txt" > /dev/null
done
expect_forks "${out}/large_t8.prom" project evaluate
tools/report_diff.sh "calibrated serving report vs t1" \
  "${out}/calib_t1.txt" "t8=${out}/calib_t8.txt" || status=1
tools/report_diff.sh "large-region serving report vs t1" \
  "${out}/large_t1.txt" "t8=${out}/large_t8.txt" || status=1

# ---- alloc ---------------------------------------------------------------
"./${build_dir}/bench/bench_alloc" \
  --max_allocs_per_region="${ALLOC_BUDGET}" \
  --out="${out}/BENCH_alloc.json" > /dev/null
echo "alloc budget ok (${ALLOC_BUDGET} allocs/region," \
     "report ${out}/BENCH_alloc.json)"
exit "${status}"
