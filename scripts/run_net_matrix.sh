#!/usr/bin/env bash
# Proves the wall-clock front-end's record/replay determinism oracle end to
# end, over real TCP:
#
#   1. Start `caqe_serve --listen` on an ephemeral loopback port with session
#      recording and the audit ledger on, drive a scripted client session
#      (submits, a cancel, STATUS, a TRACE lookup, DRAIN) through
#      caqe_net_client, scrape /metrics, /healthz, /statusz, /tracez/<id>
#      and /flightz over HTTP while the server lingers post-drain, then
#      STOP it.
#   2. Replay the recorded session trace on the virtual clock at threads 1
#      and 8, and byte-diff each replayed serving report (and exec event
#      stream) against the live session's. Each replay also writes its
#      audit ledger and contract-health timeline; every replayed health
#      timeline, and every ledger after stripping the wall-clock field
#      (report_diff.sh --normalize-wall), must match the live session's
#      byte for byte. A copy of the trace with its data-shape header
#      attributes stripped, and a data-shape flag next to --replay, must
#      each make the replay exit non-zero instead of replaying a default
#      world; a malformed or out-of-range value (rows=abc, seed=abc,
#      admit_all=2, target_regions=-5) must exit 1 naming the attribute,
#      not crash or replay a guessed world, and so must a header that
#      repeats a key (` rows=7` appended).
#   3. Diff the live /metrics scrape against the server's --metrics_out
#      snapshot, excluding the caqe_net_* series (the scrape itself perturbs
#      the net counters; every engine series must match exactly).
#   4. SIGTERM cell: a second live session is drained by SIGTERM instead of
#      a DRAIN command; the exit code must report drain success and its
#      trace must replay byte-identically too (report, exec events, ledger
#      and health timeline).
#
# The wall clock chooses the arrival quantum indices, so the live report is
# only comparable to replays of the *same* recorded session — every diff in
# this script is within one run.
#
#   scripts/run_net_matrix.sh [EXTRA_CMAKE_FLAGS...]
#
# Builds into scripts/run_determinism_matrix.sh's tree (build-matrix).
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="build-matrix"
cmake -B "${build_dir}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCAQE_BUILD_EXAMPLES=ON \
  "$@"
cmake --build "${build_dir}" -j"$(nproc)" --target caqe_serve_cli \
  caqe_net_client net_fuzz_test

# ---- Cell 0: protocol fuzz ----------------------------------------------
# The deterministic mutation fuzzer (tests/net_fuzz_test.cc) hammers
# ParseCommand/LineBuffer with hostile bytes before any socket opens: a
# parser crash would take the whole matrix down with a confusing diff.
"./${build_dir}/tests/net_fuzz_test" --gtest_brief=1

out="${build_dir}/net"
rm -rf "${out}"
mkdir -p "${out}"

serve="./${build_dir}/tools/caqe_serve"
client="./${build_dir}/tools/caqe_net_client"
DATA_ARGS=(--rows=400 --sel=0.02 --seed=2014 --target-regions=64)

wait_for_port() {
  local port_file=$1
  for _ in $(seq 1 100); do
    [[ -s "${port_file}" ]] && return 0
    sleep 0.1
  done
  echo "FAIL: server never wrote ${port_file}" >&2
  return 1
}

# ---- Cell 1: live wall-clock session, recorded --------------------------
"${serve}" --listen=127.0.0.1:0 "${DATA_ARGS[@]}" \
  --record="${out}/session.trace" \
  --port_file="${out}/port" \
  --linger=1 \
  --report-out="${out}/live_report.txt" \
  --events_out="${out}/live_events.jsonl" \
  --metrics_out="${out}/live_metrics.prom" \
  --ledger_out="${out}/live_ledger.jsonl" \
  --health_out="${out}/live_health.jsonl" \
  --flight_out="${out}/live_flight.jsonl" \
  > "${out}/live_stdout.txt" 2>&1 &
server_pid=$!
wait_for_port "${out}/port" || { kill "${server_pid}" 2>/dev/null; exit 1; }
port=$(cat "${out}/port")

"${client}" --port="${port}" --script=- > "${out}/client_transcript.txt" <<'EOF'
SUBMIT name=m0 key=0 pref=0,1 CONTRACT step:5
!expect QUEUED 0
SUBMIT name=m1 key=1 pref=1,2 priority=0.5 deadline=30 CONTRACT hyper:0.01,0.05
!expect QUEUED 1
SUBMIT name=m2 key=0 pref=0,2 sel=r:0:0.2:0.9 CONTRACT card:0.9,1
!expect QUEUED 2
CANCEL 1
STATUS
!expect STATUS
DRAIN
!expect DRAINED
TRACE m0
!expect TRACE-END
EOF

grep -q '^HELLO caqe/1' "${out}/client_transcript.txt"
grep -q '^QUEUED 2'     "${out}/client_transcript.txt"
grep -q '^DRAINED'      "${out}/client_transcript.txt"
# The TRACE verb returned the named request's ledger tail.
grep -q '^TRACE 0 records=' "${out}/client_transcript.txt"
grep -q '"kind":"finish"'   "${out}/client_transcript.txt"

# Post-drain scrapes: --linger keeps STATUS and HTTP alive, and the engine
# stats are final once the drain produced the report.
"${client}" --port="${port}" --get=/metrics > "${out}/scrape_metrics.prom"
"${client}" --port="${port}" --get=/healthz > "${out}/scrape_healthz.txt"
grep -q '^ok state=drained' "${out}/scrape_healthz.txt"

# Debug introspection endpoints (same port): the live-request table, one
# request's causal tree, and the flight-recorder ring.
"${client}" --port="${port}" --get=/statusz > "${out}/scrape_statusz.txt"
grep -q '^state: drained' "${out}/scrape_statusz.txt"
grep -q '^0 m0 '          "${out}/scrape_statusz.txt"
"${client}" --port="${port}" --get=/tracez/0 > "${out}/scrape_tracez.json"
grep -q '"request":0'       "${out}/scrape_tracez.json"
grep -q '"kind":"arrival"'  "${out}/scrape_tracez.json"
"${client}" --port="${port}" --get=/flightz > "${out}/scrape_flightz.jsonl"
grep -q '"kind":"audit"' "${out}/scrape_flightz.jsonl"
# Hostile request ids earn stable error bodies (non-200 -> client exits 1).
if "${client}" --port="${port}" --get=/tracez/abc \
    > "${out}/scrape_tracez_bad.txt"; then
  echo "FAIL: /tracez/abc returned 200" >&2
  exit 1
fi
grep -q 'bad-request-id' "${out}/scrape_tracez_bad.txt"
echo "introspection endpoints ok (/statusz /tracez /flightz TRACE)"

printf 'STOP\n' | "${client}" --port="${port}" --script=- > /dev/null
server_rc=0
wait "${server_pid}" || server_rc=$?
if (( server_rc != 0 )); then
  echo "FAIL: live server exited ${server_rc} (drain did not succeed)" >&2
  cat "${out}/live_stdout.txt" >&2
  exit 1
fi

# ---- Metrics: HTTP scrape vs --metrics_out snapshot ----------------------
# The scrape connection itself moves the caqe_net_* series (connections,
# bytes), so those are excluded; every engine series must match exactly.
grep -v 'caqe_net_' "${out}/scrape_metrics.prom" > "${out}/scrape_engine.prom"
grep -v 'caqe_net_' "${out}/live_metrics.prom"   > "${out}/snap_engine.prom"
if ! diff -u "${out}/snap_engine.prom" "${out}/scrape_engine.prom"; then
  echo "FAIL: /metrics scrape diverges from --metrics_out snapshot" >&2
  exit 1
fi
echo "metrics scrape matches snapshot (caqe_net_* excluded)"
grep -q '^caqe_net_connections_total' "${out}/scrape_metrics.prom"

# ---- Replay cells: threads 1 and 8 ---------------------------------------
status=0
diff_args=()
ledger_args=()
health_args=()
for threads in 1 8; do
  tag="t${threads}"
  "${serve}" --replay="${out}/session.trace" --threads="${threads}" \
    --report-out="${out}/replay_${tag}.txt" \
    --events_out="${out}/replay_${tag}.jsonl" \
    --ledger_out="${out}/replay_${tag}_ledger.jsonl" \
    --health_out="${out}/replay_${tag}_health.jsonl" > /dev/null
  diff_args+=("${tag}=${out}/replay_${tag}.txt")
  ledger_args+=("${tag}=${out}/replay_${tag}_ledger.jsonl")
  health_args+=("${tag}=${out}/replay_${tag}_health.jsonl")
  if ! cmp -s "${out}/live_events.jsonl" "${out}/replay_${tag}.jsonl"; then
    echo "FAIL: exec event stream ${tag} diverges from live session" >&2
    status=1
  fi
done
tools/report_diff.sh "net replay vs live session" "${out}/live_report.txt" \
  "${diff_args[@]}" || status=1
# The audit ledger reconstructs every request's causal decision history;
# minus its wall-clock field it must replay byte-for-byte.
tools/report_diff.sh --normalize-wall "audit ledger replay vs live" \
  "${out}/live_ledger.jsonl" "${ledger_args[@]}" || status=1
# The contract-health timeline is virtual-time only: it must replay
# byte-for-byte as written.
grep -q '"pscore":' "${out}/live_health.jsonl"
tools/report_diff.sh "health timeline replay vs live" \
  "${out}/live_health.jsonl" "${health_args[@]}" || status=1

# ---- Data-shape cells: a replay must not guess the world ------------------
# A trace whose header lost its data-shape attributes (only quantum= left)
# would otherwise replay a default world, and a data-shape flag next to
# --replay would override the recorded one; both must fail.
sed -E '1s/ (rows|sel|seed|target_regions|policy|admit_all|calibrate)=[^ ]*//g' \
  "${out}/session.trace" > "${out}/shapeless.trace"
shape_status=0
if cmp -s "${out}/session.trace" "${out}/shapeless.trace" ||
    ! head -n 1 "${out}/shapeless.trace" | grep -q ' quantum='; then
  echo "FAIL: could not strip the data shape from the trace header" >&2
  shape_status=1
elif "${serve}" --replay="${out}/shapeless.trace" \
    > /dev/null 2> "${out}/shapeless_stderr.txt"; then
  echo "FAIL: replay of a trace without its data shape exited 0" >&2
  shape_status=1
elif ! grep -q 'lacks data-shape attributes' "${out}/shapeless_stderr.txt"; then
  echo "FAIL: shapeless replay failed for another reason:" >&2
  cat "${out}/shapeless_stderr.txt" >&2
  shape_status=1
fi
if "${serve}" --replay="${out}/session.trace" --rows=1000 \
    > /dev/null 2> "${out}/shape_flag_stderr.txt"; then
  echo "FAIL: replay with a data-shape flag exited 0" >&2
  shape_status=1
fi
# A malformed or out-of-range value must fail as an error that names its
# attribute (exit 1), not a crash or a replay of a guessed world. Each copy
# of the trace changes one header attribute.
for bad in rows=abc seed=abc admit_all=2 target_regions=-5; do
  key="${bad%%=*}"
  sed -E "1s/ ${key}=[^ ]*/ ${bad}/" "${out}/session.trace" \
    > "${out}/bad_${key}.trace"
  bad_rc=0
  "${serve}" --replay="${out}/bad_${key}.trace" \
    > /dev/null 2> "${out}/bad_${key}_stderr.txt" || bad_rc=$?
  if cmp -s "${out}/session.trace" "${out}/bad_${key}.trace"; then
    echo "FAIL: could not set ${bad} in the trace header" >&2
    shape_status=1
  elif (( bad_rc != 1 )) ||
      ! grep -q "${key}" "${out}/bad_${key}_stderr.txt"; then
    echo "FAIL: replay with ${bad} exited ${bad_rc} (want 1 naming" \
         "${key}):" >&2
    cat "${out}/bad_${key}_stderr.txt" >&2
    shape_status=1
  fi
done
# A repeated key has no one meaning, so the loader rejects the header.
sed -E '1s/$/ rows=7/' "${out}/session.trace" > "${out}/dup_rows.trace"
dup_rc=0
"${serve}" --replay="${out}/dup_rows.trace" \
  > /dev/null 2> "${out}/dup_rows_stderr.txt" || dup_rc=$?
if ! head -n 1 "${out}/dup_rows.trace" | grep -q ' rows=[0-9]* .* rows=7$'; then
  echo "FAIL: could not repeat rows= in the trace header" >&2
  shape_status=1
elif (( dup_rc != 1 )) || ! grep -q 'bad-header' "${out}/dup_rows_stderr.txt"; then
  echo "FAIL: replay with a repeated rows= exited ${dup_rc} (want 1," \
       "bad-header):" >&2
  cat "${out}/dup_rows_stderr.txt" >&2
  shape_status=1
fi
if (( shape_status == 0 )); then
  echo "data-shape cells ok (shapeless trace, --rows next to --replay," \
       "rows=abc, seed=abc, admit_all=2, target_regions=-5 and a repeated" \
       "rows= fail)"
else
  status=1
fi

# ---- SIGTERM cell: graceful drain by signal ------------------------------
"${serve}" --listen=127.0.0.1:0 "${DATA_ARGS[@]}" \
  --record="${out}/sig.trace" \
  --port_file="${out}/sig_port" \
  --linger=0 \
  --report-out="${out}/sig_report.txt" \
  --events_out="${out}/sig_events.jsonl" \
  --ledger_out="${out}/sig_ledger.jsonl" \
  --health_out="${out}/sig_health.jsonl" \
  > "${out}/sig_stdout.txt" 2>&1 &
sig_pid=$!
wait_for_port "${out}/sig_port" || { kill "${sig_pid}" 2>/dev/null; exit 1; }
sig_port=$(cat "${out}/sig_port")

"${client}" --port="${sig_port}" --script=- > "${out}/sig_transcript.txt" <<'EOF'
SUBMIT name=s0 key=0 pref=0,1,2 CONTRACT step:5
!expect QUEUED 0
SUBMIT name=s1 key=1 pref=0,2 CONTRACT log:0.1
!expect QUEUED 1
EOF

kill -TERM "${sig_pid}"
sig_rc=0
wait "${sig_pid}" || sig_rc=$?
if (( sig_rc != 0 )); then
  echo "FAIL: SIGTERM drain exited ${sig_rc} (want 0 = drain success)" >&2
  cat "${out}/sig_stdout.txt" >&2
  exit 1
fi
echo "SIGTERM drain completed with exit 0"

"${serve}" --replay="${out}/sig.trace" \
  --report-out="${out}/sig_replay.txt" \
  --events_out="${out}/sig_replay.jsonl" \
  --ledger_out="${out}/sig_replay_ledger.jsonl" \
  --health_out="${out}/sig_replay_health.jsonl" > /dev/null
tools/report_diff.sh "SIGTERM session replay vs live" \
  "${out}/sig_report.txt" "replay=${out}/sig_replay.txt" || status=1
cmp -s "${out}/sig_events.jsonl" "${out}/sig_replay.jsonl" || {
  echo "FAIL: SIGTERM session exec events diverge on replay" >&2
  status=1
}
tools/report_diff.sh --normalize-wall "SIGTERM ledger replay vs live" \
  "${out}/sig_ledger.jsonl" "replay=${out}/sig_replay_ledger.jsonl" \
  || status=1
tools/report_diff.sh "SIGTERM health replay vs live" \
  "${out}/sig_health.jsonl" "replay=${out}/sig_replay_health.jsonl" \
  || status=1

# ---- Calibrated cell: self-tuning admission, live -> replay --------------
# --calibrate is recorded in the session trace header (data-shape
# parameter), so the replay re-runs with the identical correction loop and
# must still byte-match the live report and event stream.
"${serve}" --listen=127.0.0.1:0 "${DATA_ARGS[@]}" --calibrate=1 \
  --record="${out}/calib.trace" \
  --port_file="${out}/calib_port" \
  --linger=0 \
  --report-out="${out}/calib_report.txt" \
  --events_out="${out}/calib_events.jsonl" \
  > "${out}/calib_stdout.txt" 2>&1 &
calib_pid=$!
wait_for_port "${out}/calib_port" || { kill "${calib_pid}" 2>/dev/null; exit 1; }
calib_port=$(cat "${out}/calib_port")

"${client}" --port="${calib_port}" --script=- > "${out}/calib_transcript.txt" <<'EOF'
SUBMIT name=c0 key=0 pref=0,1 CONTRACT step:5
!expect QUEUED 0
SUBMIT name=c1 key=1 pref=1,2 CONTRACT log:0.1
!expect QUEUED 1
SUBMIT name=c2 key=0 pref=0,1,2 CONTRACT hyper:0.5,0.1
!expect QUEUED 2
EOF

kill -TERM "${calib_pid}"
calib_rc=0
wait "${calib_pid}" || calib_rc=$?
if (( calib_rc != 0 )); then
  echo "FAIL: calibrated drain exited ${calib_rc} (want 0)" >&2
  cat "${out}/calib_stdout.txt" >&2
  exit 1
fi
grep -q 'calibrate=1' "${out}/calib.trace" || {
  echo "FAIL: session trace header lost the calibrate flag" >&2
  status=1
}
"${serve}" --replay="${out}/calib.trace" --threads=8 \
  --report-out="${out}/calib_replay.txt" \
  --events_out="${out}/calib_replay.jsonl" > /dev/null
tools/report_diff.sh "calibrated session replay vs live" \
  "${out}/calib_report.txt" "replay=${out}/calib_replay.txt" || status=1
cmp -s "${out}/calib_events.jsonl" "${out}/calib_replay.jsonl" || {
  echo "FAIL: calibrated session exec events diverge on replay" >&2
  status=1
}

exit "${status}"
