#!/usr/bin/env bash
# Shared byte-diff gate of scripts/run_determinism_matrix.sh and
# scripts/run_net_matrix.sh: compares report files against a baseline and
# fails on any difference. Every compared report deliberately excludes
# non-deterministic quantities (wall times), so a diff is a real
# determinism bug, never noise.
#
#   tools/report_diff.sh [--normalize-wall] LABEL BASELINE KEY=FILE [KEY=FILE...]
#
# --normalize-wall strips the `,"wall_us":...` suffix from every compared
# line before diffing — the audit ledger's one wall-clock field is always
# emitted last exactly so this normalization is a plain sed. Everything
# left after stripping must be byte-identical between a live session and
# its replay.
#
# Prints one line per comparison. On a mismatch the unified diff goes to
# stderr and the final exit status is 1 — after checking every file, so one
# run reports all divergent cells at once.
set -euo pipefail

normalize_wall=0
if [[ "${1:-}" == "--normalize-wall" ]]; then
  normalize_wall=1
  shift
fi

if [[ $# -lt 3 ]]; then
  echo "usage: $0 [--normalize-wall] LABEL BASELINE KEY=FILE [KEY=FILE...]" >&2
  exit 2
fi

label="$1"
baseline="$2"
shift 2

tmpdir=""
if [[ "${normalize_wall}" == 1 ]]; then
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "${tmpdir}"' EXIT
  sed 's/,"wall_us":[0-9eE.+-]*//g' "${baseline}" > "${tmpdir}/baseline"
  baseline="${tmpdir}/baseline"
fi

status=0
n=0
for pair in "$@"; do
  key="${pair%%=*}"
  file="${pair#*=}"
  if [[ "${normalize_wall}" == 1 ]]; then
    n=$((n + 1))
    sed 's/,"wall_us":[0-9eE.+-]*//g' "${file}" > "${tmpdir}/cell.${n}"
    file="${tmpdir}/cell.${n}"
  fi
  if diff -u "${baseline}" "${file}" > /dev/null; then
    echo "${label} identical: ${key}"
  else
    echo "FAIL: ${label} differs: ${key}" >&2
    diff -u "${baseline}" "${file}" >&2 || true
    status=1
  fi
done
exit "${status}"
