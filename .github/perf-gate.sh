#!/usr/bin/env bash
# Fails when a change is slower than its parent on the benchmark/ harness.
#
#   bash .github/perf-gate.sh parent.json change.json
#
# The two files are `benchmark/run.sh -json` results of the same workloads,
# seed and seconds. `benchmark/run.sh -agree` compares them against the
# bounds in BENCHMARK.json; the gate fails only on a DISAGREE row whose
# change side is worse by that metric's "better". Improvements and
# unresolved rows (repetitions spread wider than the bound) pass.
set -euo pipefail
report="$(bash benchmark/run.sh -agree "$1" "$2" 2>&1)" || true
echo "$report"
grep -q '^[0-9]* agree, [0-9]* disagree, ' <<<"$report" || exit 1
worse="$(awk 'NR == FNR { better[$1] = $2; next }
  $NF == "DISAGREE" {
    a = substr($3, 3) + 0; b = substr($4, 3) + 0
    if ((better[$2] == "lower" && b > a) || (better[$2] == "higher" && b < a)) print
  }' <(jq -r '.end_to_end[] | .name + " " + .better' BENCHMARK.json) - <<<"$report")"
if [ -n "$worse" ]; then
  printf 'perf gate: the change is worse than its parent on\n%s\n' "$worse" >&2
  exit 1
fi
echo "perf gate: no end-to-end metric is worse than at the parent"
