#!/usr/bin/env bash
# The experiment binaries' golden gate: runs each of the 13 bench/
# experiment binaries (every one but micro_algorithms and perf_gate) from
# build/bench and diffs its stdout byte for byte against
# tests/golden/<name>.txt. Every binary runs and every mismatch is shown
# before the gate fails, so the stdouts left in <out-dir> (default
# build/check/golden) are a complete regeneration set for a deliberate
# output change (see tests/golden/README.md). Thread count and shard
# granularity come from MANIC_THREADS / MANIC_MONTHS_PER_SHARD as usual;
# the outputs must not depend on them.
#
# Usage: scripts/golden_gate.sh [out-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-build/check/golden}"
mkdir -p "$OUT"
BENCHES=(table3_overview table4_pairs fig7_evolution fig8_mean_congestion
         fig9_timeofday operator_validation table1_loss_validation
         fig3_timeseries table2_ndt fig6_ndt_timeseries fig4_youtube_cdfs
         fig5_failure_rates ablation_design)

failed=0
for name in "${BENCHES[@]}"; do
  start=$EPOCHREALTIME
  "./build/bench/$name" > "$OUT/$name.txt" 2> "$OUT/$name.err"
  wall=$(awk -v a="$start" -v b="$EPOCHREALTIME" 'BEGIN { print b - a }')
  if diff -u "tests/golden/$name.txt" "$OUT/$name.txt"; then
    printf '  %-24s %6.2fs  matches its golden\n' "$name" "$wall"
  else
    printf '  %-24s %6.2fs  DIFFERS from tests/golden/%s.txt\n' \
      "$name" "$wall" "$name" >&2
    failed=1
  fi
done
if [ "$failed" -ne 0 ]; then
  echo "FAIL: experiment stdouts differ from tests/golden/ (outputs in $OUT)" >&2
  exit 1
fi
echo "all ${#BENCHES[@]} experiment stdouts byte-identical to tests/golden/."
