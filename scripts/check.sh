#!/usr/bin/env bash
# Full verification sweep, six stages. The committed outputs under
# tests/golden/ (see its README) are the oracle of stages 2-4: a change
# that moves any study output fails here even when it moves every thread
# count and shard count the same way.
#   1. default build (warnings are errors) + the whole ctest suite (its
#      StudyDeterminism tests diff the mini study against
#      tests/golden/mini_study.txt);
#   2. the determinism + golden gate: scripts/golden_gate.sh runs the 13
#      experiment binaries at N threads and diffs each stdout against its
#      golden, then bench/table3_overview runs at 1 thread and must write
#      the same bytes (the runtime metrics report goes to stderr; wall/CPU
#      times are recorded as JSON lines);
#   3. the chaos gate: examples/continental_study under the canned fault
#      plan (examples/fault_plans/small_chaos.plan) at 1 thread and at N
#      threads — fault injection must not cost the bit-identical-replay
#      property, so the two stdouts are diffed byte for byte, and against
#      tests/golden/chaos_study.txt;
#   4. the serving-plane gate: the daemon smoke (example_serve_quickstart
#      end to end over a loopback socket), the replay-determinism gate
#      (continental study in --serve mode at 1 vs 4 ingest shards under the
#      chaos plan — batch/live parity must hold, the two stdouts must be
#      byte-identical and equal tests/golden/serve_study.txt, and both
#      verdict logs must hash to tests/golden/serve_verdicts.sha256), the
#      crash-recovery gate
#      (tools/crashloop kills the daemon at 10 seeded points — SIGKILL
#      mid-stream and torn WAL appends — restarts and recovers each time,
#      at 1 and at 4 ingest shards; every recovered verdict log must be
#      byte-identical to the uncrashed reference, and the two references
#      must match each other; then again with 1170-byte WAL segments (4 KiB
#      of v1 records, scaled by 2/7 as the default segment is) so the
#      daemon checkpoints and retires segments, half the kills landing
#      inside a checkpoint), and bench/perf_gate (full workload, best-of-3
#      reps) with the WAL on (the BENCH json must be produced and well-formed, and
#      scripts/perf_compare.sh must find it within 20% of the newest
#      committed BENCH_*.json baseline on ingest rate and p99 query
#      latency — durability priced in), then perfbench/smoke_test.py (the
#      perfbench harness at its tiny size: every declared metric reported,
#      its correctness checks not vacuous, its generators deterministic);
#   5. sanitizer builds: ThreadSanitizer (-DMANIC_SANITIZE=thread) rerunning
#      the runtime + driver tests with MANIC_THREADS=4, the SPSC ring's own
#      tests (staged runs, wrap-around, runs longer than the ring against a
#      live consumer), the IngestShard tests (quarter-ring runs, and
#      every marker carrying the staged run out), the CongestionService
#      tests (batch-boundary equivalence at runs of 1, 16 and 4,096
#      samples, run handover after submit and WAL recovery), the TcpDaemon
#      tests (the daemon event loop with live clients), the ServiceWal and
#      WalRecovery tests (the closer thread syncs a day's marker while the
#      shards finalize it and the producer goes on submitting; crash
#      recovery, ENOSPC and failed-sync degradation, and the streamed WAL
#      reader), the ServiceAdmission tests (Submit, SubmitBatch and WAL
#      replay agree on a hostile stream, with and without a clock and with
#      ENOSPC mid-batch), plus the faulted chaos study through the full serving plane (--serve, 4 ingest
#      shards: daemon event loop, shard workers, the closer, and the query plane all
#      under TSan) and crashloop kill/recover cycles (WAL replay and the
#      drain path under TSan, with and without checkpoints), then UBSan (-DMANIC_SANITIZE=undefined,
#      non-recoverable) running the full suite
#      (set MANIC_CHECK_SKIP_UBSAN=1 to skip the UBSan half);
#   6. static analysis: manic_lint --json over src/ bench/ tests/ examples/
#      with the graph passes active against tools/manic_lint/layers.txt,
#      the semantic passes (units dataflow against tools/manic_lint/units.txt
#      plus the determinism taint pass), the trust-boundary passes
#      (taint + must-check + hot-path contracts against
#      tools/manic_lint/trust.txt), and the concurrency passes (atomic
#      memory-order contracts, thread-role ownership, lock-order deadlock
#      detection against tools/manic_lint/concurrency.txt) (report lands in
#      build/check/lint.json; any error-severity finding fails the sweep,
#      warning-only runs pass); the curated .clang-tidy baseline, which skips with a
#      warning when clang-tidy is not installed; and — when clang++ is on
#      PATH — a Clang build of the annotated runtime with -Wthread-safety
#      promoted to an error, checking the GUARDED_BY/REQUIRES contracts in
#      src/runtime/thread_annotations.h (skipped with a note otherwise; CI's
#      clang job is the authoritative gate).
#
# Usage: scripts/check.sh [jobs]     (jobs defaults to nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
THREADS="${MANIC_CHECK_THREADS:-$(nproc)}"
OUT_DIR="${MANIC_CHECK_OUT:-build/check}"
mkdir -p "$OUT_DIR"

# Per-stage wall-clock bookkeeping: stage <label> closes the previous stage
# and opens the next; the summary prints at the end of the sweep.
STAGE_SUMMARY=()
STAGE_LABEL=""
STAGE_START=0
stage() {
  if [ -n "$STAGE_LABEL" ]; then
    STAGE_SUMMARY+=("$(printf '%5ds  %s' "$((SECONDS - STAGE_START))" "$STAGE_LABEL")")
  fi
  STAGE_LABEL="${1:-}"
  STAGE_START=$SECONDS
  if [ -n "$STAGE_LABEL" ]; then
    echo "== $STAGE_LABEL =="
  fi
}

stage "[1/6] default build + full test suite"
cmake -B build -S . -DMANIC_WARNINGS_AS_ERRORS=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

stage "[2/6] determinism + golden gate: 13 experiment stdouts vs tests/golden/, table3_overview at 1 vs $THREADS threads"
JSON="$OUT_DIR/study_runtime.json"
: > "$JSON"
MANIC_THREADS="$THREADS" MANIC_RUNTIME_JSON="$JSON" \
  scripts/golden_gate.sh "$OUT_DIR/golden"
MANIC_THREADS=1 MANIC_RUNTIME_JSON="$JSON" \
  ./build/bench/table3_overview > "$OUT_DIR/table3_t1.txt" 2> "$OUT_DIR/table3_t1.err"
if ! diff -u "$OUT_DIR/golden/table3_overview.txt" "$OUT_DIR/table3_t1.txt"; then
  echo "FAIL: table3_overview stdout differs between 1 and $THREADS threads" >&2
  exit 1
fi
echo "table3_overview stdout byte-identical at 1 and $THREADS threads."
echo "wall/CPU records of the study benches (also in $JSON):"
cat "$JSON"

stage "[3/6] chaos gate: continental study under small_chaos.plan, 1 vs $THREADS threads"
CHAOS_PLAN=examples/fault_plans/small_chaos.plan
./build/examples/example_continental_study 45 4 1 --faults "$CHAOS_PLAN" \
  > "$OUT_DIR/chaos_t1.txt"
./build/examples/example_continental_study 45 4 "$THREADS" --faults "$CHAOS_PLAN" \
  > "$OUT_DIR/chaos_tN.txt"
if ! diff -u "$OUT_DIR/chaos_t1.txt" "$OUT_DIR/chaos_tN.txt"; then
  echo "FAIL: faulted study stdout differs between 1 and $THREADS threads" >&2
  exit 1
fi
if ! diff -u tests/golden/chaos_study.txt "$OUT_DIR/chaos_t1.txt"; then
  echo "FAIL: faulted study stdout differs from tests/golden/chaos_study.txt" >&2
  exit 1
fi
echo "faulted study stdout byte-identical at 1 and $THREADS threads, and to its golden."

stage "[4/6] serving plane: daemon smoke, replay determinism, perf gate, perfbench smoke"
./build/examples/example_serve_quickstart > "$OUT_DIR/serve_quickstart.txt" \
  2> "$OUT_DIR/serve_quickstart.err"
grep -q "recurring=1 congested=1" "$OUT_DIR/serve_quickstart.txt" || {
  echo "FAIL: serve quickstart produced no congested verdict" >&2; exit 1; }
echo "daemon smoke OK (example_serve_quickstart over a loopback socket)."
./build/examples/example_continental_study 45 4 "$THREADS" \
  --faults "$CHAOS_PLAN" --serve --serve-shards 1 \
  --verdict-log "$OUT_DIR/serve_verdicts_s1.log" \
  > "$OUT_DIR/serve_s1.txt" 2> /dev/null
./build/examples/example_continental_study 45 4 "$THREADS" \
  --faults "$CHAOS_PLAN" --serve --serve-shards 4 \
  --verdict-log "$OUT_DIR/serve_verdicts_s4.log" \
  > "$OUT_DIR/serve_s4.txt" 2> /dev/null
if ! cmp -s "$OUT_DIR/serve_verdicts_s1.log" "$OUT_DIR/serve_verdicts_s4.log"; then
  echo "FAIL: daemon verdict log differs between 1 and 4 ingest shards" >&2
  exit 1
fi
if ! diff -u "$OUT_DIR/serve_s1.txt" "$OUT_DIR/serve_s4.txt"; then
  echo "FAIL: --serve stdout differs between 1 and 4 ingest shards" >&2
  exit 1
fi
grep -q "parity: OK" "$OUT_DIR/serve_s1.txt" || {
  echo "FAIL: batch/live parity check did not pass" >&2; exit 1; }
if ! diff -u tests/golden/serve_study.txt "$OUT_DIR/serve_s1.txt"; then
  echo "FAIL: --serve stdout differs from tests/golden/serve_study.txt" >&2
  exit 1
fi
# The log is too large to commit (~226 KB); its digest is the golden.
for log in "$OUT_DIR/serve_verdicts_s1.log" "$OUT_DIR/serve_verdicts_s4.log"; do
  if [ "$(sha256sum < "$log" | cut -d' ' -f1)" != \
       "$(cat tests/golden/serve_verdicts.sha256)" ]; then
    echo "FAIL: $log does not hash to tests/golden/serve_verdicts.sha256" >&2
    exit 1
  fi
done
echo "replay determinism OK: verdict log byte-identical at 1 and 4 shards and to its golden digest, batch/live parity holds."
# Crash-recovery gate: seeded kills (SIGKILL mid-stream + torn WAL appends),
# each incarnation recovers from the WAL and resumes from the watermark; the
# final verdict log must match an uncrashed reference byte for byte, and the
# references themselves must be shard-count independent.
rm -rf "$OUT_DIR/crashloop_s1" "$OUT_DIR/crashloop_s4"
./build/tools/crashloop --out-dir "$OUT_DIR/crashloop_s1" --shards 1 \
  --kills 10 --seed 7
./build/tools/crashloop --out-dir "$OUT_DIR/crashloop_s4" --shards 4 \
  --kills 10 --seed 7
if ! cmp -s "$OUT_DIR/crashloop_s1/reference.log" \
            "$OUT_DIR/crashloop_s4/reference.log"; then
  echo "FAIL: crashloop reference log differs between 1 and 4 shards" >&2
  exit 1
fi
echo "crash-recovery gate OK: 10 seeded kills survived at 1 and 4 shards, recovered logs byte-identical."
# The same gate with 1170-byte WAL segments (4 KiB of fixed-width v1
# records, scaled by 2/7 with the record; at 4096 bytes half the planned
# checkpoint kills find no checkpoint to land in): the daemon checkpoints and retires
# segments at nearly every day close, and half the kills die inside a
# checkpoint (manifest half written; committed, WAL not rolled; rolled,
# covered segments not yet deleted). Recovery must stay byte-identical, and
# the checkpointing reference must equal the checkpoint-free one.
rm -rf "$OUT_DIR/crashloop_ckpt_s1" "$OUT_DIR/crashloop_ckpt_s4"
./build/tools/crashloop --out-dir "$OUT_DIR/crashloop_ckpt_s1" --shards 1 \
  --kills 10 --seed 7 --segment-bytes 1170
./build/tools/crashloop --out-dir "$OUT_DIR/crashloop_ckpt_s4" --shards 4 \
  --kills 10 --seed 7 --segment-bytes 1170
for ref in "$OUT_DIR/crashloop_ckpt_s1/reference.log" \
           "$OUT_DIR/crashloop_ckpt_s4/reference.log"; do
  if ! cmp -s "$OUT_DIR/crashloop_s1/reference.log" "$ref"; then
    echo "FAIL: checkpointing crashloop reference differs: $ref" >&2
    exit 1
  fi
done
echo "checkpoint crash gate OK: 10 seeded kills (checkpoint kills included) survived at 1 and 4 shards, logs byte-identical."
# Full workload, not --quick: the committed baseline is a full run, and a
# quick run cannot amortize its day-close fsyncs over enough samples to sit
# in the same 20% band. Best-of-3 inside perf_gate keeps this a few seconds.
rm -rf "$OUT_DIR/bench_wal"
./build/bench/perf_gate --rev check --wal-dir "$OUT_DIR/bench_wal" \
  --out "$OUT_DIR/BENCH_check.json" > /dev/null
grep -q '"samples_per_sec"' "$OUT_DIR/BENCH_check.json" || {
  echo "FAIL: perf_gate json missing ingest rate" >&2; exit 1; }
scripts/perf_compare.sh "$OUT_DIR/BENCH_check.json"
echo "perf gate OK (report: $OUT_DIR/BENCH_check.json)."
# The benchmark harness itself, at its tiny size (builds its own
# .bench_build/ from this checkout).
python3 perfbench/smoke_test.py
echo "perfbench smoke OK."

stage "[5/6] sanitizer builds: TSan runtime/driver/ring/shard/service/daemon/WAL tests + serve chaos study, UBSan full suite"
cmake -B build-tsan -S . -DMANIC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target test_runtime test_driver \
  test_serve test_serve_wal example_continental_study crashloop
MANIC_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'Runtime|ThreadPool|SeedTree|StudyExecutor|StudyDeterminism|Driver|SpscRing|IngestShard|CongestionService|TcpDaemon|ServiceWal|WalRecovery|ServiceCheckpoint|ServiceAdmission'
# The serving plane under TSan: daemon event loop + 4 shard workers + the
# closer's collector handshake, exercised by the faulted chaos study end to
# end.
./build-tsan/examples/example_continental_study 45 4 4 \
  --faults "$CHAOS_PLAN" --serve --serve-shards 4 \
  > "$OUT_DIR/tsan_serve.txt" 2> "$OUT_DIR/tsan_serve.err"
grep -q "parity: OK" "$OUT_DIR/tsan_serve.txt" || {
  echo "FAIL: TSan serve chaos study lost batch/live parity" >&2; exit 1; }
echo "TSan serve chaos study OK (daemon + 4 shards, fault plan $CHAOS_PLAN)."
# One kill/recover cycle with the race detector on: the WAL replay path,
# the drain epilogue, and the reconnecting client all run under TSan.
rm -rf "$OUT_DIR/tsan_crashloop"
./build-tsan/tools/crashloop --out-dir "$OUT_DIR/tsan_crashloop" --shards 4 \
  --kills 2 --seed 3
echo "TSan crashloop OK (2 seeded kills, recover + drain under the race detector)."
# And with checkpoints: the shard workers write their parts at the marker
# while the closer syncs it, and recovery restores them, under TSan.
rm -rf "$OUT_DIR/tsan_crashloop_ckpt"
./build-tsan/tools/crashloop --out-dir "$OUT_DIR/tsan_crashloop_ckpt" \
  --shards 4 --kills 4 --seed 3 --segment-bytes 1170
echo "TSan checkpoint crashloop OK (4 seeded kills, checkpoints under the race detector)."
if [ "${MANIC_CHECK_SKIP_UBSAN:-0}" != "1" ]; then
  cmake -B build-ubsan -S . -DMANIC_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS"
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
else
  echo "(UBSan half skipped: MANIC_CHECK_SKIP_UBSAN=1)"
fi

stage "[6/6] static analysis: manic-lint (rules + graph + semantic + trust + concurrency passes), clang-tidy, thread-safety"
cmake --build build -j "$JOBS" --target manic_lint
# Exit 1 = error-severity findings (fail), 2 = warnings only (pass, but the
# findings are on stderr and in the JSON), 3 = usage/IO trouble (fail).
LINT_STATUS=0
./build/tools/manic_lint --json --layers tools/manic_lint/layers.txt \
  --units tools/manic_lint/units.txt \
  --trust tools/manic_lint/trust.txt \
  --concurrency tools/manic_lint/concurrency.txt \
  src bench tests examples > "$OUT_DIR/lint.json" || LINT_STATUS=$?
case "$LINT_STATUS" in
  0) echo "manic-lint clean (report: $OUT_DIR/lint.json)" ;;
  2) echo "manic-lint: warnings only (report: $OUT_DIR/lint.json)" ;;
  *) echo "FAIL: manic-lint exited $LINT_STATUS (report: $OUT_DIR/lint.json)" >&2
     exit 1 ;;
esac
scripts/run_clang_tidy.sh build "$JOBS"
if command -v clang++ >/dev/null 2>&1; then
  echo "-- clang thread-safety build (src/runtime annotations, -Wthread-safety as error)"
  cmake -B build-clang-tsa -S . -DCMAKE_C_COMPILER=clang \
    -DCMAKE_CXX_COMPILER=clang++ -DMANIC_BUILD_TESTS=OFF \
    -DMANIC_BUILD_BENCH=OFF -DMANIC_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-clang-tsa -j "$JOBS"
  echo "clang thread-safety analysis clean."
else
  echo "(clang thread-safety build skipped: clang++ not installed; CI's clang job covers it)"
fi

stage ""
echo "-- stage wall-clock summary --"
for line in "${STAGE_SUMMARY[@]}"; do
  echo "  $line"
done

echo "All checks passed."
