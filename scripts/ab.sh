#!/usr/bin/env bash
# Same-host A/B of one perfbench workload: this checkout (its working tree,
# uncommitted edits included) against a base revision, in interleaved
# pairs.
#
# Usage: scripts/ab.sh <base-rev> <workload> <pairs> <first-seed>
#
# The base is checked out into a detached `git worktree` under build/ (and
# removed again on exit). Pair i runs `perfbench/run.py --workload
# <workload> --seed <first-seed + i>` once on each side, the base first in
# even pairs and the change first in odd ones, so host drift does not
# favour either side. Each run lasts BENCHMARK.json's run_seconds.
# perfbench is called, never edited: each side builds its own harness from
# its own sources into its own .bench_build/.
#
# Prints, for every metric the runs report: the base's median and
# quartiles, the change's median, the median shift, and the pairs the
# change won and lost (better or worse in the metric's declared direction;
# a tie is neither). Exits 1 when any run fails its own output checks, when
# the change's failed share of operations is larger than the base's, or
# when an end-to-end metric of BENCHMARK.json worsens, median against
# median, by more than its bound. Exits 2 on a usage or build error.
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: scripts/ab.sh <base-rev> <workload> <pairs> <first-seed>" >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BASE_SHA="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
BASE_TREE="$ROOT/build/ab-base-${BASE_SHA:0:12}"

cleanup() {
  git -C "$ROOT" worktree remove --force "$BASE_TREE" >/dev/null 2>&1 || true
  git -C "$ROOT" worktree prune
}
trap cleanup EXIT
mkdir -p "$ROOT/build"
cleanup
git -C "$ROOT" worktree add --detach "$BASE_TREE" "$BASE_SHA" >&2

python3 - "$ROOT" "$BASE_TREE" "$2" "$3" "$4" <<'PY'
import json
import os
import statistics
import subprocess
import sys

root, base_tree, workload = sys.argv[1], sys.argv[2], sys.argv[3]
pairs, first_seed = int(sys.argv[4]), int(sys.argv[5])
with open(os.path.join(root, "BENCHMARK.json")) as f:
    spec = json.load(f)
seconds = float(spec["run_seconds"])
declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run(tree, seed):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"ab: no result from {tree} seed {seed} "
              f"(exit {out.returncode})", file=sys.stderr)
        sys.exit(2)


results = {"base": [], "change": []}
for i in range(pairs):
    seed = first_seed + i
    order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
    for side in order:
        results[side].append(run(base_tree if side == "base" else root, seed))
    print(f"pair {i + 1}/{pairs} (seed {seed}, {order[0]} first) done",
          file=sys.stderr)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


failed = False
for side, runs in results.items():
    bad = [r for r in runs if not r.get("correct", False)]
    if bad:
        print(f"FAIL: {len(bad)} {side} run(s) failed their output checks")
        failed = True
share = {}
for side, runs in results.items():
    attempted = sum(r.get("attempted", 0) for r in runs)
    share[side] = sum(r.get("failed", 0) for r in runs) / max(1, attempted)
print(f"{workload}: {pairs} pairs, seeds {first_seed}..{first_seed + pairs - 1},"
      f" {seconds:g} s per run; failed share base {share['base']:.4f}"
      f" change {share['change']:.4f}")
if share["change"] > share["base"]:
    print("FAIL: the change fails a larger share of operations")
    failed = True

names = [n for n in results["base"][0]["metrics"]
         if all(n in r["metrics"] for r in results["base"] + results["change"])]
print(f"{'metric':<30} {'unit':>6} {'base q1':>11} {'base med':>11} "
      f"{'base q3':>11} {'change med':>11} {'shift':>8} {'won/lost':>9}  gate")
for name in names:
    base = [r["metrics"][name]["value"] for r in results["base"]]
    change = [r["metrics"][name]["value"] for r in results["change"]]
    unit = results["base"][0]["metrics"][name].get("unit", "")
    higher = declared.get(name, {}).get("better") == "higher"
    q1, med, q3 = quartiles(base)
    change_med = statistics.median(change)
    shift = (change_med - med) / med if med != 0 else 0.0
    wins = sum(1 for b, c in zip(base, change) if (c > b if higher else c < b))
    losses = sum(1 for b, c in zip(base, change)
                 if (c < b if higher else c > b))
    gate = ""
    if name in bounds:
        worse = -shift if higher else shift
        gate = f"bound {bounds[name]:.0%}"
        if worse > bounds[name]:
            gate += " WORSE"
            failed = True
    print(f"{name:<30} {unit:>6} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
          f"{change_med:>11.5g} {shift:>+8.1%} {wins:>4}/{losses:<4}  {gate}")
sys.exit(1 if failed else 0)
PY
