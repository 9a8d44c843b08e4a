#!/usr/bin/env python3
"""Smoke test of the perfbench harness at its tiny size (about a minute).

    python3 perfbench/smoke_test.py

From the root of a checkout. Checks that
  * every workload prints, as its last line, a result with every metric
    BENCHMARK.json declares (end-to-end untraced, per-layer traced), each
    with its declared unit, and passes its own correctness checks;
  * the checks are not vacuous: a corrupted study digest, a corrupted
    recovered verdict log and a corrupted query answer each make the run
    fail (exit non-zero, "correct": false);
  * the seeded stream and query-mix generators are deterministic: the same
    seed gives the same input digests, a different seed different ones.
Exits 0 when all of that holds.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["study", "ingest", "query"]


def run(workload, seed=1, trace=0, corrupt="none"):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", "--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stdout


def input_digests(stdout):
    return re.findall(r"^input .*digest=([0-9a-f]+)$", stdout, re.M)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for wl in WORKLOADS:
            code, result, _ = run(wl, trace=trace)
            label = f"{wl} trace={trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{label}: runs and passes its checks")
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared,
                   f"{label}: prints every declared {key} metric with its "
                   f"unit (missing {sorted(set(declared) - set(got))}, "
                   f"extra {sorted(set(got) - set(declared))}, wrong unit "
                   f"{sorted(k for k in got if k in declared and got[k] != declared[k])})")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: attempted >= 1, failed == 0")

    for wl, corrupt in (("study", "digest"), ("ingest", "log"),
                        ("query", "log"), ("query", "answer")):
        code, result, _ = run(wl, corrupt=corrupt)
        expect(code != 0 and result is not None and not result["correct"],
               f"{wl} --corrupt {corrupt}: the check fails the run")

    for wl in ("ingest", "query"):
        a = input_digests(run(wl, seed=7)[2])
        b = input_digests(run(wl, seed=7)[2])
        c = input_digests(run(wl, seed=8)[2])
        expect(len(a) >= 1 and a == b, f"{wl}: same seed, same input digests")
        expect(len(c) == len(a) and all(x != y for x, y in zip(a, c)),
               f"{wl}: different seed, different input digests")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
