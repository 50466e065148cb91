#!/usr/bin/env python3
"""Harness self-test for bench/run.py; runs in seconds.

usage: python3 bench/selftest.py

- `analyze --field 0,1` at ell = 3 and at ell = 5 (NoTorsion) must pass its
  checks and print every end-to-end metric of BENCHMARK.json by name with
  its unit; its traced run must print every per-layer metric.
- `oracle-check --forms-bound 50 --inject-fault` must come out as a failed
  case (failed_frac > 0, correct false).
- In a directory that holds only BENCHMARK.json and bench/, the benchmark
  must exit nonzero without printing a result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc, res = bench("smoke", trace)
        expect(proc.returncode == 0 and res is not None,
               f"smoke --trace {trace} exits 0 with a JSON result")
        if res is None:
            continue
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 2,
               f"smoke --trace {trace}: analyze Q at ell 3 and 5 pass their checks")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v.get("unit") for k, v in res["metrics"].items()}
        expect(got == want, f"smoke --trace {trace} prints every {section} metric with its unit")
        if trace == 0:
            expect(all(f"  {name} " in proc.stdout for name in
                       ("wall_s", "slowest_case_s", "setup_s", "peak_rss_mb", "failed_frac")),
                   "smoke prints the stats table with failed_frac")

    proc, res = bench("fault", 0)
    expect(proc.returncode == 0 and res is not None, "fault exits 0 with a JSON result")
    if res is not None:
        expect(res["failed"] >= 1 and not res["correct"]
               and res["metrics"]["ok_frac"]["value"] < 1.0,
               "oracle-check --inject-fault counts as a failed case (failed_frac > 0)")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, res = bench("class_groups", 0, cwd=bare)
        expect(proc.returncode != 0 and res is None,
               "without the sources the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
