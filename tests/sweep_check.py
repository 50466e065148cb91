"""Re-run the `analyze --ell 3` sweep of a BENCH_*.json and print what moved.

usage: python tests/sweep_check.py BENCH_orientation.json [--json OUT]

Each field of the file's `sweep.fields` runs as
`python -m sl2tate.cli analyze --field=POLY --ell 3` from this checkout's
`src`, one process at a time, with a 120 s cap.  A field is printed when its
exit code, the sha256 of its stdout or its stripped stderr differs from the
file's `change` side.  The last line counts the fields that match; the exit
status is 1 when any field differs.  `--json OUT` also writes every field's
result.  pytest does not collect this file (its name does not start with
`test_`).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TIMEOUT_S = 120


def run_field(poly: str) -> dict:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sl2tate.cli", "analyze", f"--field={poly}",
             "--ell", "3"],
            capture_output=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": SRC})
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "stdout_sha256": None, "stderr": "",
                "wall_s": TIMEOUT_S}
    return {"exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": proc.stderr.decode().strip(),
            "wall_s": round(time.perf_counter() - start, 3)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("bench_file")
    p.add_argument("--json", dest="json_out")
    args = p.parse_args(argv)
    with open(args.bench_file) as f:
        fields = json.load(f)["sweep"]["fields"]
    results, differ = [], 0
    for rec in fields:
        got, want = run_field(rec["field"]), rec["change"]
        moved = [key for key in ("exit", "stdout_sha256", "stderr")
                 if got[key] != want[key]]
        if moved:
            differ += 1
            print(f"{rec['field']}: {', '.join(moved)} differ "
                  f"(exit {want['exit']} -> {got['exit']})", flush=True)
        results.append({"field": rec["field"], "result": got, "differs": moved})
    print(f"{len(fields) - differ} of {len(fields)} fields match {args.bench_file}")
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
