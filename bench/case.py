"""Run one `sl2tate` CLI case in a fresh process, as a user would, and
record what the benchmark parent needs beyond the exit code and the report.

usage: python3 bench/case.py RECORD_JSON TRACE MODE -- CLI-ARGS...

  TRACE  1 installs the layer tracer (bench/tracer.py), 0 runs untraced.
  MODE   "run" calls `sl2tate.cli.main(CLI-ARGS)`; "setup" stops once the
         CLI is imported and the case's fixtures are ingested.

The record holds the monotonic-clock time at which set-up ended (the CLI is
imported and every `--fixtures` document is ingested), the import time of
`sl2tate.cli`, the class groups the run computed (for the parent's
correctness checks) and, when tracing, the trace.  The report goes to
stdout as usual.
"""
from __future__ import annotations

import json
import os
import sys
import time

FIRST_STATEMENT = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _fixture_paths(argv):
    paths = []
    if "--fixtures" in argv:
        for arg in argv[argv.index("--fixtures") + 1:]:
            if arg.startswith("--"):
                break
            paths.append(arg)
    return paths


def main() -> int:
    record_path, trace, mode = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(FIRST_STATEMENT)
    t0 = time.perf_counter()
    from sl2tate import cli, sinvariants
    from tracer import patch

    record = {"import_s": time.perf_counter() - t0,
              "setup_mark": time.monotonic(), "class_groups": []}

    if mode == "setup":
        store = sinvariants.BackendStore()
        for path in _fixture_paths(argv):
            with open(path) as f:
                sinvariants.ingest_backend(store, json.load(f))
        record["setup_mark"] = time.monotonic()
        _write(record_path, record)
        return 0

    if tracer is not None:
        tracer.install()

    def mark_setup(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record["setup_mark"] = time.monotonic()
            return result
        return wrapper

    def capture_class_group(fn):
        def wrapper(field, places, *args, **kwargs):
            data = fn(field, places, *args, **kwargs)
            record["class_groups"].append({
                "degree": field.degree, "min_poly": list(field.min_poly),
                "places": list(places.rational_primes),
                "factors": list(data.group.invariant_factors)})
            return data
        return wrapper

    patch("sinvariants", "ingest_backend", mark_setup)
    patch("sinvariants", "class_group", capture_class_group)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    if tracer is not None:
        record["trace"] = tracer.dump()
    _write(record_path, record)
    return rc


def _write(path, record):
    with open(path, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    sys.exit(main())
