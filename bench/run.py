#!/usr/bin/env python3
"""sl2tate benchmark: whole CLI cases, each in a fresh process, as a user
runs them.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 bench/run.py --workload all [--seconds S]

A run is a closed loop with one client: the cases of the workload run one
at a time, each as `python3 bench/case.py ... -- <sl2tate CLI args>` (a thin
wrapper around `sl2tate.cli.main`).  The outputs are deterministic, so the
seed only permutes the order of the cases in each pass.

--trace 0  Passes repeat until the next one would end after S seconds (at
           least two passes); then, while set-up time has fewer than three
           samples, every case is set up once more without running it.
           Reports the end-to-end metrics of BENCHMARK.json: medians over
           passes (set-up time over passes and set-up rounds).
--trace 1  One untraced pass, then one pass with the layer tracer
           (bench/tracer.py) in every case process.  Reports the per-layer
           metrics of BENCHMARK.json; trace.overhead_frac compares the two
           passes.  End-to-end numbers never come from a traced pass.

Every case's output is checked against label-independent invariants
recorded from a reference run (bench/expected.json) and, for imaginary
quadratic fields, against the binary-quadratic-forms class-group oracle.  A
mismatch, a nonzero exit code or a timeout makes the case failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CASE_PY = os.path.join(BENCH, "case.py")

RUN_BUDGET_S = 170.0   # a run must exit within 180 s
CASE_TIMEOUT_S = 150.0
MIN_PASSES = 2
SETUP_SAMPLES = 3

FIX = "src/sl2tate/fixtures"
Q23 = ",".join(["1"] * 23)
CASES = {
    "sqrt-5": ["analyze", "--field=5,0,1", "--ell", "3"],
    "sqrt-2_S2": ["analyze", "--field=2,0,1", "--ell", "3", "--places", "2"],
    "i_S2,3": ["analyze", "--field=1,0,1", "--ell", "3", "--places", "2,3"],
    "q23": ["analyze", "--field", Q23, "--places", "23", "--ell", "23",
            "--fixtures", f"{FIX}/q23.json"],
    "q23_hilbert": ["restrict", "--scenario", f"{FIX}/q23_hilbert.json",
                    "--fixtures", f"{FIX}/q23.json"],
    "forms400": ["oracle-check", "--forms-bound", "400"],
    # harness self-test only (bench/selftest.py)
    "rational_ell3": ["analyze", "--field", "0,1", "--ell", "3"],
    "rational_ell5": ["analyze", "--field", "0,1", "--ell", "5"],
    "forms50_fault": ["oracle-check", "--forms-bound", "50", "--inject-fault"],
}
# the workloads of BENCHMARK.json: a pass takes 12-28 s and a run makes at
# least two, so a run averages over more of the machine's drift than a
# single case does
WORKLOADS = {
    "class_groups": ["sqrt-5", "forms400"],
    "s_units_q23": ["sqrt-2_S2", "i_S2,3", "q23", "q23_hilbert"],
}
# their single-concern parts, for per-layer diagnosis, and the harness
# self-test (bench/selftest.py)
EXTRA_WORKLOADS = {
    "quartic_ell3": ["sqrt-5"],
    "forms_oracle": ["forms400"],
    "s_units_ell3": ["sqrt-2_S2", "i_S2,3"],
    "q23_fixture": ["q23", "q23_hilbert"],
    "smoke": ["rational_ell3", "rational_ell5"],
    "fault": ["forms50_fault"],
}


class Case:
    """Outcome of one case process."""

    def __init__(self, case_id):
        self.case_id = case_id
        self.start = self.end = 0.0
        self.wall_s = 0.0
        self.setup_s = None
        self.rss_mb = 0.0
        self.cpu_s = 0.0
        self.problems = []
        self.report = None
        self.record = None

    @property
    def failed(self):
        return bool(self.problems)


# ---------------------------------------------------------------------------
# running one case


def _env():
    return {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}


def run_case(case_id, trace, mode, deadline, work) -> Case:
    """Spawn the case runner, wait for it with wait4 (wall time, peak RSS,
    CPU), kill it at its timeout, then read its report and record."""
    case = Case(case_id)
    stem = os.path.join(work, f"{case_id}-{mode}-{trace}")
    out_path, err_path, rec_path = stem + ".out", stem + ".err", stem + ".rec"
    if os.path.exists(rec_path):
        os.remove(rec_path)
    argv = [sys.executable, CASE_PY, rec_path, str(trace), mode, "--",
            *CASES[case_id]]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    timeout = min(CASE_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        case.problems.append("not started: run time budget used up")
        return case
    timed_out = []

    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, _env(), file_actions=actions)

    def on_alarm(signum, frame):
        timed_out.append(True)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited just as the timer fired
            pass

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    end = time.monotonic()

    case.start, case.end, case.wall_s = start, end, end - start
    case.rss_mb = usage.ru_maxrss / 1024.0
    case.cpu_s = usage.ru_utime + usage.ru_stime
    code = os.waitstatus_to_exitcode(status)
    if timed_out:
        case.problems.append(f"timed out after {timeout:.0f} s")
        return case
    if code != 0:
        case.problems.append(f"exit code {code}")
    try:
        with open(rec_path) as f:
            case.record = json.load(f)
    except (OSError, ValueError):
        case.problems.append("case runner wrote no record")
        return case
    case.setup_s = case.record["setup_mark"] - start
    if mode == "run":
        try:
            with open(out_path) as f:
                case.report = json.load(f)
        except ValueError:
            case.problems.append("output is not a JSON report")
    return case


# ---------------------------------------------------------------------------
# correctness


_ORACLE = {}


def _forms_oracle(min_poly):
    """Invariant factors of Cl(K) from reduced binary quadratic forms, for
    K = Q[x]/(x^2 + b x + c) imaginary quadratic."""
    key = tuple(min_poly)
    if key not in _ORACLE:
        sys.path.insert(0, SRC)
        from sl2tate.polytools import fundamental_discriminant
        from sl2tate.sinvariants import forms_class_group_oracle

        c, b, _ = min_poly
        d0, _ = fundamental_discriminant(b * b - 4 * c)
        _ORACLE[key] = list(forms_class_group_oracle(d0).invariant_factors)
    return _ORACLE[key]


def check_case(case: Case, expected: dict) -> None:
    """Compare label-independent invariants; appends to case.problems."""
    exp = expected[case.case_id]
    rep = case.report
    problems = case.problems
    if rep is None:
        if not problems:
            problems.append("no report")
        return

    def same(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    kind = exp["kind"]
    if kind == "oracle":
        same("all_pass", rep.get("all_pass"), True)
        same("oracle rows", len(rep.get("oracle_checks", [])), exp["rows"])
        return
    if kind == "restrict":
        same("degree", rep["restriction"]["degree"], exp["degree"])
        same("conditional", rep["restriction"]["conditional"], exp["conditional"])
        same("merge_size", rep["transfer_obstruction"]["merge_size"], exp["merge_size"])
        return

    same("setup case", rep["setup"]["case"], exp["setup_case"])
    if exp["setup_case"] == "NoTorsion":
        same("quillen rank", rep["quillen"]["rank_over_c2"], 0)
        same("nonzero dims", [v for v in rep["cohomology"]["total"]["table"].values() if v], [])
        return
    cls, nm = rep["classes"], rep["norm_maps"]
    ocg = cls["oriented_class_group"]["order"]
    same("oriented class group order", ocg, exp["ocg_order"])
    same("|coker Nm1| * |ker Nm0|",
         math.prod(nm["coker_nm1"]["invariant_factors"]) * math.prod(nm["ker_nm0"]["invariant_factors"]),
         ocg)
    same("element classes", cls["element_class_count"], exp["element_classes"])
    same("subgroup classes", cls["subgroup_class_count"], exp["subgroup_classes"])
    same("cohomology dims", rep["cohomology"]["total"]["dims"], exp["dims"])
    same("quillen rank", rep["quillen"]["rank_over_c2"], exp["rank_over_c2"])
    same("quillen r", rep["quillen"]["r"], exp["r"])
    same("detection verdict", rep["detection"]["verdict"], exp["verdict"])

    groups = case.record["class_groups"]
    deg_k = len(rep["request"]["field"]) - 1
    checked_k = False
    for g in groups:
        if g["degree"] == 2 == deg_k and not g["places"]:
            c, b, _ = g["min_poly"]
            if b * b - 4 * c < 0:
                same(f"Cl(K) vs forms oracle for {g['min_poly']}", g["factors"],
                     _forms_oracle(g["min_poly"]))
                checked_k = True
        if g["degree"] == 2 * deg_k:
            key = ",".join(map(str, g["places"]))
            if key in exp["cl_L"]:
                same(f"Cl(L) with places [{key}]", g["factors"], exp["cl_L"][key])
    if exp["forms_checked_k"] and not checked_k:
        problems.append("Cl(K) was not computed, so not checked against the forms oracle")
    if exp["cl_L"] and not any(g["degree"] == 2 * deg_k for g in groups):
        problems.append("Cl(L) was not computed")


# ---------------------------------------------------------------------------
# passes and metrics


def run_pass(order, trace, deadline, work, expected):
    start = time.monotonic()
    cases = [run_case(cid, trace, "run", deadline, work) for cid in order]
    wall = time.monotonic() - start
    for case in cases:
        check_case(case, expected)
    return wall, cases


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def untraced_run(cases, rng, seconds, deadline, work, expected):
    samples = {"wall_s": [], "slowest_case_s": [], "setup_s": [],
               "peak_rss_mb": [], "failed_frac": []}
    attempted = failed = 0
    failures = []
    run_start = time.monotonic()
    while True:
        order = rng.sample(cases, len(cases))
        wall, results = run_pass(order, 0, deadline, work, expected)
        n_failed = sum(c.failed for c in results)
        attempted += len(results)
        failed += n_failed
        failures += [(c.case_id, c.problems) for c in results if c.failed]
        samples["wall_s"].append(wall)
        samples["slowest_case_s"].append(max(c.wall_s for c in results))
        samples["peak_rss_mb"].append(max(c.rss_mb for c in results))
        samples["failed_frac"].append(n_failed / len(results))
        samples["setup_s"].append(sum(c.setup_s or 0.0 for c in results))
        now = time.monotonic()
        if now + wall > deadline or (len(samples["wall_s"]) >= MIN_PASSES
                                     and now - run_start + wall > seconds):
            break
    # set-up-only rounds until set-up time has SETUP_SAMPLES samples, for
    # workloads whose passes are too long to repeat within the run
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        probe = [run_case(cid, 0, "setup", deadline, work)
                 for cid in rng.sample(cases, len(cases))]
        if any(c.failed for c in probe):
            break
        samples["setup_s"].append(sum(c.setup_s for c in probe))
    return samples, attempted, failed, failures


def end_to_end_metrics(samples):
    return {
        "wall_s": statistics.median(samples["wall_s"]),
        "slowest_case_s": statistics.median(samples["slowest_case_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": max(samples["peak_rss_mb"]),
        "ok_frac": 1.0 - statistics.mean(samples["failed_frac"]),
    }


LAYER_NAMES = (
    "intlinalg.snf_with_transforms", "intlinalg.snf", "intlinalg.hnf",
    "intlinalg.rank", "intlinalg.cokernel", "intlinalg.solve_integer",
    "numberfield.make_field", "numberfield.NFElement.mul",
    "ideals.FractionalIdeal.contains", "ideals.FractionalIdeal.valuation",
    "ideals.FractionalIdeal.mul", "ideals.factor_rational_prime",
    "ideals.principal_generator", "ideals.find_root",
    "sinvariants.class_group", "sinvariants.unit_group",
    "sinvariants.ingest_backend", "sinvariants.forms_class_group_oracle",
    "relative.build_setup", "relative.relative_unit_group", "relative.norm_maps",
    "relative.oriented_class_group", "relative.galois_involution",
    "classify.subgroup_classes", "classify.representative_matrix",
    "cohomology.component_ring", "cohomology.total_dimensions", "cohomology.oracles",
    "applications.restriction_scenario", "applications.quillen_report",
    "applications.detection_report", "applications.colimit_case",
)


def layer_metrics(untraced, traced, untraced_wall, traced_wall):
    """Sum the per-case traces of one traced pass into the per-layer metrics."""
    calls, self_s, total_s, in_cg, counters = {}, {}, {}, {}, {}
    for case in traced:
        tr = case.record["trace"]
        for table, key in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s"),
                           (in_cg, "self_s_in_class_group")):
            for name, v in tr[key].items():
                table[name] = table.get(name, 0) + v
        for name, v in tr["counters"].items():
            if name.endswith(".max_cells"):
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
    m = {}
    for name in LAYER_NAMES:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("intlinalg.snf_with_transforms.max_cells",
                 "numberfield.make_field.repeat_calls",
                 "numberfield.norm_of_int_coords.calls",
                 "ideals.principal_generator.exhausted",
                 "ideals.search_elements.yielded",
                 "sinvariants.class_group.repeat_calls",
                 "sinvariants.class_group.relations",
                 "classify.representative_matrix.exhausted"):
        m[name] = counters.get(name, 0)
    found = counters.get("ideals.principal_generator.found", 0)
    m["ideals.search_elements.yielded_per_found"] = (
        m["ideals.search_elements.yielded"] / found if found else 0.0)
    norm_calls = counters.get("sinvariants.class_group.norm_calls", 0)
    m["sinvariants.relation_yield"] = (
        m["sinvariants.class_group.relations"] / norm_calls if norm_calls else 0.0)
    # share of class_group's inclusive time spent in intlinalg and ideals
    cg_total = total_s.get("sinvariants.class_group", 0.0)
    m["sinvariants.class_group.total_s"] = cg_total
    m["sinvariants.class_group.layer_share"] = (
        sum(v for k, v in in_cg.items() if k.startswith(("intlinalg.", "ideals.")))
        / cg_total if cg_total else 0.0)
    m["cli.import_s"] = sum(c.record["import_s"] for c in traced)
    m["process.cpu_s"] = sum(c.cpu_s for c in untraced)
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def check_self_times(case: Case) -> None:
    """The self times of a traced case must add up to the case's wall time
    within 10 %.  They are the layer spans, the root span (the case runner's
    first statement to the end of its trace, less its child spans), and the
    interpreter start-up before it and shutdown after it."""
    tr = case.record["trace"]
    startup = tr["root"]["start"] - case.start
    shutdown = case.end - tr["root"]["end"]
    covered = startup + sum(tr["self_s"].values()) + tr["root"]["self_s"] + shutdown
    if abs(covered - case.wall_s) > 0.10 * case.wall_s:
        case.problems.append(
            f"traced self times sum to {covered:.3f} s, case wall time is {case.wall_s:.3f} s")


def traced_run(cases, rng, deadline, work, expected):
    order = rng.sample(cases, len(cases))
    untraced_wall, untraced = run_pass(order, 0, deadline, work, expected)
    traced_wall, traced = run_pass(order, 1, deadline, work, expected)
    for case in traced:
        if case.record is not None and "trace" in case.record:
            check_self_times(case)
        elif not case.failed:
            case.problems.append("no trace recorded")
    results = untraced + traced
    failures = [(c.case_id, c.problems) for c in results if c.failed]
    with_trace = [c for c in traced if c.record is not None and "trace" in c.record]
    metrics = layer_metrics(untraced, with_trace, untraced_wall, traced_wall)
    spans = {c.case_id: c.record["trace"] for c in with_trace}
    return metrics, len(results), len(failures), failures, spans


# ---------------------------------------------------------------------------
# output


def print_stats(workload, seed, samples, attempted, failed, units):
    print(f"workload {workload}  seed {seed}  passes {len(samples['wall_s'])}  "
          f"attempted {attempted}  failed {failed}")
    print(f"  {'metric':<16}{'unit':<7}{'median':>11}{'q1':>11}{'q3':>11}{'n':>4}")
    for name in ("wall_s", "slowest_case_s", "setup_s", "peak_rss_mb", "failed_frac"):
        vals = samples[name]
        q1, med, q3 = quartiles(vals)
        print(f"  {name:<16}{units.get(name, 'ratio'):<7}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}{len(vals):>4}")


def precompile():
    """Byte-compile the package once, so that every case imports from warm
    bytecode, as an installed package does."""
    import compileall

    compileall.compile_dir(os.path.join(SRC, "sl2tate"), quiet=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sl2tate", "cli.py")):
        sys.stderr.write(f"sl2tate sources not found under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {**WORKLOADS, **EXTRA_WORKLOADS}
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in workloads:
        names = [args.workload]
    else:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads)} or all\n")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    with open(os.path.join(BENCH, "expected.json")) as f:
        expected = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    precompile()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        for name in names:
            deadline = time.monotonic() + RUN_BUDGET_S
            rng = random.Random(args.seed)
            if args.trace:
                metrics, attempted, failed, failures, spans = traced_run(
                    workloads[name], rng, deadline, work, expected)
                trace_path = os.path.join(OUT, f"trace-{name}-seed{args.seed}.json")
                with open(trace_path, "w") as f:
                    json.dump(spans, f)
                print(f"workload {name}  seed {args.seed}  traced  attempted {attempted}  "
                      f"failed {failed}  spans in {os.path.relpath(trace_path, ROOT)}")
                wanted = [m["name"] for m in spec["per_layer"]]
            else:
                samples, attempted, failed, failures = untraced_run(
                    workloads[name], rng, seconds, deadline, work, expected)
                print_stats(name, args.seed, samples, attempted, failed, units)
                metrics = end_to_end_metrics(samples)
                wanted = [m["name"] for m in spec["end_to_end"]]
            for case_id, problems in failures:
                print(f"  FAILED {case_id}: {'; '.join(problems)}")
    if args.workload != "all":
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                      for k in wanted}}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
