"""Command-line interface: full analysis reports, restriction reports, and
the oracle equivalence suites, all emitted as deterministic JSON."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .applications import (
    colimit_case,
    detection_report,
    quillen_report,
    restriction_map,
    restriction_scenario,
    transfer_obstruction,
    vcd,
)
from .classify import (
    class_pipeline,
    dihedral_overgroup_count,
    element_class_count,
    representative_matrix,
)
from .cohomology import (
    component_ring,
    oracle_cyclic,
    oracle_dihedral_invariants,
    oracle_product,
    total_dimensions,
)
from .errors import (
    ConsistencyFailure,
    InvalidInput,
    NeedsBackendData,
    RegularityViolated,
    SchemaViolation,
    SearchExhausted,
)
from .numberfield import make_field, quadratic_field
from .polytools import squarefree_decompose
from .relative import build_setup, inert_place_count
from .sinvariants import (
    BackendStore,
    PlaceSet,
    class_group,
    forms_class_group_oracle,
    ingest_backend,
)

REPORT_SCHEMA = "sl2tate-report-1"

EXIT_OK = 0
EXIT_REGULARITY = 2
EXIT_BACKEND = 3
EXIT_SEARCH = 4
EXIT_SCHEMA = 5
EXIT_INPUT = 6
EXIT_CONSISTENCY = 7


def _coords(el) -> list:
    return [str(c) for c in el.coords]


def _read_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:
            raise InvalidInput(f"{path}: {exc}") from None


def _load_fixtures(paths):
    store = BackendStore()
    for path in paths or ():
        ingest_backend(store, _read_json(path))
    return store


# option value parsers: argparse turns their ValueError/TypeError into a
# usage error, which main() reports as invalid input


def int_list(text):
    return [int(x) for x in text.split(",")] if text.strip() else []


def fraction_list(text):
    return [Fraction(x) for x in text.split(",")]


def degree_window(text):
    lo, hi = (int(x) for x in text.split(":"))
    if lo > hi:
        raise ValueError("empty window")
    return lo, hi


def basis_rows(text):
    return [[Fraction(x) for x in row] for row in json.loads(text)]


def _emit(report, args) -> None:
    out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    store = _load_fixtures(args.fixtures)
    field = make_field(args.field, basis=args.basis)
    places = PlaceSet.make(field, args.places)
    lo, hi = args.degrees
    setup = build_setup(field, places, args.ell)
    report = {
        "schema": REPORT_SCHEMA,
        "request": {"field": field.min_poly, "label": field.label,
                    "places": list(places.rational_primes), "ell": args.ell,
                    "degrees": [lo, hi]},
        "setup": {"case": setup.case, "regularity": setup.regularity,
                  "vcd": vcd(field, places),
                  "t": _coords(setup.t) if setup.t is not None else None,
                  "notes": list(setup.notes)},
        "colimit": {"case": colimit_case(setup).case,
                    "provenance": "computed"},
    }
    if setup.case == "NoTorsion":
        report["cohomology"] = {
            "total": {"table": {str(d): 0 for d in range(lo, hi + 1)},
                      "provenance": "computed"}}
        report["quillen"] = {"rank_over_c2": 0, "provenance": "computed"}
        _emit(report, args)
        return EXIT_OK
    res = class_pipeline(setup, store=store)
    nm, ocg, classes = res.norms, res.ocg, res.classes
    report["norm_maps"] = {
        "ker_nm1": {"free_rank": nm.ker_nm1.free_rank,
                    "torsion": list(nm.ker_nm1.torsion.invariant_factors)},
        "coker_nm1": {"invariant_factors":
                      list(nm.coker_nm1_group.invariant_factors)},
        "ker_nm0": {"invariant_factors":
                    list(nm.ker_nm0.invariant_factors)},
        "inert_place_count": inert_place_count(setup),
        "coker_2_rank": len(nm.coker_nm1_group.invariant_factors),
        "provenance": nm.provenance,
    }
    cls_entries = []
    for cls in classes:
        entry = cls.describe()
        entry["dihedral_overgroups"] = dihedral_overgroup_count(cls, nm)
        entry["ring"] = component_ring(cls.normalizer, args.ell).describe()
        try:
            m = representative_matrix(ocg.element(cls.orbit[0]), setup)
            entry["matrix"] = [[_coords(x) for x in row] for row in m.rows]
        except SearchExhausted as exc:
            entry["matrix"] = None
            entry["matrix_note"] = str(exc)
        cls_entries.append(entry)
    dims = total_dimensions(classes, args.ell)
    report["classes"] = {
        "element_class_count": element_class_count(classes),
        "subgroup_class_count": len(classes),
        "oriented_class_group": {
            "order": ocg.order,
            "carrier": list(ocg.carrier.invariant_factors),
        },
        "involution": {str(list(a)): list(b)
                       for a, b in res.involution.items()},
        "subgroup_classes": cls_entries,
        "provenance": "computed",
    }
    report["cohomology"] = {
        "total": {"period": dims.period, "dims": list(dims.dims),
                  "table": {str(d): v for d, v in dims.table(lo, hi).items()},
                  "provenance": "computed"}}
    report["quillen"] = quillen_report(classes, nm, args.ell).describe()
    report["quillen"]["provenance"] = "computed"
    report["detection"] = detection_report(setup, classes).describe()
    report["detection"]["provenance"] = "computed"
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# restrict


def cmd_restrict(args) -> int:
    store = _load_fixtures(args.fixtures)
    if args.scenario:
        scenario = _read_json(args.scenario)
        if scenario.get("kind") != "restriction-scenario":
            raise SchemaViolation("scenario file must have kind "
                                  "restriction-scenario")
        rep = restriction_scenario(scenario, store=store)
        ell = scenario["source"]["ell"]
    else:
        if None in (args.field, args.ell, args.target_field):
            raise InvalidInput("restrict needs --scenario, or --field, --ell "
                               "and --target-field")
        field_k = make_field(args.field)
        setup_k = build_setup(field_k, PlaceSet.make(field_k, args.places),
                              args.ell)
        field_l = make_field(args.target_field)
        places_l = PlaceSet.make(field_l, args.target_places)
        image = field_l.element(args.embedding or [0] * field_l.degree)
        rep = restriction_map(setup_k, field_l, places_l, image, store=store)
        ell = args.ell
    report = {
        "schema": REPORT_SCHEMA,
        "restriction": rep.describe(),
        "transfer_obstruction": transfer_obstruction(rep, ell),
        "provenance": "ingested" if rep.conditional else "computed",
    }
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-check


def cmd_oracle_check(args) -> int:
    from .classify import NormalizerDescriptor
    from .intlinalg import FinGenAbGroup, FiniteAbelianGroup

    rows = []
    ok = True

    def check(name, lhs, rhs):
        nonlocal ok
        passed = lhs == rhs
        ok = ok and passed
        rows.append({"check": name, "pass": passed,
                     "lhs": lhs, "rhs": rhs})

    fault = args.inject_fault
    for ell in (3, 5):
        for n in (3, 5, 6, 15):
            for r in range(5):
                ab = component_ring(NormalizerDescriptor(
                    "Abelian", FinGenAbGroup(r, FiniteAbelianGroup((n,)))), ell)
                mism = 0
                for d in range(-12, 13):
                    want = oracle_product(n, r, ell, d)
                    got = ab.dim(d)
                    if fault and (ell, n, r, d) == (3, 6, 0, 0):
                        got += 1
                    if got != want:
                        mism += 1
                check(f"abelian ell={ell} n={n} r={r}", mism, 0)
    for r in range(5):
        di = component_ring(NormalizerDescriptor(
            "Dihedral", FinGenAbGroup(r, FiniteAbelianGroup((6,)))), 3)
        mism = sum(1 for d in range(-12, 13)
                   if di.dim(d) != oracle_dihedral_invariants(r, 3, d))
        check(f"dihedral r={r}", mism, 0)
        check(f"period4 dihedral r={r}",
              sum(di.dim(d) for d in range(4)), 2 ** (r + 1))
    check("dihedral r=0 closed form",
          tuple(component_ring(NormalizerDescriptor(
              "Dihedral", FinGenAbGroup(0, FiniteAbelianGroup((6,)))),
              3).dims_over_period()),
          (1, 0, 0, 1))
    check("cyclic oracle coprime", oracle_cyclic(4, 3, 7), 0)

    # forms oracle sweep: built-in class groups vs reduced-forms counts
    # each squarefree m < 0 has its own discriminant, m or 4m
    for m in range(-1, -args.forms_bound - 1, -1):
        disc = m if m % 4 == 1 else 4 * m
        if -disc > args.forms_bound or squarefree_decompose(m)[1] != 1:
            continue
        k = quadratic_field(m)
        cl = class_group(k, PlaceSet.make(k))
        check(f"forms disc={disc}",
              list(cl.group.invariant_factors),
              list(forms_class_group_oracle(disc).invariant_factors))

    report = {"schema": REPORT_SCHEMA, "oracle_checks": rows,
              "all_pass": ok}
    _emit(report, args)
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors become InvalidInput rather than argparse's exit code 2,
    which is EXIT_REGULARITY here."""

    def error(self, message):
        raise InvalidInput(message)


def _build_parser():
    p = _Parser(
        prog="sl2tate",
        description="Farrell-Tate cohomology of SL_2 over S-integers with "
                    "F_ell coefficients")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full pipeline report for one setup")
    a.add_argument("--field", type=int_list, required=True,
                   help="minimal polynomial, comma-separated, constant first")
    a.add_argument("--basis", type=basis_rows,
                   help="integral basis rows as JSON, optional")
    a.add_argument("--places", type=int_list, default=[],
                   help="rational primes to invert, comma-separated")
    a.add_argument("--ell", type=int, required=True)
    a.add_argument("--fixtures", nargs="*", help="fixture JSON paths")
    a.add_argument("--degrees", type=degree_window, default="-8:8",
                   help="degree window lo:hi")
    a.add_argument("--out", help="output path (default stdout)")
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("restrict", help="restriction along a field extension")
    r.add_argument("--scenario", help="restriction-scenario fixture path")
    r.add_argument("--field", type=int_list, help="source minimal polynomial")
    r.add_argument("--places", type=int_list, default=[])
    r.add_argument("--ell", type=int)
    r.add_argument("--target-field", type=int_list)
    r.add_argument("--target-places", type=int_list, default=[])
    r.add_argument("--embedding", type=fraction_list,
                   help="image of the source generator, comma-separated coords")
    r.add_argument("--fixtures", nargs="*")
    r.add_argument("--out")
    r.set_defaults(func=cmd_restrict)

    o = sub.add_parser("oracle-check", help="run the oracle equivalence suites")
    o.add_argument("--forms-bound", type=int, default=200,
                   help="max |discriminant| for the forms sweep")
    o.add_argument("--inject-fault", action="store_true",
                   help="perturb one grid value to exercise failure reporting")
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle_check)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidInput, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INPUT
    except RegularityViolated as exc:
        sys.stderr.write(f"regularity violated: {exc} "
                         f"(witness: {exc.witness})\n")
        return EXIT_REGULARITY
    except NeedsBackendData as exc:
        sys.stderr.write(f"missing backend data: {exc}\n")
        return EXIT_BACKEND
    except SearchExhausted as exc:
        sys.stderr.write(f"search exhausted: {exc}\n")
        return EXIT_SEARCH
    except SchemaViolation as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return EXIT_SCHEMA
    except ConsistencyFailure as exc:
        sys.stderr.write(f"consistency check failed: {exc}\n")
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
