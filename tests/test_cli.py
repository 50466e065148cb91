import json
import os
import subprocess
import sys
import time

import pytest

from sl2tate import ideals, relative, sinvariants
from sl2tate.classify import class_pipeline
from sl2tate.cli import (EXIT_BACKEND, EXIT_CONSISTENCY, EXIT_INPUT, EXIT_SCHEMA,
                         EXIT_UNSUPPORTED, int_list, main)
from sl2tate.intlinalg import FiniteAbelianGroup, FinGenAbGroup
from sl2tate.numberfield import make_field
from sl2tate.relative import build_setup
from sl2tate.sinvariants import PlaceSet, class_group

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
FIXTURES = os.path.join(SRC, "sl2tate", "fixtures")


def _run_json(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


def test_analyze_rational_ell3(tmp_path):
    code, rep, out = _run_json(tmp_path, [
        "analyze", "--field", "0,1", "--ell", "3"])
    assert code == 0
    assert rep["setup"] == {"case": "Field", "regularity": "R1", "vcd": 1,
                            "t": ["-1"],
                            "notes": rep["setup"]["notes"]}
    assert rep["classes"]["element_class_count"] == 2
    assert rep["classes"]["subgroup_class_count"] == 1
    assert all(v == 1 for v in rep["cohomology"]["total"]["table"].values())
    assert len(rep["cohomology"]["total"]["table"]) == 17
    assert rep["quillen"]["rank_over_c2"] == 4
    # round trip is byte-identical
    first = out.read_text()
    main(["analyze", "--field", "0,1", "--ell", "3", "--out", str(out)])
    assert out.read_text() == first


def test_analyze_no_torsion(tmp_path):
    code, rep, _ = _run_json(tmp_path, [
        "analyze", "--field", "0,1", "--ell", "5"])
    assert code == 0
    assert rep["setup"]["case"] == "NoTorsion"
    assert all(v == 0 for v in rep["cohomology"]["total"]["table"].values())
    assert rep["quillen"]["rank_over_c2"] == 0


def test_analyze_regularity_violation_exit_code(tmp_path):
    code = main(["analyze", "--field=-3,0,1", "--ell", "3",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_analyze_missing_backend_exit_code(tmp_path):
    # degree-22 field without fixtures
    poly = ",".join(["1"] * 23)
    code = main(["analyze", "--field", poly, "--places", "23", "--ell", "23",
                 "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_a_compositum_without_a_class_group_fixture_is_never_built(tmp_path, monkeypatch):
    # Q(zeta_23)(zeta_3) has degree 44, beyond the built-in class groups, and
    # q23.json holds only that of Q(zeta_23): both commands exit 3 before
    # composite_field runs (building it took minutes)
    monkeypatch.setattr(relative, "composite_field", None)
    with open(os.path.join(FIXTURES, "q23_hilbert.json")) as f:
        scenario = json.load(f)
    scenario["source"]["ell"] = 3
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    q23 = ["--fixtures", os.path.join(FIXTURES, "q23.json"), "--out", str(tmp_path / "r.json")]
    for argv in (["analyze", "--field", ",".join(["1"] * 23), "--places", "23", "--ell", "3"],
                 ["restrict", "--scenario", str(tmp_path / "scenario.json")]):
        start = time.perf_counter()
        assert main(argv + q23) == EXIT_BACKEND
        assert time.perf_counter() - start < 10


def test_analyze_q23_with_fixture(tmp_path):
    code, rep, _ = _run_json(tmp_path, [
        "analyze", "--field", ",".join(["1"] * 23), "--places", "23",
        "--ell", "23", "--fixtures", os.path.join(FIXTURES, "q23.json")])
    assert code == 0
    assert rep["setup"]["case"] == "Split"
    assert rep["classes"]["subgroup_class_count"] == 2
    assert rep["quillen"]["rank_over_c2"] == 12288
    assert rep["detection"]["verdict"] == "NotInjective"
    assert rep["norm_maps"]["provenance"]["unit_K"] == "ingested:literature"


def test_restrict_scenario(tmp_path):
    code, rep, _ = _run_json(tmp_path, [
        "restrict", "--scenario", os.path.join(FIXTURES, "q23_hilbert.json"),
        "--fixtures", os.path.join(FIXTURES, "q23.json")])
    assert code == 0
    assert rep["restriction"]["degree"] == 3
    assert rep["restriction"]["conditional"]
    assert rep["transfer_obstruction"]["merge_size"] == 3


def test_restrict_identity(tmp_path):
    code, rep, _ = _run_json(tmp_path, [
        "restrict", "--field", "0,1", "--ell", "3",
        "--target-field", "0,1", "--embedding", "0"])
    assert code == 0
    assert rep["restriction"]["merges"] == []
    assert rep["transfer_obstruction"] is None


def test_oracle_check_small(tmp_path):
    code, rep, _ = _run_json(tmp_path, [
        "oracle-check", "--forms-bound", "30"])
    assert code == 0
    assert rep["all_pass"]
    assert any(r["check"].startswith("forms") for r in rep["oracle_checks"])


def test_oracle_check_injected_fault(tmp_path):
    code, rep, _ = _run_json(tmp_path, [
        "oracle-check", "--forms-bound", "4", "--inject-fault"])
    assert code == 1
    assert not rep["all_pass"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--field=-1,0,1", "--ell", "3"],           # reducible
    ["analyze", "--field", "0,1", "--ell", "4"],           # ell not prime
    ["analyze", "--field", "0,1", "--ell", "3", "--places", "4"],
    ["analyze", "--field=2,0,1", "--ell", "3", "--basis", "[[1, 0"],
    # (1, theta/2) on x^2 + 1 is not closed: (theta/2)^2 = -1/4
    ["analyze", "--field=1,0,1", "--ell", "3", "--basis", '[[1, 0], [0, "1/2"]]'],
    ["analyze", "--field", "x", "--ell", "3"],
    ["analyze", "--field", "0,1", "--ell", "3", "--degrees", "4:-4"],
    ["analyze", "--field", "0,1"],                         # usage error
    ["oracle-check", "--forms-bound", "-3"],               # would sweep nothing
    ["restrict", "--field", "0,1"],
    # the image 1 of x does not satisfy x = 0
    ["restrict", "--field", "0,1", "--ell", "3", "--target-field", "0,1",
     "--embedding", "1"],
])
def test_bad_input_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert not out.exists()


def test_consistency_failure_exit_code(tmp_path, capsys):
    # a closed basis of a non-maximal order: Z[2 sqrt(-2)]
    out = tmp_path / "r.json"
    assert main(["analyze", "--field=2,0,1", "--ell", "3",
                 "--basis", "[[1,0],[0,2]]", "--out", str(out)]) == EXIT_CONSISTENCY
    # a fixture whose unit rank contradicts Dirichlet's formula (Q(i): rank 0)
    fixture = tmp_path / "bad.json"
    fixture.write_text(json.dumps({
        "schema": "sl2tate-fixture-1", "kind": "s-invariants", "trust": "test",
        "field": {"min_poly": [1, 0, 1]}, "places": [],
        "unit_group": {"rank": 1, "torsion_order": 4}}))
    assert main(["analyze", "--field=1,0,1", "--ell", "3", "--fixtures",
                 str(fixture), "--out", str(out)]) == EXIT_CONSISTENCY
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("consistency check failed: ") for line in err)


@pytest.mark.parametrize("h, reason", [
    (3, "index 2, not a multiple of the class number 3"),
    (1, "stabilized at index 2, but the class number is 1"),
])
def test_a_wrong_class_number_certificate_exits_consistency(tmp_path, capsys, monkeypatch,
                                                           h, reason):
    # h(Q(sqrt -5)) = 2: a certificate of 3 fails at the first full-rank HNF,
    # one of 1 when the stability rule fires at box 6
    from sl2tate import sinvariants

    monkeypatch.setattr(sinvariants, "certified_class_number",
                        lambda field: h if field.discriminant == -20 else None)
    # main builds its own field objects, so no earlier relation search is reused
    out = tmp_path / "r.json"
    code = main(["analyze", "--field=5,0,1", "--ell", "3", "--out", str(out)])
    assert code == EXIT_CONSISTENCY
    err = capsys.readouterr().err
    assert err.startswith("consistency check failed: the relations of ") and reason in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_lost_ker_nm0_fails_the_exactness_check(tmp_path, capsys, monkeypatch):
    # Q(sqrt 13) at ell = 3 has ker Nm0 = Cl(L) = Z/2 and Cl(K) = 1; a
    # kernel routine that loses it must end in exit 7, not in a report
    trivial = (FinGenAbGroup(0, FiniteAbelianGroup(())), ())
    monkeypatch.setattr(relative, "presented_hom_kernel", lambda *args: trivial)
    out = tmp_path / "r.json"
    assert main(["analyze", "--field=-13,0,1", "--ell", "3",
                 "--out", str(out)]) == EXIT_CONSISTENCY
    assert capsys.readouterr().err.startswith("consistency check failed: |ker Nm0|")
    assert not out.exists()


def test_unsupported_case_exit_code(tmp_path, capsys):
    # ell = 3 divides disc(Q(sqrt(-15))) = -15: no integral basis of
    # K(zeta_3) is built for that case
    out = tmp_path / "r.json"
    assert main(["analyze", "--field=15,0,1", "--ell", "3", "--places", "3",
                 "--out", str(out)]) == EXIT_UNSUPPORTED
    err = capsys.readouterr().err
    assert err.startswith("unsupported case: ell = 3 divides disc(K)")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field", ["15,0,1", "6,0,1", "-6,0,1", "-33,0,1"])
def test_ell_dividing_disc_k_exits_unsupported_without_a_hang(field):
    # the product basis of K and Q(zeta_3) is a proper suborder of O_L here,
    # on which the prime factorization of 3 used to loop forever
    proc = subprocess.run(
        [sys.executable, "-m", "sl2tate.cli", "analyze", f"--field={field}",
         "--ell", "3", "--places", "3"],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == EXIT_UNSUPPORTED
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("unsupported case: ell = 3 divides disc(K)")


@pytest.mark.parametrize("field, basis, ell, code, message", [
    # Z[sqrt(-3)]: zeta_3 lies in K, so the case is Split; 2 divides the
    # index, and the primes above 2 of this order do not multiply to (2)
    ("3,0,1", [[1, 0], [0, 1]], 3, EXIT_CONSISTENCY,
     "consistency check failed: product of the P^e must be (p)"),
    # Z[sqrt 2 + sqrt 5]: t = (sqrt 5 - 1)/2 lies in K, so ell = 5 has torsion
    ("9,0,-14,0,1", [[int(i == j) for j in range(4)] for i in range(4)], 5,
     EXIT_UNSUPPORTED, "unsupported case: ell = 5 divides disc(K)"),
], ids=["Z[sqrt-3]", "Z[sqrt2+sqrt5]"])
def test_a_non_maximal_order_keeps_the_torsion_case_of_its_field(tmp_path, capsys, field,
                                                                 basis, ell, code, message):
    # find_root takes no residue map at a prime whose square divides
    # disc(O): a map at 2 or 3, which divide the index here, would prove the
    # root of Psi or of cos_minpoly away (exit 8 as a Field case for the
    # first order, exit 0 as NoTorsion for the second)
    out = tmp_path / "r.json"
    assert main(["analyze", f"--field={field}", "--basis", json.dumps(basis),
                 "--ell", str(ell), "--places", str(ell), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


with open(os.path.join(FIXTURES, "q23_hilbert.json")) as f:
    HILBERT = json.load(f)
SMALL_FIXTURE = {"schema": "sl2tate-fixture-1", "kind": "s-invariants", "trust": "test",
                 "field": {"min_poly": [1, 0, 1]}, "places": [],
                 "unit_group": {"rank": 0, "torsion_order": 4}}
MALFORMED_SCENARIOS = {
    "no_source": _without(HILBERT, "source"),
    "no_target": _without(HILBERT, "target"),
    "no_relative_degree": {**HILBERT, "target": _without(HILBERT["target"], "relative_degree")},
    "array": [HILBERT],
    "fractional_place": {**HILBERT, "source": {**HILBERT["source"], "places": [2.5]}},
    "class_group_array": {**HILBERT, "target": {**HILBERT["target"], "class_group": []}},
    "zero_degree": {**HILBERT, "target": {**HILBERT["target"], "relative_degree": 0}},
    "negative_degree": {**HILBERT, "target": {**HILBERT["target"], "relative_degree": -2}},
    # read like a fixture's: an unknown or missing schema, and a place that
    # PlaceSet rejects, exit 5 (the last one exited 6, the others 0)
    "bogus_schema": {**HILBERT, "schema": "bogus"},
    "no_schema": _without(HILBERT, "schema"),
    "composite_place": {**HILBERT, "source": {**HILBERT["source"], "places": [4]}},
}
MALFORMED_FIXTURES = {
    "text_min_poly": {**SMALL_FIXTURE, "field": {"min_poly": ["a", 0, 1]}},
    "text_rank": {**SMALL_FIXTURE, "unit_group": {"rank": "0", "torsion_order": 4}},
    "fractional_place": {**SMALL_FIXTURE, "places": [2.5]},
    "array": [SMALL_FIXTURE],
    "text_basis": {**SMALL_FIXTURE, "field": {"min_poly": [1, 0, 1], "basis": "x"}},
    "integer_generator_ideal": {**SMALL_FIXTURE, "class_group": {
        "invariant_factors": [], "generator_ideals": [5]}},
    "integer_nm1": {**SMALL_FIXTURE, "norm_images": {"nm1": 3}},
    "object_nm1": {**SMALL_FIXTURE, "norm_images": {"nm1": {"x": 1}}},
    "integer_free_gens": {**SMALL_FIXTURE, "unit_group": {
        "rank": 0, "torsion_order": 4, "free_gens": 5}},
    "integer_free_gen": {**SMALL_FIXTURE, "unit_group": {
        "rank": 0, "torsion_order": 4, "free_gens": [5]}},
    "float_invariant_factor": {**SMALL_FIXTURE, "class_group": {"invariant_factors": [2.0]}},
    "ragged_basis": {**SMALL_FIXTURE, "field": {"min_poly": [1, 0, 1], "basis": [[1, 0], [0]]}},
    "integer_kind": {**SMALL_FIXTURE, "kind": 7},
    "integer_class_group": {**SMALL_FIXTURE, "class_group": 5},
    "composite_place": {**SMALL_FIXTURE, "places": [4]},
}
# torsion generators whose order is a proper divisor of the claimed one
WRONG_TORSION_FIXTURES = {
    "i_of_order_12": {**SMALL_FIXTURE, "unit_group": {
        "rank": 0, "torsion_order": 12, "torsion_gen": [0, 1]}},
    "minus_one_of_order_6": {**SMALL_FIXTURE, "field": {"min_poly": [1, 1, 1]},
                             "unit_group": {"rank": 0, "torsion_order": 6,
                                            "torsion_gen": [-1]}},
    # no root of unity of Q(i) has an order above 2 * 2^2; the prime
    # divisors of this one are never searched for
    "minus_one_of_order_2e30": {**SMALL_FIXTURE, "unit_group": {
        "rank": 0, "torsion_order": 2 * 10**30, "torsion_gen": [-1]}},
}


def _rejected(tmp_path, doc, argv, code=EXIT_SCHEMA, message="schema error: "):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2tate.cli"] + [str(path) if a is None else a for a in argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == code
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_a_schema_error(tmp_path, name):
    # each used to end in a traceback (exit 1, the oracle-mismatch code) or
    # be read as something else; the q23 fixture makes the source reachable
    _rejected(tmp_path, MALFORMED_SCENARIOS[name],
              ["restrict", "--scenario", None,
               "--fixtures", os.path.join(FIXTURES, "q23.json")])


@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURES))
def test_malformed_fixture_is_a_schema_error(tmp_path, name):
    _rejected(tmp_path, MALFORMED_FIXTURES[name],
              ["analyze", "--field=1,0,1", "--ell", "3", "--fixtures", None])


def test_a_float_invariant_factor_is_a_schema_error_before_any_use(tmp_path):
    # Q(sqrt -3) with S = {3}: the class pipeline used to end in a TypeError
    # traceback on the factor 2.0
    fixture = {**_without(SMALL_FIXTURE, "unit_group"), "field": {"min_poly": [3, 0, 1]},
               "places": [3], "class_group": {"invariant_factors": [2.0]}}
    _rejected(tmp_path, fixture, ["analyze", "--field=3,0,1", "--ell", "3", "--places", "3",
                                  "--fixtures", None])


@pytest.mark.parametrize("field, message", [
    ({"min_poly": [-1, 0, 1]}, "[-1, 0, 1] is reducible over Q"),
    ({"min_poly": [1, 0, 1], "basis": [[1, 0], [2, 0]]}, "basis rows are linearly dependent")])
def test_a_fixture_field_that_make_field_rejects_is_invalid_input(tmp_path, field, message):
    # well-formed values whose field does not exist: the exit code of
    # --field, not a schema error
    _rejected(tmp_path, {**SMALL_FIXTURE, "field": field},
              ["analyze", "--field=1,0,1", "--ell", "3", "--fixtures", None],
              EXIT_INPUT, f"invalid input: {message}")


def test_a_second_fixture_for_one_field_and_place_set_is_rejected_before_its_checks(tmp_path):
    # the second one's rank contradicts Dirichlet's (exit 7 on its own)
    first = tmp_path / "first.json"
    first.write_text(json.dumps(SMALL_FIXTURE))
    _rejected(tmp_path, {**SMALL_FIXTURE, "unit_group": {"rank": 3, "torsion_order": 4}},
              ["analyze", "--field=1,0,1", "--ell", "3", "--fixtures", str(first), None],
              message="schema error: data already registered for this field and place set")


@pytest.mark.parametrize("name", sorted(WRONG_TORSION_FIXTURES))
def test_fixture_torsion_generator_of_wrong_order_is_rejected(tmp_path, name):
    # i has order 4 and -1 order 2: x^w = 1 and x^(w/2) = -1 both hold for
    # i with w = 12, and -1 with w = 6
    _rejected(tmp_path, WRONG_TORSION_FIXTURES[name],
              ["analyze", "--field=1,0,1", "--ell", "3", "--fixtures", None],
              EXIT_CONSISTENCY,
              "consistency check failed: claimed torsion generator has wrong order")


def test_unit_group_without_generators_needs_backend_data(tmp_path):
    # Q(i) with an ingested unit group and no elements: Nm1 needs the dlog
    _rejected(tmp_path, SMALL_FIXTURE,
              ["analyze", "--field=1,0,1", "--ell", "3", "--fixtures", None],
              EXIT_BACKEND, "missing backend data: ")


def _fixture_of_l(k_poly, **sections):
    """A fixture for L = K(zeta_3) with S empty, holding the given sections;
    returns it with the set-up that built L."""
    k = make_field(k_poly)
    setup = build_setup(k, PlaceSet.make(k), 3)
    L = setup.rel_field
    return {"schema": "sl2tate-fixture-1", "kind": "s-invariants", "trust": "t",
            "field": {"min_poly": list(L.min_poly),
                      "basis": [_fraction_pairs(row) for row in L.basis]},
            "places": [], **sections}, setup


def _fraction_pairs(coords):
    return [[c.numerator, c.denominator] for c in coords]


def _units_of_l_without_elements(nm1, k_poly=(5, 0, 1), torsion_order=6):
    """A fixture for the units of L = K(zeta_3), whose rank is 1, without
    elements but with asserted Nm1 images; K = Q(sqrt -5) by default."""
    return _fixture_of_l(k_poly, unit_group={"rank": 1, "torsion_order": torsion_order},
                         norm_images={"nm1": nm1})[0]


@pytest.mark.parametrize("k_poly, golden", [((5, 0, 1), "qsqrt-5_ell3"),
                                            ((13, 0, 1), "qsqrt-13_ell3")])
def test_an_ingested_class_group_of_l_reproduces_the_computed_report(tmp_path, k_poly,
                                                                      golden):
    # the computed Cl(L) of Q(sqrt -5)(zeta_3) and Q(sqrt -13)(zeta_3), written
    # with its generator ideals (each by the elements of a Z-basis): the
    # involution takes no discrete log in L, so a fixture without one serves
    fixture, setup = _fixture_of_l(k_poly)
    cl = class_group(setup.rel_field, setup.rel_places)
    fixture["class_group"] = {
        "invariant_factors": list(cl.group.invariant_factors),
        "generator_ideals": [[_fraction_pairs(b.coords) for b in g.basis_elements()]
                             for g in cl.generator_ideals]}
    path = tmp_path / "class_l.json"
    path.write_text(json.dumps(fixture))
    code, rep, _ = _run_json(tmp_path, ["analyze", "--field=" + ",".join(map(str, k_poly)),
                                        "--ell", "3", "--fixtures", str(path)])
    assert code == 0
    with open(os.path.join(HERE, "golden", golden + ".json")) as f:
        computed = json.load(f)
    assert rep["norm_maps"]["provenance"] == {
        **computed["norm_maps"]["provenance"], "class_L": "ingested:t", "nm0": "ingested:t"}
    rep["norm_maps"]["provenance"] = computed["norm_maps"]["provenance"]
    assert rep == computed


@pytest.mark.parametrize("k_poly, factors", [((5, 0, 1), [2]), ((13, 0, 1), [2, 2])])
def test_a_class_group_of_l_without_generator_ideals_needs_backend_data(tmp_path, k_poly,
                                                                         factors):
    # Nm0 maps the generator ideals of a nontrivial Cl(L), so a fixture
    # without them lacks backend data; it is not a failed consistency check
    fixture, setup = _fixture_of_l(k_poly, class_group={"invariant_factors": factors})
    _rejected(tmp_path, fixture, ["analyze", "--field=" + ",".join(map(str, k_poly)),
                                  "--ell", "3", "--fixtures", None],
              EXIT_BACKEND, f"missing backend data: the class group of "
              f"{setup.rel_field.label} was ingested without class_group.generator_ideals")


def test_analyze_on_q_sqrt_minus_5_walks_for_no_principal_generator(tmp_path, monkeypatch):
    # the trivial class of ker Nm0 is (O_L, 1): no generator of O_L or of its
    # norm O_K is searched for, and sigma(O_L) = O_L takes tau = 1
    searched = []
    original = ideals.principal_generator

    def counted(*args, **kwargs):
        searched.append(args)
        return original(*args, **kwargs)

    for module in (ideals, relative, sinvariants):
        monkeypatch.setattr(module, "principal_generator", counted)
    code, rep, _ = _run_json(tmp_path, ["analyze", "--field=5,0,1", "--ell", "3"])
    assert code == 0 and rep["classes"]["subgroup_class_count"] == 1
    assert searched == []


def test_asserted_nm1_reproduces_the_computed_report(tmp_path):
    # every unit of L has relative norm 1 in K, whose units are +-1: the
    # images of [torsion, eta] are the columns [0], [0]
    fixture = tmp_path / "units_l.json"
    fixture.write_text(json.dumps(_units_of_l_without_elements([[0], [0]])))
    code, rep, _ = _run_json(tmp_path, ["analyze", "--field=5,0,1", "--ell", "3",
                                        "--fixtures", str(fixture)])
    assert code == 0
    with open(os.path.join(HERE, "golden", "qsqrt-5_ell3.json")) as f:
        computed = json.load(f)
    assert rep["norm_maps"]["provenance"] == {
        **computed["norm_maps"]["provenance"], "nm1": "asserted", "unit_L": "ingested:t"}
    assert rep["norm_maps"]["ker_nm1"] == {"free_rank": 1, "torsion": [6]}
    rep["norm_maps"]["provenance"] = computed["norm_maps"]["provenance"]
    assert rep == computed


def test_asserted_nm1_with_a_column_per_free_generator_missing_exits_7(tmp_path, capsys):
    # one column for the two generators [torsion, eta]: the free unit of L
    # must not drop out of Nm1
    fixture = tmp_path / "units_l.json"
    fixture.write_text(json.dumps(_units_of_l_without_elements([[0]])))
    code, _, out = _run_json(tmp_path, ["analyze", "--field=5,0,1", "--ell", "3",
                                        "--fixtures", str(fixture)])
    assert code == EXIT_CONSISTENCY
    assert capsys.readouterr().err == "consistency check failed: nm1 image table has wrong shape\n"
    assert not out.exists()


def test_a_second_fixtures_flag_adds_its_files_to_the_first(tmp_path):
    # Q(i) at ell = 3: the units of K ingested without elements, and those of
    # L = Q(zeta_12) with asserted Nm1 images (zeta_12 -> i^2, eta -> i).  The
    # L file alone completes the run; with the K file too the run needs K's
    # missing elements (exit 3), whether both paths follow one flag or two
    units_k, units_l = tmp_path / "units_k.json", tmp_path / "units_l.json"
    units_k.write_text(json.dumps(SMALL_FIXTURE))
    units_l.write_text(json.dumps(_units_of_l_without_elements([[2], [1]], (1, 0, 1), 12)))
    analyze = ["analyze", "--field=1,0,1", "--ell", "3"]
    assert _run_json(tmp_path, analyze + ["--fixtures", str(units_l)])[0] == 0
    for fixtures in (["--fixtures", str(units_k), str(units_l)],
                     ["--fixtures", str(units_k), "--fixtures", str(units_l)]):
        assert _run_json(tmp_path, analyze + fixtures)[0] == EXIT_BACKEND


@pytest.mark.parametrize("target", [["0,1", "0"], ["-5,0,1", "0,0"]])
def test_restrict_without_source_torsion_is_empty(tmp_path, target):
    # Q has no 5-torsion in SL_2: no source classes, every target class new
    field, embedding = target
    code, rep, _ = _run_json(tmp_path, [
        "restrict", "--field", "0,1", "--ell", "5", f"--target-field={field}",
        "--embedding", embedding])
    assert code == 0
    k = make_field(int_list(field))
    setup = build_setup(k, PlaceSet.make(k, []), 5)
    labels = ([] if setup.case == "NoTorsion" else
              [str(list(el.coords)) for el in class_pipeline(setup).ocg.elements])
    assert labels == ([] if field == "0,1" else ["[0, 0]", "[0, 1]", "[1, 0]", "[1, 1]"])
    res = rep["restriction"]
    assert res["assignment"] == {} and res["merges"] == []
    assert res["invariance_gains"] == []
    assert res["new_target_classes"] == labels
    assert res["degree"] == k.degree
    assert rep["transfer_obstruction"] is None
