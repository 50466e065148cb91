import json
import os
import subprocess
import sys

import pytest

from sl2tate import relative
from sl2tate.classify import class_pipeline
from sl2tate.cli import (EXIT_CONSISTENCY, EXIT_INPUT, EXIT_SCHEMA, EXIT_UNSUPPORTED, int_list,
                         main)
from sl2tate.intlinalg import FiniteAbelianGroup, FinGenAbGroup
from sl2tate.numberfield import make_field
from sl2tate.relative import build_setup
from sl2tate.sinvariants import PlaceSet

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
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
    ["analyze", "--field", "x", "--ell", "3"],
    ["analyze", "--field", "0,1", "--ell", "3", "--degrees", "4:-4"],
    ["analyze", "--field", "0,1"],                         # usage error
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
    sinvariants._class_group_relations.cache_clear()
    out = tmp_path / "r.json"
    try:
        code = main(["analyze", "--field=5,0,1", "--ell", "3", "--out", str(out)])
    finally:
        sinvariants._class_group_relations.cache_clear()
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
}
MALFORMED_FIXTURES = {
    "text_min_poly": {**SMALL_FIXTURE, "field": {"min_poly": ["a", 0, 1]}},
    "text_rank": {**SMALL_FIXTURE, "unit_group": {"rank": "0", "torsion_order": 4}},
    "fractional_place": {**SMALL_FIXTURE, "places": [2.5]},
    "array": [SMALL_FIXTURE],
    "text_basis": {**SMALL_FIXTURE, "field": {"min_poly": [1, 0, 1], "basis": "x"}},
    "integer_generator_ideal": {**SMALL_FIXTURE, "class_group": {
        "invariant_factors": [], "generator_ideals": [5]}},
}


def _schema_error(tmp_path, doc, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2tate.cli"] + [str(path) if a is None else a for a in argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("schema error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_is_a_schema_error(tmp_path, name):
    # each used to end in a traceback (exit 1, the oracle-mismatch code) or
    # be read as something else; the q23 fixture makes the source reachable
    _schema_error(tmp_path, MALFORMED_SCENARIOS[name],
                  ["restrict", "--scenario", None,
                   "--fixtures", os.path.join(FIXTURES, "q23.json")])


@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURES))
def test_malformed_fixture_is_a_schema_error(tmp_path, name):
    _schema_error(tmp_path, MALFORMED_FIXTURES[name],
                  ["analyze", "--field=1,0,1", "--ell", "3", "--fixtures", None])


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
