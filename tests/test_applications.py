import json
import os

import pytest

from sl2tate import classify, ideals, relative
from sl2tate.applications import (
    colimit_case,
    detection_report,
    quillen_report,
    restriction_map,
    restriction_scenario,
    transfer_obstruction,
    vcd,
)
from sl2tate.classify import class_pipeline
from sl2tate.errors import EmbeddingInvalid
from sl2tate.numberfield import cyclotomic_field, make_field, quadratic_field
from sl2tate.relative import build_setup, norm_maps
from sl2tate.sinvariants import BackendStore, PlaceSet, ingest_backend

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "sl2tate",
                        "fixtures")


def _load_store(*names):
    store = BackendStore()
    docs = []
    for name in names:
        with open(os.path.join(FIXTURES, name)) as f:
            doc = json.load(f)
        ingest_backend(store, doc)
        docs.append(doc)
    return store, docs


def _pipeline(field, primes, ell, store=None):
    s = build_setup(field, PlaceSet.make(field, primes), ell)
    res = class_pipeline(s, store=store)
    return s, res.norms, res.classes


def test_quillen_rational_ell3():
    q = make_field([0, 1])
    s, nm, classes = _pipeline(q, [], 3)
    rep = quillen_report(classes, nm, 3)
    assert (rep.n1, rep.n2, rep.r) == (1, 0, 0)
    assert rep.rank_over_c2 == 4
    assert rep.cross_checked


def test_quillen_empty_classes():
    rep = quillen_report([], None, 5)
    assert rep.rank_over_c2 == 0


def test_q23_quillen_and_detection():
    store, _ = _load_store("q23.json")
    k = cyclotomic_field(23)
    s, nm, classes = _pipeline(k, [23], 23, store=store)
    rep = quillen_report(classes, nm, 23)
    assert (rep.n1, rep.n2, rep.r) == (1, 1, 11)
    assert rep.rank_over_c2 == 2**12 * 3 == 12288
    det = detection_report(s, classes)
    assert det.verdict == "NotInjective"
    assert det.pic_order == 3
    assert det.source_components == 2 and det.target_components == 1
    assert det.source_period_sum > det.target_period_sum


def test_detection_inconclusive_trivial_pic():
    k = cyclotomic_field(5)
    s, nm, classes = _pipeline(k, [5], 5)
    det = detection_report(s, classes)
    assert det.verdict == "Inconclusive"
    assert det.pic_order == 1


def test_detection_field_case_inconclusive():
    q = make_field([0, 1])
    s, nm, classes = _pipeline(q, [], 3)
    det = detection_report(s, classes)
    assert det.verdict == "Inconclusive"


def test_restriction_identity():
    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q), 3)
    rep = restriction_map(s, q, PlaceSet.make(q), q.gen())
    assert rep.degree == 1
    assert rep.merges == ()
    assert len(rep.assignment) == 2
    assert not rep.conditional


def test_restriction_identity_runs_one_pipeline(monkeypatch):
    calls = []

    def counted(setup, store=None):
        calls.append(setup)
        return norm_maps(setup, store=store)

    monkeypatch.setattr(classify, "norm_maps", counted)
    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q, [2]), 3)
    rep = restriction_map(s, q, PlaceSet.make(q, [2]), q.gen())
    assert len(calls) == 1
    assert len(rep.assignment) == 4 and rep.merges == ()
    assert all(v == str(list(k)) for k, v in rep.assignment.items())


def test_restriction_invalid_embedding():
    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q), 3)
    k = quadratic_field(-1)
    with pytest.raises(EmbeddingInvalid):
        restriction_map(s, k, PlaceSet.make(k), k.one())


def test_restriction_q_to_eisenstein():
    # Q -> Q(zeta_3) with S = {3}: the target splits with trivial Pic, so
    # the non-invariant source pair merges onto the single target class
    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q, [3]), 3)
    L = cyclotomic_field(3)
    rep = restriction_map(s, L, PlaceSet.make(L, [3]), L.zero())
    assert rep.degree == 2
    assert len(rep.merges) == 1 and len(rep.merges[0]) == 2
    assert rep.invariance_gains  # the pair orbit lands on an invariant class
    assert rep.new_target_classes == ()


def test_restriction_scenario_q23_hilbert():
    store, docs = _load_store("q23.json", "q23_hilbert.json")
    scenario = next(d for d in docs if d["kind"] == "restriction-scenario")
    rep = restriction_scenario(scenario, store=store)
    assert rep.degree == 3
    assert rep.conditional
    # all three element classes of Pic = Z/3 capitulate to one class
    assert len(rep.merges) == 1 and len(rep.merges[0]) == 3
    wit = transfer_obstruction(rep, 23)
    assert wit is not None
    assert wit["merge_size"] == 3 and wit["degree"] == 3


def test_transfer_obstruction_identity_none():
    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q), 3)
    rep = restriction_map(s, q, PlaceSet.make(q), q.gen())
    assert transfer_obstruction(rep, 3) is None


def test_transfer_obstruction_degree_divisible_none():
    store, docs = _load_store("q23.json", "q23_hilbert.json")
    scenario = next(d for d in docs if d["kind"] == "restriction-scenario")
    rep = restriction_scenario(scenario, store=store)
    # with ell dividing the degree the criterion gives nothing
    assert transfer_obstruction(rep, 3) is None


def test_colimit_cases():
    def case(field, ell):
        return colimit_case(build_setup(field, PlaceSet.make(field), ell)).case

    q = make_field([0, 1])
    assert case(q, 5) == "Zero"
    assert case(q, 3) == "ProductOverRelativeBrauer"
    assert case(cyclotomic_field(5), 5) == "NormalizerOfTorus"
    # 2cos(2pi/5) lies in Q(sqrt(5)), zeta_5 does not
    assert case(quadratic_field(5), 5) == "ProductOverRelativeBrauer"


def test_colimit_case_reads_the_setup(monkeypatch):
    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q), 3)

    def no_search(*args, **kwargs):
        raise AssertionError("colimit_case must not search for roots")

    monkeypatch.setattr(ideals, "find_root", no_search)
    monkeypatch.setattr(relative, "find_root", no_search)
    assert colimit_case(s).case == "ProductOverRelativeBrauer"


def test_vcd_values():
    q = make_field([0, 1])
    assert vcd(q, PlaceSet.make(q)) == 1
    k = quadratic_field(-2)
    assert vcd(k, PlaceSet.make(k)) == 2
    assert vcd(q, PlaceSet.make(q, [2, 3])) == 3
