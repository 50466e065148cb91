import pytest

from sl2tate import ideals
from sl2tate.classify import (
    class_pipeline,
    dihedral_overgroup_count,
    element_class_count,
    representative_matrix,
    subgroup_classes,
)
from sl2tate.errors import SearchExhausted
from sl2tate.numberfield import cyclotomic_field, make_field, quadratic_field
from sl2tate.relative import build_setup, norm_maps, oriented_class_group
from sl2tate.sinvariants import BackendStore, PlaceSet, ingest_backend


def _pipeline(field, primes, ell, store=None):
    s = build_setup(field, PlaceSet.make(field, primes), ell)
    nm = norm_maps(s, store=store)
    ocg = oriented_class_group(s, nm)
    return s, nm, ocg


def test_rational_ell3_single_noninvariant_class():
    q = make_field([0, 1])
    s, nm, ocg = _pipeline(q, [], 3)
    classes = subgroup_classes(ocg)
    assert len(classes) == 1
    cls = classes[0]
    assert not cls.galois_invariant
    assert cls.normalizer.kind == "Abelian"
    assert cls.normalizer.base.free_rank == 0
    assert cls.normalizer.base.torsion.invariant_factors == (6,)
    assert element_class_count(classes) == 2
    assert dihedral_overgroup_count(cls, nm) == 0


def test_rational_ell3_representative_matrix():
    q = make_field([0, 1])
    s, nm, ocg = _pipeline(q, [], 3)
    el = ocg.element((0,))
    m = representative_matrix(el, s)
    (a, b), (c, d) = m.rows
    assert [x.is_rational_value() for x in (a, b, c, d)] == [0, -1, 1, -1]


def test_split_case_trivial_class_matrix():
    k = cyclotomic_field(5)
    s, nm, ocg = _pipeline(k, [5], 5)
    classes = subgroup_classes(ocg)
    assert len(classes) == 1 and classes[0].galois_invariant
    m = representative_matrix(ocg.element(()), s)
    (a, b), (c, d) = m.rows
    assert b.is_zero() and c.is_zero()
    assert (a * d - k.one()).is_zero()


def test_q23_fixture_two_classes():
    store = BackendStore()
    ingest_backend(store, {
        "schema": "sl2tate-fixture-1",
        "kind": "s-invariants",
        "trust": "literature",
        "field": {"min_poly": [1] * 23, "label": "q23"},
        "places": [23],
        "class_group": {"invariant_factors": [3]},
        "unit_group": {"rank": 11, "torsion_order": 46},
    })
    k = cyclotomic_field(23)
    s, nm, ocg = _pipeline(k, [23], 23, store=store)
    assert s.case == "Split"
    classes = subgroup_classes(ocg)
    assert len(classes) == 2
    inv = [c for c in classes if c.galois_invariant]
    pair = [c for c in classes if not c.galois_invariant]
    assert len(inv) == 1 and len(pair) == 1
    assert inv[0].normalizer.kind == "Dihedral"
    assert pair[0].normalizer.kind == "Abelian"
    assert inv[0].normalizer.base.free_rank == 11
    assert element_class_count(classes) == 3
    # ker Nm1 = Z^11 x Z/46 tensor Z/2 has 2^12 elements
    assert dihedral_overgroup_count(inv[0], nm) == 2**12
    assert dihedral_overgroup_count(pair[0], nm) == 0
    # the ingested class group carries no ideal representatives
    with pytest.raises(SearchExhausted):
        representative_matrix(ocg.element((1,)), s)


def test_imaginary_quadratic_orbit_identity():
    for d in (-2, -5):
        k = quadratic_field(d)
        s, nm, ocg = _pipeline(k, [], 3)
        classes = subgroup_classes(ocg)
        n_inv = sum(1 for c in classes if c.galois_invariant)
        n_pair = sum(1 for c in classes if not c.galois_invariant)
        assert ocg.order == n_inv + 2 * n_pair
        assert element_class_count(classes) == ocg.order


def test_invariant_class_overgroup_count_rank0():
    # ker Nm1 = Z/6 (r=0, even torsion) -> two dihedral overgroup classes
    k = quadratic_field(-2)
    s, nm, ocg = _pipeline(k, [], 3)
    classes = subgroup_classes(ocg)
    inv = [c for c in classes if c.galois_invariant]
    for c in inv:
        expect = 2 ** (nm.ker_nm1.free_rank + 1)
        assert dihedral_overgroup_count(c, nm) == expect


def test_representative_matrix_imaginary_quadratic():
    # principal class of the quartic relative ring: matrix verified exactly
    k = quadratic_field(-2)
    s, nm, ocg = _pipeline(k, [], 3)
    el = ocg.element(next(c.coords for c in ocg.elements
                          if not any(c.class_coords)))
    m = representative_matrix(el, s)
    (a, b), (c, d) = m.rows
    assert (a + d - s.t).is_zero()


def test_nonprincipal_field_class_needs_no_search(monkeypatch):
    # Q(sqrt-13) at ell 3: class [1] is nonzero in ker Nm0, so its ideal is
    # not principal in O_{L,S} and no (g, zeta*g) basis exists
    k = quadratic_field(-13)
    s, nm, ocg = _pipeline(k, [], 3)
    el = ocg.element((1,))
    assert el.class_coords == (1,)
    searched = []
    monkeypatch.setattr(ideals, "search_elements",
                        lambda *a, **kw: searched.append(a))
    with pytest.raises(SearchExhausted, match="not principal"):
        representative_matrix(el, s)
    assert searched == []


@pytest.mark.parametrize("k_poly, primes", [((1, 0, 1), [2, 3]), ((2, 0, 1), [2]),
                                            ((-13, 0, 1), [])])
def test_each_free_class_matrix_carries_its_orientation(k_poly, primes):
    # the basis (d, zeta) of O_{L,S} with d the orientation's S-unit gives
    # ((0, -1/d), (d, t)); C and diag(u, 1) C diag(u, 1)^-1 are conjugate in
    # SL_2(O_{K,S}) only when u is a norm, so the classes need distinct
    # matrices.  A basis (g, zeta*g) of O_L gives the companion matrix for
    # every g, whatever the orientation
    k = make_field(list(k_poly))
    s = build_setup(k, PlaceSet.make(k, primes), 3)
    res = class_pipeline(s)
    uk, coker = res.norms.unit_k, res.norms.coker_nm1
    matrices = []
    for cls in res.classes:
        el = res.ocg.element(cls.orbit[0])
        if any(el.class_coords):
            continue
        m = representative_matrix(el, s)
        t, e = uk.dlog(m.rows[1][0])  # ValueError unless an S-unit
        assert coker.project((t,) + tuple(e)) == el.orientation
        matrices.append(m.rows)
    assert len(matrices) >= 2 and len(set(matrices)) == len(matrices)
