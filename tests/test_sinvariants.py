from fractions import Fraction

import pytest

from sl2tate.errors import ConsistencyFailure, NeedsBackendData, SchemaViolation
from sl2tate.ideals import FractionalIdeal
from sl2tate.intlinalg import FiniteAbelianGroup
from sl2tate.numberfield import cyclotomic_field, make_field, quadratic_field
from sl2tate.sinvariants import (
    BackendStore,
    PlaceSet,
    class_group,
    forms_class_group_oracle,
    ingest_backend,
    minkowski_bound,
    reduced_forms,
    unit_group,
)


def test_reduced_forms_counts():
    # classical class numbers
    assert len(reduced_forms(-4)) == 1
    assert len(reduced_forms(-23)) == 3
    assert len(reduced_forms(-47)) == 5
    assert len(reduced_forms(-20)) == 2


def test_forms_oracle_structure():
    assert forms_class_group_oracle(-4).invariant_factors == ()
    assert forms_class_group_oracle(-23).invariant_factors == (3,)
    assert forms_class_group_oracle(-20).invariant_factors == (2,)
    # h(-84) = 4 with Klein four-group, h(-39) = 4 cyclic
    assert forms_class_group_oracle(-84).invariant_factors == (2, 2)
    assert forms_class_group_oracle(-39).invariant_factors == (4,)


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -11, -19, -43])
def test_class_number_one_fields(d):
    k = quadratic_field(d)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group.is_trivial
    assert cl.provenance == "computed"


@pytest.mark.parametrize("d", [-5, -6, -10, -13, -15, -23, -31])
def test_class_group_matches_forms_oracle(d):
    k = quadratic_field(d)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group == forms_class_group_oracle(k.discriminant)


def test_class_group_dlog_and_generators():
    k = quadratic_field(-5)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group.invariant_factors == (2,)
    p2 = FractionalIdeal.from_generators(k, [k.rational(2), k.element([1, 1])])
    assert cl.dlog(p2) == (1,)
    assert cl.dlog(p2 * p2) == (0,)
    assert cl.dlog(FractionalIdeal.principal(k, k.element([1, 1]))) == (0,)
    # the stored generator really represents the nontrivial class
    g = cl.generator_ideals[0]
    assert cl.dlog(g) == (1,)


def test_s_class_group_quotient():
    # Cl(Q(sqrt(-5))) = Z/2 is killed by inverting 2 (the prime above 2 is
    # the nontrivial class)
    k = quadratic_field(-5)
    cl = class_group(k, PlaceSet.make(k, [2]))
    assert cl.group.is_trivial
    # inverting an inert prime changes nothing
    cl11 = class_group(k, PlaceSet.make(k, [11]))
    assert cl11.group.invariant_factors == (2,)


def test_class_group_real_quadratic():
    k = quadratic_field(10)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group.invariant_factors == (2,)
    k79 = quadratic_field(79)
    assert class_group(k79, PlaceSet.make(k79)).group.invariant_factors == (3,)


def test_class_group_quartic():
    from sl2tate.numberfield import composite_field

    k = quadratic_field(-2)
    L, _, _ = composite_field(k, cyclotomic_field(3))
    cl = class_group(L, PlaceSet.make(L))
    assert cl.group.is_trivial


def test_class_group_relations_searched_once_per_field(monkeypatch):
    from sl2tate import sinvariants
    from sl2tate.numberfield import NumberField, composite_field

    L, _, _ = composite_field(quadratic_field(-5), cyclotomic_field(3))
    s2 = PlaceSet.make(L, [2])
    sinvariants._class_group_relations.cache_clear()
    cold = class_group(L, s2)
    sinvariants._class_group_relations.cache_clear()
    class_group(L, PlaceSet(L, (), ()))
    calls = []
    norm = NumberField.norm_of_int_coords

    def counted(self, coords):
        calls.append(coords)
        return norm(self, coords)

    monkeypatch.setattr(NumberField, "norm_of_int_coords", counted)
    warm = class_group(L, s2)
    assert calls == []
    assert warm.group == cold.group == FiniteAbelianGroup((2,))
    assert warm.generator_ideals == cold.generator_ideals


def test_minkowski_bound():
    k = quadratic_field(-5)
    assert minkowski_bound(k) == 2
    q = make_field([0, 1])
    assert minkowski_bound(q) == 1


@pytest.mark.parametrize("d", (-1, -2, -5, -7, -10, -11, -13, -14, -17, -19))
def test_minkowski_bound_exact_matches_float(d):
    # the criterion-7 fields K and their quartic L = K(zeta_3)
    import math

    from sl2tate.numberfield import composite_field

    k = quadratic_field(d)
    for field in (k, composite_field(k, cyclotomic_field(3))[0]):
        n, (_, r2) = field.degree, field.signature
        bound = (math.factorial(n) / n**n * (4 / math.pi) ** r2
                 * math.sqrt(abs(field.discriminant)))
        assert minkowski_bound(field) == math.floor(bound)


def test_degree_over_four_needs_backend():
    k = cyclotomic_field(23)
    with pytest.raises(NeedsBackendData):
        class_group(k, PlaceSet(k, (), ()))


def test_unit_group_rational():
    q = make_field([0, 1])
    u = unit_group(q, PlaceSet.make(q))
    assert u.rank == 0 and u.torsion_order == 2
    us = unit_group(q, PlaceSet.make(q, [2, 3]))
    assert us.rank == 2
    t, e = us.dlog(q.rational(Fraction(-9, 2)))
    assert t == 1
    g = q.rational(-1) ** t
    for gen, k in zip(us.free_gens, e):
        g = g * gen**k
    assert (g - q.rational(Fraction(-9, 2))).is_zero()


def test_unit_group_imaginary_quadratic_torsion():
    for d, w in ((-3, 6), (-1, 4), (-5, 2)):
        k = quadratic_field(d)
        u = unit_group(k, PlaceSet.make(k))
        assert (u.rank, u.torsion_order) == (0, w)


def test_unit_group_real_quadratic():
    k = quadratic_field(2)
    u = unit_group(k, PlaceSet.make(k))
    assert u.rank == 1
    eps = u.free_gens[0]
    # fundamental unit of Q(sqrt 2) is 1 + sqrt 2
    assert eps.coords == (Fraction(1), Fraction(1))
    t, e = u.dlog(eps**3)
    assert (t, e) == (0, (3,))
    t, e = u.dlog(-(eps.inverse() ** 2))
    assert (t, e) == (1, (-2,))
    with pytest.raises(ValueError):
        u.dlog(k.rational(2))


def test_unit_group_s_units_quadratic():
    # in Q(i), inverting 5 = (2+i)(2-i) adds two S-unit generators
    k = quadratic_field(-1)
    u = unit_group(k, PlaceSet.make(k, [5]))
    assert u.rank == 2
    el = k.element([2, 1]) * k.element([2, -1])  # = 5
    t, e = u.dlog(el)
    g = u.torsion_gen**t
    for gen, kk in zip(u.free_gens, e):
        g = g * gen**kk
    assert (g - el).is_zero()


def test_unit_group_s_units_nontrivial_class():
    # Q(sqrt(-5)), S = primes above 2: the prime above 2 is nonprincipal of
    # class order 2, so the S-unit generator has valuation 2 there
    k = quadratic_field(-5)
    u = unit_group(k, PlaceSet.make(k, [2]))
    assert u.rank == 1
    g = u.free_gens[0]
    p2 = u.places.prime_ideals[0]
    assert FractionalIdeal.principal(k, g).valuation(p2) == 2


def test_unit_group_cyclotomic_5():
    k = cyclotomic_field(5)
    u = unit_group(k, PlaceSet.make(k))
    assert u.rank == 1 and u.torsion_order == 10
    t, e = u.dlog(u.torsion_gen * u.free_gens[0] ** 2)
    assert (t, e) == (1, (2,))


def test_unit_group_cyclotomic_7():
    k = cyclotomic_field(7)
    u = unit_group(k, PlaceSet.make(k))
    assert u.rank == 2 and u.torsion_order == 14
    a, b = u.free_gens
    t, e = u.dlog(a * b.inverse())
    assert e == (1, -1)


def test_ingest_q23_style_fixture():
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "kind": "s-invariants",
        "trust": "literature",
        # min poly of zeta_23 is 1 + x + ... + x^22
        "field": {"min_poly": [1] * 23, "label": "q23"},
        "places": [23],
        "class_group": {"invariant_factors": [3]},
        "unit_group": {"rank": 11, "torsion_order": 46},
    }
    ingest_backend(store, doc)
    k = cyclotomic_field(23)
    places = PlaceSet.make(k, [23])
    cl = class_group(k, places, store=store)
    assert cl.group.invariant_factors == (3,)
    assert cl.provenance == "ingested:literature"
    u = unit_group(k, places, store=store)
    assert (u.rank, u.torsion_order) == (11, 46)
    assert u.provenance == "ingested:literature"


def test_ingest_wrong_rank_rejected():
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "trust": "literature",
        "field": {"min_poly": [1] * 23},
        "places": [23],
        "unit_group": {"rank": 10, "torsion_order": 46},
    }
    with pytest.raises(ConsistencyFailure):
        ingest_backend(store, doc)


def test_ingest_schema_errors():
    store = BackendStore()
    with pytest.raises(SchemaViolation):
        ingest_backend(store, {"schema": "bogus"})
    with pytest.raises(SchemaViolation):
        ingest_backend(store, {"schema": "sl2tate-fixture-1", "trust": "x"})


def test_ingest_trivial_q_fixture_matches_builtin():
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "trust": "synthetic",
        "field": {"min_poly": [0, 1]},
        "places": [],
        "class_group": {"invariant_factors": []},
        "unit_group": {"rank": 0, "torsion_order": 2},
    }
    ingest_backend(store, doc)
    q = make_field([0, 1])
    places = PlaceSet.make(q)
    cl = class_group(q, places, store=store)
    assert cl.group == class_group(q, places).group
    assert cl.provenance == "ingested:synthetic"
