from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2tate import polytools as pt
from sl2tate.errors import IntegralBasisRequired, ReduciblePolynomial
from sl2tate.intlinalg import det_rational
from sl2tate.numberfield import (
    FieldEmbedding,
    composite_field,
    cyclotomic_field,
    make_field,
    quadratic_field,
)


def test_rational_field():
    q = make_field([0, 1])
    assert q.degree == 1
    assert q.signature == (1, 0)
    five = q.rational(5)
    assert five.norm() == 5
    assert (five * five).norm() == 25


def test_reducible_poly_rejected():
    with pytest.raises(ReduciblePolynomial):
        make_field([-1, 0, 1])


def test_degree_three_needs_basis():
    with pytest.raises(IntegralBasisRequired):
        make_field([-2, 0, 0, 1])  # x^3 - 2 is not in the built-in families


def test_gaussian_integers():
    k = make_field([1, 0, 1])
    assert k.signature == (0, 1)
    assert k.discriminant == -4
    assert k.root_of_unity_order == 4
    i = k.gen()
    assert (i * i).coords == (Fraction(-1), Fraction(0))
    assert i.norm() == 1
    assert (k.element([1, 1])).norm() == 2  # N(1 + i)
    assert (k.element([1, 1])).trace() == 2


def test_quadratic_maximal_order_half_integers():
    # Q(sqrt(-3)): maximal order is Z[(1+sqrt(-3))/2], disc -3
    k = quadratic_field(-3)
    assert k.discriminant == -3
    omega = k.basis_element(1)
    assert omega.is_integral()
    # omega satisfies x^2 - x + 1 = 0 (it is a primitive 6th root of unity)
    assert (omega * omega - omega + k.one()).is_zero()

    k2 = quadratic_field(-1)
    assert k2.discriminant == -4
    k5 = quadratic_field(5)
    assert k5.discriminant == 5
    assert k5.signature == (2, 0)


def test_non_maximal_power_basis_detected():
    # Z[sqrt(-3)] is not maximal; the built-in constructor must enlarge it
    k = quadratic_field(-3)
    half = k.element([Fraction(1, 2), Fraction(1, 2)])
    assert half.is_integral()
    assert half.basis_coords() == (0, 1)


def test_cyclotomic_field_23():
    k = cyclotomic_field(23)
    assert k.degree == 22
    assert k.signature == (0, 11)
    assert k.root_of_unity_order == 23
    z = k.gen()
    assert (z**23 - k.one()).is_zero()
    assert not (z**22 - k.one()).is_zero()
    # N(1 - zeta) = 23 for a prime-power cyclotomic field
    assert (k.one() - z).norm() == 23


def test_element_arithmetic_and_inverse():
    k = quadratic_field(2)
    s = k.gen()
    el = k.one() + s  # 1 + sqrt2
    assert el.norm() == -1
    inv = el.inverse()
    assert (el * inv - k.one()).is_zero()
    assert inv.coords == (Fraction(-1), Fraction(1))  # -1 + sqrt2


def test_min_poly_over_q():
    k = quadratic_field(-3)
    omega = k.basis_element(1)
    assert omega.min_poly_over_q() == [1, -1, 1]
    assert k.rational(7).min_poly_over_q() == [-7, 1]


def test_norm_form_matches_norm():
    import random

    rng = random.Random(9)
    for d in (-1, -3, -5, 2):
        k = quadratic_field(d)
        for _ in range(10):
            coords = [rng.randint(-9, 9), rng.randint(-9, 9)]
            el = k.from_basis_coords(coords)
            assert k.norm_of_int_coords(coords) == el.norm()


def test_embedding():
    k = quadratic_field(-3)
    c = cyclotomic_field(3)
    # sqrt(-3) = 2*zeta3 + 1 inside Q(zeta3)
    emb = FieldEmbedding(k, c, c.element([1, 2]))
    omega = k.basis_element(1)
    img = emb.map(omega)
    assert (img * img - img + c.one()).is_zero()
    with pytest.raises(ValueError):
        FieldEmbedding(k, c, c.element([1, 1]))


def test_composite_quadratic_with_zeta3():
    k = quadratic_field(-2)
    c = cyclotomic_field(3)
    L, e1, e2 = composite_field(k, c)
    assert L.degree == 4
    assert L.signature == (0, 2)
    # discriminants -8 and -3 are coprime, so disc(L) = 8^2 * 3^2
    assert L.discriminant == 64 * 9
    w = e1.map(k.gen())
    z = e2.map(c.gen())
    assert (w * w + L.rational(2)).is_zero()
    assert (z * z + z + L.one()).is_zero()
    # norm form sanity in degree 4
    el = w + z
    assert L.norm_of_int_coords(
        [int(x) for x in el.basis_coords()]
    ) == el.norm()


def test_composite_real_quadratic():
    k = quadratic_field(5)
    c = cyclotomic_field(3)
    L, e1, e2 = composite_field(k, c)
    assert L.degree == 4
    assert L.signature == (0, 2)
    assert L.discriminant == 25 * 9


def _trace_form_discriminant(k):
    n = k.degree
    return det_rational([[(k.basis_element(i) * k.basis_element(j)).trace()
                          for j in range(n)] for i in range(n)])


def _is_power_basis(k):
    return all(x == (i == j) for i, row in enumerate(k.basis) for j, x in enumerate(row))


@settings(max_examples=40, deadline=None)
@given(st.integers(-60, 60))
def test_discriminant_is_the_trace_form_determinant(d):
    s, t = pt.squarefree_decompose(d)
    assume(t == 1 and s not in (0, 1))
    k = quadratic_field(s)
    assert k.discriminant == _trace_form_discriminant(k)
    assert k.discriminant == pt.fundamental_discriminant(4 * s)[0]
    if _is_power_basis(k):
        assert k.discriminant == pt.discriminant(k.min_poly)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from((3, 4, 5, 7, 8, 9, 11, 12, 15)), st.sampled_from((-7, -5, -2, 2, 5)))
def test_discriminant_of_cyclotomic_and_composite_fields(m, d):
    c = cyclotomic_field(m)
    assert _is_power_basis(c)
    assert c.discriminant == _trace_form_discriminant(c) == pt.discriminant(c.min_poly)
    if c.degree == 2:
        L, _, _ = composite_field(quadratic_field(d), c)
        assert L.discriminant == _trace_form_discriminant(L)
