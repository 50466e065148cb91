import fractions
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2tate import polytools as pt
from sl2tate.errors import BasisNotClosed, IntegralBasisRequired, ReduciblePolynomial
from sl2tate.intlinalg import IntMatrix, det_rational
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


# composite_field(Q(sqrt d), Q(zeta_3)), recorded before it moved to k1[y]/(f2):
# min_poly, the basis rows and the images of sqrt(d) and zeta_3, all in
# power-basis coordinates over the primitive element
COMPOSITES_WITH_ZETA3 = {
    -5: ((21, 12, 13, 2, 1),
         '1 0 0 0 | -16/17 -16/17 -3/17 -2/17 | 16/17 33/17 3/17 2/17 | 43/17 -8/17 7/17 -1/17',
         '16/17 33/17 3/17 2/17', '-16/17 -16/17 -3/17 -2/17'),
    -7: ((43, 16, 17, 2, 1),
         '1 0 0 0 | -22/25 -4/5 -3/25 -2/25 | 47/50 9/10 3/50 1/25 | 67/50 -3/5 4/25 -3/50',
         '22/25 9/5 3/25 2/25', '-22/25 -4/5 -3/25 -2/25'),
    -14: ((183, 30, 31, 2, 1),
          '1 0 0 0 | -43/53 -34/53 -3/53 -2/53 | 43/53 87/53 3/53 2/53 | 376/53 -17/53 25/53 -1/53',
          '43/53 87/53 3/53 2/53', '-43/53 -34/53 -3/53 -2/53'),
    -2: ((3, 6, 7, 2, 1),
         '1 0 0 0 | -7/5 -2 -3/5 -2/5 | 7/5 3 3/5 2/5 | 4/5 -1 1/5 -1/5',
         '7/5 3 3/5 2/5', '-7/5 -2 -3/5 -2/5'),
    -1: ((1, 4, 5, 2, 1),
         '1 0 0 0 | -4 -8 -3 -2 | 4 9 3 2 | -1 -4 -1 -1',
         '4 9 3 2', '-4 -8 -3 -2'),
    2: ((7, -2, -1, 2, 1),
        '1 0 0 0 | -5/11 2/11 3/11 2/11 | 5/11 9/11 -3/11 -2/11 | -8/11 1/11 7/11 1/11',
        '5/11 9/11 -3/11 -2/11', '-5/11 2/11 3/11 2/11'),
    3: ((13, -4, -3, 2, 1),
        '1 0 0 0 | -8/15 0 1/5 2/15 | 8/15 1 -1/5 -2/15 | -19/15 0 3/5 1/15',
        '8/15 1 -1/5 -2/15', '-8/15 0 1/5 2/15'),
    5: ((31, -8, -7, 2, 1),
        '1 0 0 0 | -14/23 -4/23 3/23 2/23 | 37/46 27/46 -3/46 -1/23 | -67/46 -3/23 8/23 3/46',
        '14/23 27/23 -3/23 -2/23', '-14/23 -4/23 3/23 2/23'),
}


@pytest.mark.parametrize("d", sorted(COMPOSITES_WITH_ZETA3))
def test_composite_with_zeta3_is_pinned(d):
    min_poly, basis, sqrt_d, zeta3 = COMPOSITES_WITH_ZETA3[d]
    L, e1, e2 = composite_field(quadratic_field(d), cyclotomic_field(3))

    def row(text):
        return tuple(Fraction(x) for x in text.split())

    assert L.min_poly == min_poly
    assert L.basis == tuple(row(r) for r in basis.split("|"))
    assert e1.gen_image.coords == row(sqrt_d)
    assert e2.gen_image.coords == row(zeta3)


def _trace_form_discriminant(k):
    n = k.degree
    return det_rational([[(k.basis_element(i) * k.basis_element(j)).trace()
                          for j in range(n)] for i in range(n)])


def _sympy_discriminant(min_poly):
    import sympy
    x = sympy.Symbol("x")
    return int(sympy.discriminant(sum(c * x**i for i, c in enumerate(min_poly)), x))


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
        assert k.discriminant == _sympy_discriminant(k.min_poly)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from((3, 4, 5, 7, 8, 9, 11, 12, 15)), st.sampled_from((-7, -5, -2, 2, 5)))
def test_discriminant_of_cyclotomic_and_composite_fields(m, d):
    c = cyclotomic_field(m)
    assert _is_power_basis(c)
    assert c.discriminant == _trace_form_discriminant(c) == _sympy_discriminant(c.min_poly)
    if c.degree == 2:
        L, _, _ = composite_field(quadratic_field(d), c)
        assert L.discriminant == _trace_form_discriminant(L)


# element arithmetic on integral-basis numerators against a power-basis
# oracle: Fraction coordinates over 1, theta, ..., theta^(n-1), multiplied
# by the schoolbook product and reduced modulo the defining polynomial
ELEMENT_FIELDS = (
    make_field([1, 0, 1]),
    quadratic_field(5),
    cyclotomic_field(7),
    composite_field(quadratic_field(-5), cyclotomic_field(3))[0],
    # x^3 - x - 1 on the basis (1 + theta, 1 + 2 theta, theta^2): 1 = 2 b0 - b1
    make_field([-1, -1, 0, 1], basis=[[1, 1, 0], [1, 2, 0], [0, 0, 1]]),
)


def _oracle_mul(f, a, b):
    n = len(f) - 1
    out = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        c = out.pop()
        for j in range(n):
            out[i - n + j] -= c * f[j]
    return tuple(out)


def _oracle_mult_matrix(f, a):
    """Multiplication by a on the power basis: column j = a * theta^j."""
    n = len(f) - 1
    cols = [_oracle_mul(f, a, [Fraction(int(i == j)) for i in range(n)])
            for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@st.composite
def _power_coords(draw, field):
    den = draw(st.sampled_from((1, 2, 3, 6)))
    return tuple(Fraction(draw(st.integers(-6, 6)), den) for _ in range(field.degree))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_element_arithmetic_matches_power_basis_oracle(data):
    k = data.draw(st.sampled_from(ELEMENT_FIELDS))
    f = k.min_poly
    a, b = data.draw(_power_coords(k)), data.draw(_power_coords(k))
    x, y = k.element(a), k.element(b)
    assert x.coords == a and k.element(x.coords) == x
    assert (x + y).coords == tuple(s + t for s, t in zip(a, b))
    assert (x - y).coords == tuple(s - t for s, t in zip(a, b))
    assert (x * y).coords == _oracle_mul(f, a, b)
    m = _oracle_mult_matrix(f, a)
    assert x.norm() == det_rational(m)
    assert x.trace() == sum(m[i][i] for i in range(k.degree))
    assert x.is_integral() == all(c.denominator == 1 for c in x.basis_coords())
    if any(a):
        assert _oracle_mul(f, a, x.inverse().coords) == k.one().coords


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_element_equality_is_canonical(data):
    k = data.draw(st.sampled_from(ELEMENT_FIELDS))
    a, b = data.draw(_power_coords(k)), data.draw(_power_coords(k))
    assume(any(b))
    x, y = k.element(a), k.element(b)
    # the same element by a second route: through the basis with a scaled
    # numerator, and as (x * y) / y
    scale = data.draw(st.integers(1, 12))
    routes = (k.from_basis_coords([c * scale for c in x.basis_coords()], scale),
              (x * y) / y)
    for z in routes:
        assert z == x and hash(z) == hash(x)
        assert (z.num, z.den) == (x.num, x.den)
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rational_elements(data):
    k = data.draw(st.sampled_from(ELEMENT_FIELDS))
    q = Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 9)))
    r = k.rational(q)
    assert r.coords == (q,) + (Fraction(0),) * (k.degree - 1)
    assert r == k.element([q]) and r.is_rational_value() == q
    assert (r * k.one()).is_rational_value() == q
    if k.degree > 1:
        assert (r + k.gen()).is_rational_value() is None


NORM_LINE_FIELDS = (
    make_field([0, 1]),
    quadratic_field(-5),
    quadratic_field(5),
    ELEMENT_FIELDS[-1],
    cyclotomic_field(5),
    ELEMENT_FIELDS[3],
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NORM_LINE_FIELDS), st.data())
def test_norm_line_matches_the_bareiss_determinant(k, data):
    coords = data.draw(st.lists(st.integers(-40, 40), min_size=k.degree,
                                max_size=k.degree))
    line = k.norm_line(coords[:-1])
    assert len(line) == k.degree + 1
    det = IntMatrix.from_rows(k.int_mult_rows(coords)).det()
    assert pt.poly_eval(line, coords[-1]) == det == k.norm_of_int_coords(coords)
    # the same polynomial along the whole line
    t = data.draw(st.integers(-40, 40))
    point = coords[:-1] + [t]
    assert pt.poly_eval(line, t) == IntMatrix.from_rows(k.int_mult_rows(point)).det()


def test_user_basis_without_one_as_first_row():
    k = ELEMENT_FIELDS[-1]
    assert k.one().num == (2, -1, 0)
    half = k.rational(Fraction(3, 2))
    assert (half.num, half.den) == ((6, -3, 0), 2)
    assert k.basis_element(0).is_rational_value() is None
    assert (k.basis_element(0) * 2 - k.basis_element(1)).is_rational_value() == 1
    assert (k.basis_element(1) * 2 - k.basis_element(0) * 4).is_rational_value() == -2


def test_cyclotomic_23_product_builds_no_fraction():
    k = cyclotomic_field(23)
    x = k.from_basis_coords([(3 * i) % 7 - 3 for i in range(22)], 2)
    y = k.from_basis_coords([(5 * i) % 9 - 4 for i in range(22)], 3)
    seen = []

    def profile(frame, event, arg):
        if frame.f_code.co_filename == fractions.__file__:
            seen.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        z = x * y
    finally:
        sys.setprofile(None)
    assert seen == []
    assert z.coords == _oracle_mul(k.min_poly, x.coords, y.coords)


@pytest.mark.parametrize("m", [5, 7, 12, 23])
def test_power_basis_table_matches_reduction_mod_f(m):
    k = cyclotomic_field(m)
    n = k.degree
    for i in range(n):
        for j in range(n):
            power = [0] * (i + j) + [1]
            assert list(k.mult_table[i][j]) == k._reduce_poly(power)
    assert k.one().num == (1,) + (0,) * (n - 1)


def test_make_field_skips_factoring_for_cyclotomic_and_quadratic(monkeypatch):
    def refuse(_):
        raise AssertionError("factored over Z")

    monkeypatch.setattr(pt, "factor_z", refuse)
    assert make_field(pt.cyclotomic(23)).root_of_unity_order == 23
    assert make_field([3, 1, 1]).degree == 2
    with pytest.raises(ReduciblePolynomial):
        make_field([-4, 0, 1])


def _fraction_solve(rows, target):
    """The x with sum_k x_k rows[k] = target, by Gauss-Jordan over Q."""
    n = len(rows)
    a = [[Fraction(rows[k][i]) for k in range(n)] + [Fraction(target[i])] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            f = a[i][c]
            if i != c and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n] for row in a]


MULT_TABLE_FIELDS = {
    # d = 1 mod 4: the basis (1, (1 + theta)/2)
    "sqrt5": lambda: quadratic_field(5),
    "sqrt-15": lambda: quadratic_field(-15),
    # d != 1 mod 4: the power basis, and a user basis (1, 1 + theta)
    "sqrt-5": lambda: quadratic_field(-5),
    "sqrt-5_basis": lambda: make_field([5, 0, 1], basis=[[1, 0], [1, 1]]),
    "sqrt10": lambda: quadratic_field(10),
    "sqrt-5_zeta3": lambda: composite_field(quadratic_field(-5), cyclotomic_field(3))[0],
    "cubic_basis": lambda: ELEMENT_FIELDS[-1],
    # a closed basis of a non-maximal order
    "Z[2sqrt-2]": lambda: make_field([2, 0, 1], basis=[[1, 0], [0, 2]]),
}


@pytest.mark.parametrize("name", sorted(MULT_TABLE_FIELDS))
def test_integer_mult_table_matches_a_fraction_reference(name):
    k = MULT_TABLE_FIELDS[name]()
    b, n = k.basis, k.degree
    for i in range(n):
        for j in range(n):
            entry = k.mult_table[i][j]
            assert all(type(x) is int for x in entry)
            assert list(entry) == _fraction_solve(b, _oracle_mul(k.min_poly, b[i], b[j]))
    assert list(k.one().num) == _fraction_solve(b, [1] + [0] * (n - 1))


@pytest.mark.parametrize("basis, message", [
    ([[1, 0], [0, Fraction(1, 2)]], "basis element product b1*b1 is not an integral"),
    ([[2, 0], [0, 1]], "1 is not in the span of the basis"),
])
def test_a_basis_not_closed_is_rejected(basis, message):
    with pytest.raises(BasisNotClosed, match=message.replace("*", r"\*")):
        make_field([1, 0, 1], basis=basis)
