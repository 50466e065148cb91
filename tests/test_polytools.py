import random
from fractions import Fraction

import pytest

from sl2tate import polytools as pt


def test_poly_mul_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(30):
        p = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
        q = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        quot, rem = pt.poly_divmod(pt.poly_add(pt.poly_mul(p, q), [Fraction(1)]), q)
        # p*q + 1 = quot*q + rem
        lhs = pt.poly_add(pt.poly_mul(quot, q), rem)
        assert lhs == pt.poly_add(pt.poly_mul(p, q), [Fraction(1)])


def test_resultant_and_discriminant():
    # disc(x^2 + bx + c) = b^2 - 4c
    assert pt.discriminant([3, 1, 1]) == 1 - 12
    assert pt.discriminant([-1, 0, 1]) == 4
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    for p, q in [(1, 1), (-2, 3), (5, -1)]:
        assert pt.discriminant([q, p, 0, 1]) == -4 * p**3 - 27 * q**2
    # resultant of x - a and x - b is a - b
    assert pt.resultant([-2, 1], [-5, 1]) == 2 - 5


def test_cyclotomic():
    assert pt.cyclotomic(3) == [1, 1, 1]
    assert pt.cyclotomic(4) == [1, 0, 1]
    assert pt.cyclotomic(23) == [1] * 23
    assert pt.degree(pt.cyclotomic(23)) == 22
    # memoised, but every caller gets its own list
    phi = pt.cyclotomic(12)
    phi.append(5)
    assert pt.cyclotomic(12) == [1, 0, -1, 0, 1]


def test_euler_phi_matches_sympy():
    import sympy

    # the range _cyclo_candidates(22) scans
    assert [pt.euler_phi(m) for m in range(1, 3875)] == \
        [int(sympy.totient(m)) for m in range(1, 3875)]


def test_cos_minpoly_small_cases():
    # 2cos(2pi/3) = -1
    assert pt.cos_minpoly(3) == [1, 1]
    # 2cos(2pi/5) = (-1+sqrt5)/2, a root of x^2 + x - 1
    assert pt.cos_minpoly(5) == [-1, 1, 1]
    # x^3 + x^2 - 2x - 1 for ell = 7
    assert pt.cos_minpoly(7) == [-1, -2, 1, 1]
    # degree (ell-1)/2 in general, and 2cos(2pi/ell) is numerically a root
    import math

    for ell in (11, 13, 23):
        mp = pt.cos_minpoly(ell)
        assert pt.degree(mp) == (ell - 1) // 2
        val = pt.poly_eval(mp, 2 * math.cos(2 * math.pi / ell))
        assert abs(val) < 1e-8


def test_sturm_real_root_counts():
    assert pt.sturm_real_roots([-2, 0, 1]) == 2  # x^2 - 2
    assert pt.sturm_real_roots([2, 0, 1]) == 0  # x^2 + 2
    assert pt.sturm_real_roots([0, -1, 0, 1]) == 3  # x^3 - x
    assert pt.sturm_real_roots(pt.cyclotomic(23)) == 0
    assert pt.sturm_real_roots(pt.cos_minpoly(23)) == 11


def test_factor_mod_p():
    # x^2 + 1 mod 5 = (x+2)(x+3)
    factors = pt.factor_mod_p([1, 0, 1], 5)
    assert sorted(f for f, _ in factors) == [[2, 1], [3, 1]]
    # cyclotomic(23) mod 23 = (x - 1)^22
    factors = pt.factor_mod_p(pt.cyclotomic(23), 23)
    assert factors == [([22, 1], 22)]


def test_fundamental_discriminant():
    assert pt.fundamental_discriminant(-4) == (-4, 1)
    assert pt.fundamental_discriminant(-3) == (-3, 1)
    assert pt.fundamental_discriminant(-12) == (-3, 2)
    assert pt.fundamental_discriminant(-8) == (-8, 1)
    assert pt.fundamental_discriminant(40) == (40, 1)
    assert pt.fundamental_discriminant(45) == (5, 3)


def test_squarefree_decompose():
    assert pt.squarefree_decompose(-12) == (-3, 2)
    assert pt.squarefree_decompose(18) == (2, 3)
    assert pt.squarefree_decompose(7) == (7, 1)


def test_irreducibility():
    assert pt.is_irreducible_z([1, 1, 1])
    assert not pt.is_irreducible_z([-1, 0, 1])
    assert pt.is_irreducible_z([-2, 0, 1])
