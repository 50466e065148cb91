import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sl2tate import polytools as pt
from sl2tate.errors import UnsupportedCase
from sl2tate.numberfield import composite_field, cyclotomic_field, quadratic_field

X = sympy.Symbol("x")


def sympy_poly(coeffs, **options):
    return sympy.Poly(sum(int(c) * X**i for i, c in enumerate(coeffs)), X, **options)


def constant_first(poly) -> list[int]:
    return [int(c) for c in reversed(poly.all_coeffs())]


def product(factors) -> list[int]:
    out = [1]
    for f in factors:
        out = pt.poly_mul(out, f)
    return out


def _field_rings():
    """name -> (random coefficient, random nonzero coefficient, divmod, gcd,
    normal form) for Q, F_p and two number fields."""
    rings = {"Q": (lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                   lambda rng: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)),
                   pt.poly_divmod, pt.poly_gcd, Fraction)}
    for p in (2, 3, 7):
        rings[f"F_{p}"] = (lambda rng, p=p: rng.randrange(p),
                           lambda rng, p=p: rng.randrange(1, p),
                           lambda a, b, p=p: pt._divmod_mod(a, b, p),
                           lambda a, b, p=p: pt._gcd_mod(a, b, p),
                           lambda c, p=p: c % p)
    for k in (quadratic_field(-5), composite_field(quadratic_field(-5), cyclotomic_field(3))[0]):
        ring = k.poly_ring()

        def coeff(rng, k=k):
            return k.from_basis_coords([rng.randint(-3, 3) for _ in range(k.degree)],
                                       rng.randint(1, 2))

        def nonzero(rng, coeff=coeff):
            c = coeff(rng)
            while not c:
                c = coeff(rng)
            return c

        rings[k.label] = (coeff, nonzero, lambda a, b, ring=ring: pt.divmod_over(a, b, *ring),
                          lambda a, b, ring=ring: pt.gcd_over(a, b, *ring), ring[1])
    return rings


def test_poly_mul_divmod_roundtrip():
    for name, (coeff, nonzero, divmod_, gcd, normal) in _field_rings().items():
        rng = random.Random(1)

        def poly(deg):
            return [coeff(rng) for _ in range(deg)] + [nonzero(rng)]

        def is_zero(p):
            return not pt.trim([normal(c) for c in p])

        for _ in range(30):
            p, q = poly(rng.randint(0, 5)), poly(rng.randint(0, 3))
            quot, rem = divmod_(p, q)
            # p = quot * q + rem with deg rem < deg q
            assert len(rem) < len(q), name
            assert is_zero(pt.poly_add(pt.poly_add(pt.poly_mul(quot, q), rem), pt.poly_neg(p))), name
            # the gcd of p c and q c is monic and a multiple of c dividing both
            c = poly(rng.randint(0, 2))
            a, b = pt.poly_mul(p, c), pt.poly_mul(q, c)
            g = gcd(a, b)
            assert normal(g[-1]) == normal(1) and len(g) >= len(c), name
            assert is_zero(divmod_(a, g)[1]) and is_zero(divmod_(b, g)[1]), name


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
    # the range _cyclo_candidates(22) scans
    assert pt.totients(3874) == [0] + [int(sympy.totient(m)) for m in range(1, 3875)]


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


# ---------------------------------------------------------------------------
# the exact core against sympy as an oracle


def test_is_prime_matches_sympy_below_1e5():
    assert [n for n in range(10**5 + 1) if pt.is_prime(n)] == \
        list(sympy.primerange(0, 10**5 + 1))


@pytest.mark.parametrize("n", [
    3215031751,                    # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,           # ... to every prime base up to 23
    318665857834031151167461,      # ... to every prime base up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not pt.is_prime(n)


def test_is_prime_is_exact_or_refuses():
    assert pt.is_prime(2**61 - 1) and pt.is_prime(10**24 + 7)
    with pytest.raises(UnsupportedCase):
        pt.is_prime(2**89 - 1)  # prime, but past the deterministic bound
    assert not pt.is_prime(2**89)  # a base divides it: still exact


def test_divisors_match_sympy():
    for n in range(1, 2000):
        assert pt.divisors(n) == sympy.divisors(n)


def test_cyclotomic_matches_sympy_up_to_400():
    for m in range(1, 401):
        assert pt.cyclotomic(m) == constant_first(sympy.cyclotomic_poly(m, X, polys=True)), m


def test_kronecker_and_sqrt_mod():
    for p in (2, 3, 5, 7, 13, 17, 97, 257, 65537):
        squares = {x * x % p for x in range(p)}
        for a in range(-40, 40):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            if p == 2:
                expected = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            assert pt.kronecker(a, p) == expected
            if p > 2 and expected >= 0:
                r = pt.sqrt_mod(a, p)
                assert r * r % p == a % p


@pytest.mark.parametrize("d", [-7, -5, -3, -2, -1, 2, 3, 5, 13, 21])
def test_dedekind_criterion_on_square_roots(d):
    # Z[sqrt d], d squarefree, has index 2 in the maximal order exactly when
    # d = 1 mod 4, and is p-maximal at every odd p
    f = [-d, 0, 1]
    for p in (2, 3, 5, 7):
        assert pt.dedekind_criterion(f, pt.factor_mod_p(f, p), p) == (p != 2 or d % 4 != 1)


def sympy_factor_mod_p(coeffs, p):
    _, factors = sympy_poly(coeffs, modulus=p, symmetric=False).factor_list()
    return sorted(([c % p for c in constant_first(f)], int(k)) for f, k in factors)


monic_factors = st.lists(st.integers(0, 40), min_size=0, max_size=4).map(lambda c: c + [1])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 23, 101, 1000003)),
       st.lists(st.tuples(monic_factors, st.sampled_from((1, 1, 2, 3))),
                min_size=1, max_size=4),
       st.booleans())
def test_factor_mod_p_matches_sympy(p, parts, pth_power):
    # repeated factors, and p-th powers (f' = 0 mod p) when pth_power is set
    f = product(fac for fac, k in parts for _ in range(k * (p if pth_power and p < 6 else 1)))
    if len(pt._mod(f, p)) < 2:
        return
    assert pt.factor_mod_p(f, p) == sympy_factor_mod_p(f, p)


@pytest.mark.parametrize("f, p", [
    (pt.cyclotomic(23), 23),          # (x - 1)^22: p divides the discriminant
    (pt.cyclotomic(9), 3),            # (x - 1)^6
    ([1, 0, 0, 0, 1], 2),             # (x + 1)^4: a 2nd power, f' = 0
    ([5, 0, 1], 5),                   # x^2
    (product([[1, 1]] * 7 + [[2, 0, 1]] * 2), 7),   # (x+1)^7 (x^2+2)^2
    ([1, 0, -10, 0, 1], 2), ([1, 0, -10, 0, 1], 3), ([1, 0, -10, 0, 1], 13),
])
def test_factor_mod_p_hard_cases(f, p):
    assert pt.factor_mod_p(f, p) == sympy_factor_mod_p(f, p)


def sympy_factor_z(coeffs):
    _, factors = sympy.factor_list(sympy_poly(coeffs))
    return [(constant_first(f), int(k)) for f, k in factors]


# x^4 + 1 and x^4 - 10x^2 + 1 are reducible mod every prime but irreducible
# over Q, so only recombination of the lifted factors finds them
SWINNERTON_DYER = ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1])
integer_factors = st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.sampled_from((1, 1, 1, 2, 3, -1, -2))).map(lambda t: t[0] + [t[1]])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(integer_factors, st.sampled_from((1, 1, 2))), max_size=3),
       st.lists(st.sampled_from(SWINNERTON_DYER), max_size=2),
       st.sampled_from((1, -1, 6)))
def test_factor_z_matches_sympy_in_order(parts, hard, content):
    f = pt.poly_scale(product([fac for fac, k in parts for _ in range(k)] + hard), content)
    if len(f) < 2:
        return
    assert pt.factor_z(f) == sympy_factor_z(f)


@pytest.mark.parametrize("f", [
    SWINNERTON_DYER[0], SWINNERTON_DYER[1], product(SWINNERTON_DYER),
    product([SWINNERTON_DYER[1]] * 2 + [[1, 2]]),
    [-1, 0, 0, 0, 0, 0, 0, 0, 1],                 # x^8 - 1
    product([[5, 1], [1, 2], [-1, 0, 3]]),        # ties in degree: order by coefficients
    product([[1, 1], [2, 1], [2, 1]]),            # ties in degree: order by multiplicity
    [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],      # irreducible with lc 2
])
def test_factor_z_hard_cases(f):
    assert pt.factor_z(f) == sympy_factor_z(f)


def test_is_irreducible_z_matches_sympy():
    rng = random.Random(7)
    for _ in range(200):
        f = [rng.randint(-6, 6) for _ in range(rng.randint(2, 6))] + [1]
        assert pt.is_irreducible_z(f) == sympy_poly(f, domain="QQ").is_irreducible, f


def test_interpolate_recovers_a_polynomial():
    f = [Fraction(3, 4), -2, 0, Fraction(1, 3), 5]
    assert pt.interpolate([pt.poly_eval(f, t) for t in range(5)]) == f


@pytest.mark.parametrize("f", [
    [1, 1, 1], [-2, 0, 1], [1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [-1, -2, 1, 1],
    pt.cyclotomic(23), pt.cyclotomic(46), pt.cos_minpoly(23), [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
    [7, 1, 2] + [0] * 12 + [-3, 1],
])
def test_complex_roots_match_nroots(f):
    roots = pt.complex_roots(f)
    expected = [complex(r) for r in sympy_poly(f).nroots(n=30)]
    assert len(roots) == len(expected)
    for r in expected:
        assert min(abs(r - z) for z in roots) < 1e-9
    for z in roots:
        assert min(abs(r - z) for r in expected) < 1e-9


def test_power_squares_only_while_higher_bits_remain():
    # one squaring per bit below the top, one product per further set bit
    calls = []

    def mul(a, b):
        calls.append(1)
        return a * b

    for e in range(1, 70):
        calls.clear()
        assert pt.power(3, e, mul) == 3**e
        assert len(calls) == e.bit_length() + bin(e).count("1") - 2
    with pytest.raises(ValueError):
        pt.power(3, 0)
