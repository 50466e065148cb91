import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2tate import ideals
from sl2tate.errors import ConsistencyFailure, SearchExhausted
from sl2tate.ideals import (
    FractionalIdeal,
    box_lines,
    factor_rational_prime,
    find_root,
    principal_generator,
    search_elements,
    sqrt_in_field,
)
from sl2tate.intlinalg import IntMatrix, combine_rows, hnf_solve
from sl2tate.numberfield import (
    NFElement,
    NumberField,
    composite_field,
    cyclotomic_field,
    make_field,
    quadratic_field,
)
from sl2tate import polytools as pt
from sl2tate.polytools import cos_minpoly


def test_unit_ideal_and_principal():
    k = quadratic_field(-1)
    o = FractionalIdeal.unit(k)
    assert o.norm() == 1
    two = FractionalIdeal.principal(k, k.rational(2))
    assert two.norm() == 4
    # containment as I + J = I
    assert o + two == o
    assert two + o != two
    # (1+i)^2 = 2i, so ((1+i))^2 = (2)
    p = FractionalIdeal.principal(k, k.element([1, 1]))
    assert p * p == two
    assert p.norm() == 2


def test_ideal_inverse_and_colon():
    k = quadratic_field(-5)
    # (2, 1+sqrt(-5)) is the classical nonprincipal prime over 2
    p2 = FractionalIdeal.from_generators(k, [k.rational(2), k.element([1, 1])])
    assert p2.norm() == 2
    inv = p2.inverse()
    assert p2 * inv == FractionalIdeal.unit(k)
    assert (inv * p2).norm() == 1
    # p2^2 = (2)
    assert p2 * p2 == FractionalIdeal.principal(k, k.rational(2))


def test_contains_coords_agrees_with_contains():
    # oracle: el lies in I exactly when I + (el) = I
    rng = random.Random(7)
    for d, p in ((-5, 2), (-5, 3), (-1, 5), (-14, 3)):
        k = quadratic_field(d)
        for pr in factor_rational_prime(k, p):
            for e in (1, 2, 3):
                ideal = pr.ideal ** e
                members = [[sum(c * x for c, x in zip(cs, col))
                            for col in zip(*ideal.num.entries)]
                           for cs in ([rng.randint(-3, 3) for _ in range(2)]
                                      for _ in range(10))]
                others = [[Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3)))
                           for _ in range(2)] for _ in range(20)]
                for coords in members + others:
                    el = k.from_basis_coords(coords)
                    inside = ideal.contains_coords(coords)
                    assert inside == ideal.contains(el)
                    if coords in members:
                        assert inside
                    if not el.is_zero():
                        principal = FractionalIdeal.principal(k, el)
                        assert inside == (ideal + principal == ideal)


# ideal arithmetic in integer coordinates against an oracle that multiplies
# Fraction field elements and clears denominators at the end
IDEAL_FIELDS = (
    quadratic_field(-5),
    quadratic_field(5),
    cyclotomic_field(7),
    composite_field(quadratic_field(-5), cyclotomic_field(3))[0],
)


def _oracle_ideal(field, elements):
    """The lattice spanned by the given field elements."""
    rows = [el.basis_coords() for el in elements]
    den = lcm(*(x.denominator for r in rows for x in r))
    return FractionalIdeal(field, IntMatrix.from_rows(
        [[int(x * den) for x in r] for r in rows]), den)


@st.composite
def _ideals(draw, field):
    """A fractional ideal with one or two small generators, and the Fraction
    elements spanning it as a lattice."""
    n = field.degree
    den = draw(st.sampled_from((1, 2, 3, 4, 6)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        coords = [Fraction(draw(st.integers(-4, 4)), den) for _ in range(n)]
        gens.append(field.from_basis_coords(coords))
    assume(any(not g.is_zero() for g in gens))
    span = [g * field.basis_element(i) for g in gens for i in range(n)]
    return gens, span


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_ideal_arithmetic_matches_fraction_oracle(data):
    field = data.draw(st.sampled_from(IDEAL_FIELDS))
    gens_a, span_a = data.draw(_ideals(field))
    gens_b, span_b = data.draw(_ideals(field))
    a = FractionalIdeal.from_generators(field, gens_a)
    b = FractionalIdeal.from_generators(field, gens_b)
    assert a == _oracle_ideal(field, span_a)
    assert b == _oracle_ideal(field, span_b)
    products = [x * y for x in a.basis_elements() for y in b.basis_elements()]
    assert a * b == _oracle_ideal(field, products)
    assert a + b == _oracle_ideal(field, a.basis_elements() + b.basis_elements())


def test_ideal_arithmetic_makes_no_element_products(monkeypatch):
    field = IDEAL_FIELDS[3]
    p, q = factor_rational_prime(field, 2)[0].ideal, factor_rational_prime(field, 3)[0].ideal
    calls = []
    mul = NFElement.__mul__
    monkeypatch.setattr(NFElement, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    prod = p * q ** 2
    assert (prod + p) * p.inverse() == FractionalIdeal.unit(field)
    assert calls == []
    assert prod.norm() == p.norm() * q.norm() ** 2


def test_fractional_normalization():
    k = quadratic_field(-1)
    half = FractionalIdeal.principal(k, k.element([Fraction(1, 2)]))
    assert half.norm() == Fraction(1, 4)
    assert half * FractionalIdeal.principal(k, k.rational(2)) == FractionalIdeal.unit(k)


def test_factor_split_inert_ramified():
    k = quadratic_field(-1)
    split = factor_rational_prime(k, 5)
    assert [(pr.e, pr.f) for pr in split] == [(1, 1), (1, 1)]
    assert split[0].ideal != split[1].ideal
    inert = factor_rational_prime(k, 3)
    assert [(pr.e, pr.f) for pr in inert] == [(1, 2)]
    ram = factor_rational_prime(k, 2)
    assert [(pr.e, pr.f) for pr in ram] == [(2, 1)]


def test_factor_uses_maximal_order_not_power_basis():
    # 2 is split in Q(sqrt(-7)); the power basis Z[sqrt(-7)] has index 2,
    # so this only works through the omega generator
    k = quadratic_field(-7)
    primes = factor_rational_prime(k, 2)
    assert [(pr.e, pr.f) for pr in primes] == [(1, 1), (1, 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(-90, 90), st.sampled_from((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
def test_quadratic_primes_from_the_kronecker_symbol_match_kummer_dedekind(d, p):
    assume(d not in (0, 1) and pt.squarefree_decompose(d)[1] == 1)
    k = quadratic_field(d)
    # theta = sqrt(d) has index 2 when d = 1 mod 4
    g = k.basis_element(1) if p == 2 and d % 4 == 1 else k.gen()
    min_poly = [int(g.norm()), -int(g.trace()), 1]
    expected = ideals._kummer_dedekind(k, p, g, min_poly)
    assert factor_rational_prime(k, p) == expected


def test_quadratic_primes_fall_back_when_p_divides_the_index():
    # the basis (1 + i, 2 + 3i) spans Z[i], but Z[2 + 3i] has index 3 in it
    k = make_field([1, 0, 1], basis=[[1, 1], [2, 3]])
    for p in (2, 3, 5, 7):
        primes = factor_rational_prime(k, p)
        prod = FractionalIdeal.unit(k)
        for pr in primes:
            prod = prod * pr.ideal ** pr.e
        assert prod == FractionalIdeal.principal(k, k.rational(p))
    assert [(pr.e, pr.f) for pr in factor_rational_prime(k, 3)] == [(1, 2)]


def test_factor_common_index_divisor_splits_the_algebra(monkeypatch):
    # 2 splits in Q(sqrt(-7)) and is inert in Q(zeta_3): above 2 in the
    # compositum lie two primes of residue degree 2, but F_2 has a single
    # irreducible quadratic, so no generator works and O/2O is split directly
    L, _, _ = composite_field(quadratic_field(-7), cyclotomic_field(3))
    calls = []
    split = ideals._factor_by_algebra_splitting
    monkeypatch.setattr(ideals, "_factor_by_algebra_splitting",
                        lambda field, p: calls.append(p) or split(field, p))
    primes = factor_rational_prime(L, 2)
    assert calls == [2]
    assert [(pr.e, pr.f) for pr in primes] == [(1, 2), (1, 2)]
    assert primes[0].ideal != primes[1].ideal
    assert primes[0].ideal * primes[1].ideal == \
        FractionalIdeal.principal(L, L.rational(2))


# fields for the closed forms below: quadratic, cyclotomic and K(zeta_3)
SPLITTING_FIELDS = (
    [quadratic_field(d) for d in (-1, -2, -5, -7, -14, -23, 2, 3, 5, 13)]
    + [cyclotomic_field(m) for m in (3, 4, 5, 7, 8, 12)]
    + [composite_field(quadratic_field(d), cyclotomic_field(3))[0]
       for d in (-14, -5, -2, -1, 2, 5)])


def _sympy_kummer_dedekind(field, p, g):
    """Kummer-Dedekind on g when sympy puts its index [O : Z[g]] prime to
    p, else None: the characteristic polynomial of g, its discriminant
    disc(g) = index^2 disc(K) and its factors mod p all come from sympy
    (_kummer_dedekind factors it with factor_mod_p, whose splitting of the
    Frobenius-fixed algebra is the one under test, so those factors are
    checked against sympy's first)."""
    import sympy
    x = sympy.Symbol("x")
    char = sympy.Matrix(field.int_mult_rows(list(g.num))).charpoly(x)
    index_sq, rest = divmod(int(sympy.discriminant(char.as_expr(), x)), field.discriminant)
    assert rest == 0
    if index_sq % p == 0:
        return None
    factors = [([int(c) % p for c in h.all_coeffs()[::-1]], mult)
               for h, mult in sympy.Poly(char.as_expr(), x, modulus=p).factor_list()[1]]
    char = [int(c) for c in char.all_coeffs()[::-1]]
    assert pt.factor_mod_p(char, p) == sorted(factors)
    return ideals._kummer_dedekind(field, p, g, char)


def test_idempotent_splitting_matches_kummer_dedekind():
    # the primes from the idempotents of O/pO against Kummer-Dedekind for
    # every p < 40: on theta where p does not divide [O : Z[theta]], else on
    # the first of b_1, ..., b_(n-1) and their pairwise sums whose index
    # sympy finds prime to p
    split, index_primes, no_generator = ideals._factor_by_algebra_splitting, [], []
    for field in SPLITTING_FIELDS:
        basis = [field.basis_element(i) for i in range(1, field.degree)]
        candidates = basis + [a + b for a, b in itertools.combinations(basis, 2)]
        for p in range(2, 40):
            if not pt.is_prime(p):
                continue
            if field.power_basis_index % p:
                expected = ideals._kummer_dedekind(field, p, field.gen(), field.min_poly)
            else:
                index_primes.append((field.label, p))
                expected = next(filter(None, (_sympy_kummer_dedekind(field, p, g)
                                              for g in candidates)), None)
                if expected is None:
                    no_generator.append((field.label, p))
                    continue
            assert split(field, p) == expected == factor_rational_prime(field, p)
    assert index_primes == [
        ("Q(sqrt(-7))", 2), ("Q(sqrt(-23))", 2), ("Q(sqrt(5))", 2), ("Q(sqrt(13))", 2),
        ("(Q(sqrt(-5)))(Q(zeta_3))", 17), ("(Q(sqrt(-2)))(Q(zeta_3))", 5),
        ("(Q(sqrt(2)))(Q(zeta_3))", 11), ("(Q(sqrt(5)))(Q(zeta_3))", 2),
        ("(Q(sqrt(5)))(Q(zeta_3))", 23)]
    # 2 is inert in both Q(sqrt(5)) and Q(zeta_3): two primes of degree 2
    # and one irreducible quadratic mod 2, so no generator has odd index
    assert no_generator == [("(Q(sqrt(5)))(Q(zeta_3))", 2)]
    assert [(pr.e, pr.f) for pr in split(SPLITTING_FIELDS[-1], 2)] == [(1, 2), (1, 2)]


def test_splitting_an_order_that_is_not_maximal_at_2():
    # Z[2 cbrt 2] = Z + Z 2 theta + Z 4 theta^2 does not contain theta; it is
    # p-maximal at every odd p, where its primes are those of x^3 - 2 mod p,
    # and at p = 2 the valuation of 2 at the prime (2, 2 theta) never ends
    import sympy
    x = sympy.Symbol("x")
    k = make_field([-2, 0, 0, 1], basis=[[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    assert k.power_basis_index is None
    for p in (3, 5, 7, 11, 13):
        factors = sympy.Poly(x**3 - 2, x, modulus=p).factor_list()[1]
        assert sorted((pr.e, pr.f) for pr in factor_rational_prime(k, p)) == \
            sorted((mult, h.degree()) for h, mult in factors)
    with pytest.raises(ConsistencyFailure, match="not 2-maximal"):
        factor_rational_prime(k, 2)


def test_kummer_dedekind_rejects_a_power_order_that_is_not_p_maximal():
    # Z[theta] with theta^7 = 384 = 2^7 * 3 has index 1 in itself but is not
    # 2-maximal (theta / 2 is integral): Dedekind's criterion fails at 2,
    # where Kummer-Dedekind alone gave one prime with e = 7 whose valuations
    # never ended.  At 3 (Eisenstein) and 5 the criterion holds
    k = make_field([-384, 0, 0, 0, 0, 0, 0, 1],
                   basis=[[int(i == j) for j in range(7)] for i in range(7)])
    assert k.power_basis_index == 1
    with pytest.raises(ConsistencyFailure, match="not 2-maximal"):
        factor_rational_prime(k, 2)
    for p, expected in ((3, [(7, 1)]), (5, [(1, 1), (1, 6)])):
        primes = factor_rational_prime(k, p)
        assert [(pr.e, pr.f) for pr in primes] == expected
        assert FractionalIdeal.product(k, ((pr.ideal, pr.e) for pr in primes)) == \
            FractionalIdeal.principal(k, k.rational(p))


def test_idempotent_splitting_needs_no_basis_starting_with_1():
    # the basis (1 + i, 2 + 3i) of Z[i]: 1 = 3(1 + i) - (2 + 3i)
    k = make_field([1, 0, 1], basis=[[1, 1], [2, 3]])
    for p in (2, 3, 5, 13):
        primes = ideals._factor_by_algebra_splitting(k, p)
        assert primes == factor_rational_prime(k, p)
    assert [(pr.e, pr.f) for pr in ideals._factor_by_algebra_splitting(k, 2)] == [(2, 1)]


INVERSE_FIELDS = (
    quadratic_field(-5), quadratic_field(5), quadratic_field(-14),
    cyclotomic_field(5), cyclotomic_field(7),
    composite_field(quadratic_field(-5), cyclotomic_field(3))[0],
    composite_field(quadratic_field(2), cyclotomic_field(3))[0],
)


def _prime_inverse(field, pr):
    """P^-1 = (1/p) P^(e-1) prod_{Q != P} Q^e(Q), from (p) = prod Q^e(Q),
    by multiplication alone."""
    others = [(q.ideal, q.e - (q is pr)) for q in factor_rational_prime(field, pr.p)]
    return FractionalIdeal.product(field, others) * FractionalIdeal.principal(
        field, field.rational(Fraction(1, pr.p)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inverse_through_the_trace_dual(data):
    field = data.draw(st.sampled_from(INVERSE_FIELDS))
    primes = [pr for p in (2, 3, 5, 7) for pr in factor_rational_prime(field, p)]
    chosen = data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3,
                                unique_by=lambda pr: pr.ideal.num.entries))
    exps = [data.draw(st.integers(-2, 3)) for _ in chosen]
    ideal = inverse = FractionalIdeal.unit(field)
    for pr, e in zip(chosen, exps):
        pinv = _prime_inverse(field, pr)
        ideal = ideal * (pr.ideal if e > 0 else pinv) ** abs(e)
        inverse = inverse * (pinv if e > 0 else pr.ideal) ** abs(e)
    assert ideal.inverse() == inverse
    assert ideal * ideal.inverse() == FractionalIdeal.unit(field)
    # the dual pairs to integers under the trace and has the inverse norm
    # times 1/|disc|
    dual = ideal.dual()
    assert dual.norm() == 1 / (ideal.norm() * abs(field.discriminant))
    assert all((x * y).trace().denominator == 1
               for x in ideal.basis_elements() for y in dual.basis_elements())


def test_factor_23_in_cyclotomic_23():
    k = cyclotomic_field(23)
    primes = factor_rational_prime(k, 23)
    assert len(primes) == 1
    assert primes[0].e == 22 and primes[0].f == 1
    # the prime above 23 is (1 - zeta)
    lam = k.one() - k.gen()
    assert primes[0].ideal == FractionalIdeal.principal(k, lam)


def test_valuation():
    k = quadratic_field(-1)
    p = factor_rational_prime(k, 2)[0]
    el = k.element([1, 1])  # 1 + i
    ideal = FractionalIdeal.principal(k, el * el * k.rational(3))
    assert ideal.valuation(p) == 2
    q = factor_rational_prime(k, 3)[0]
    assert ideal.valuation(q) == 1
    inv = ideal.inverse()
    assert inv.valuation(p) == -2


# v_P through the anti-uniformizer against containment in powers of P; the
# primes above 2 in Q(sqrt(-7))(zeta_3) come from splitting O/2O
VALUATION_CASES = (
    (quadratic_field(-1), (2, 3, 5)),
    (quadratic_field(-5), (2, 3, 5)),
    (quadratic_field(5), (2, 3, 5)),
    (composite_field(quadratic_field(-5), cyclotomic_field(3))[0], (2, 3, 5)),
    (composite_field(quadratic_field(-7), cyclotomic_field(3))[0], (2,)),
)


def _p_adic(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _containment_valuation(ideal, pr):
    """v_P(I) as the largest k with P^k containing m*I, less v_P(m) = 3e,
    where m = 30^3 makes every ideal drawn below integral."""
    j = ideal * FractionalIdeal.principal(ideal.field, ideal.field.rational(30 ** 3))
    assert j.den == 1
    k, power = 0, pr.ideal
    while power + j == power:
        k, power = k + 1, power * pr.ideal
    return k - 3 * pr.e


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_valuation_matches_containment_in_prime_powers(data):
    field, rational = data.draw(st.sampled_from(VALUATION_CASES))
    primes = [pr for p in rational for pr in factor_rational_prime(field, p)]
    ideal = FractionalIdeal.unit(field)
    for pr in primes:
        ideal = ideal * pr.ideal ** data.draw(st.integers(-2, 2))
    den = data.draw(st.sampled_from((1, 2, 3, 6)))
    coords = [Fraction(data.draw(st.integers(-3, 3)), den) for _ in range(field.degree)]
    assume(any(coords))
    ideal = ideal * FractionalIdeal.principal(field, field.from_basis_coords(coords))
    for pr in primes:
        assert ideal.valuation(pr) == _containment_valuation(ideal, pr)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_valuations_add_up_to_the_norm_valuation(data):
    # sum over P | p of f_P v_P(x) = v_p(N(x)) for integral x
    field, rational = data.draw(st.sampled_from(VALUATION_CASES))
    scale = data.draw(st.sampled_from((1, 2, 4, 6, 15)))
    coords = [scale * data.draw(st.integers(-20, 20)) for _ in range(field.degree)]
    assume(any(coords))
    nrm = abs(field.norm_of_int_coords(coords))
    for p in rational:
        assert sum(pr.f * pr.valuation_coords(coords)
                   for pr in factor_rational_prime(field, p)) == _p_adic(nrm, p)


def test_search_elements_yields_integer_coords_and_integer_norms():
    # den > 1 through the inverse; degree 6 takes the determinant norm
    k = quadratic_field(-5)
    p2 = factor_rational_prime(k, 2)[0].ideal
    c7 = cyclotomic_field(7)
    for ideal in (p2, p2.inverse(), factor_rational_prime(c7, 7)[0].ideal):
        n = ideal.field.degree
        for coords, nrm in itertools.islice(search_elements(ideal, 0, 2), 40):
            assert type(coords) is list and all(type(c) is int for c in coords)
            # the integer N(den * x)
            assert type(nrm) is int
            el = ideal.field.from_basis_coords([Fraction(c, ideal.den) for c in coords])
            assert ideal.contains(el) and el.norm() == Fraction(nrm, ideal.den ** n)


def _box_shell(n, inner, outer):
    """The walk box_lines replaced: the whole box, less the inner box."""
    for combo in itertools.product(range(-outer, outer + 1), repeat=n):
        if max(map(abs, combo)) > inner:
            yield combo


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_box_lines_walk_the_shell_in_lexicographic_order(n, data):
    outer = data.draw(st.integers(1, 6))
    inner = data.draw(st.integers(0, outer - 1))
    points = [prefix + (t,) for prefix, last in box_lines(n, inner, outer)
              for t in last]
    assert points == list(_box_shell(n, inner, outer))
    assert len(set(points)) == len(points)


QUARTIC = composite_field(quadratic_field(-5), cyclotomic_field(3))[0]
# (field, rational primes whose primes build the ideals, box schedule the
# full reference walk can afford; each box at most twice the one before)
WALK_CASES = (
    (quadratic_field(-5), (2, 3, 5, 7), (1, 2, 3, 5, 8)),
    (quadratic_field(7), (2, 3, 7), (1, 2, 3, 5, 8)),
    (QUARTIC, (2, 3, 5), (1, 2, 3)),
    (cyclotomic_field(7), (2, 7), (1,)),
)


def _random_ideal(data, field, rational):
    """A product of primes above the given rational primes, exponents -1..2,
    so that fractional ideals (den > 1) come up."""
    ideal = FractionalIdeal.unit(field)
    for p in rational:
        for pr in factor_rational_prime(field, p):
            ideal = ideal * pr.ideal ** data.draw(st.integers(-1, 2))
    return ideal


def _full_walk(ideal, boxes):
    """The walk search_elements replaced: every nonzero coefficient vector
    of each shell, both of each +- pair and the non-primitive ones too, with
    the integer coordinates of den * x."""
    prev = 0
    for b in boxes:
        for prefix, last in box_lines(ideal.field.degree, prev, b):
            for t in last:
                yield prefix + (t,), combine_rows(prefix + (t,), ideal.num.entries)
        prev = b


def _fraction_norm(ideal, coords):
    return ideal.field.from_basis_coords(coords, ideal.den).norm()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_search_elements_walks_primitive_negative_points_of_the_shell(data):
    field, rational, boxes = data.draw(st.sampled_from(WALK_CASES))
    ideal = _random_ideal(data, field, rational)
    n = field.degree
    outer = data.draw(st.sampled_from(boxes))
    inner = data.draw(st.sampled_from([b for b in (0,) + boxes if b < outer]))
    got = list(search_elements(ideal, inner, outer))
    vectors = []
    for coords, nrm in got:
        vec = hnf_solve(ideal.num, coords)
        # in the ideal, with the integer norm N(den * x) (a determinant)
        assert vec is not None and type(nrm) is int
        assert nrm == IntMatrix.from_rows(field.int_mult_rows(coords)).det()
        assert inner < max(map(abs, vec)) <= outer
        vectors.append(vec)
    # one of each +- pair, only primitive vectors, in lexicographic order
    assert not {tuple(-c for c in v) for v in vectors} & set(vectors)
    assert all(gcd(*v) == 1 for v in vectors)
    expected = [vec for vec, _ in _full_walk(ideal, (outer,))
                if inner < max(map(abs, vec)) and gcd(*vec) == 1
                and vec < (0,) * n]
    assert vectors == expected


def _reference_first(ideal, boxes, question):
    return next((coords for _, coords in _full_walk(ideal, boxes)
                 if question(_fraction_norm(ideal, coords) / ideal.norm())), None)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_the_walk_gives_the_full_walks_first_answers(data):
    field, rational, boxes = data.draw(st.sampled_from(WALK_CASES))
    ideal = _random_ideal(data, field, rational)
    s_primes = data.draw(st.sampled_from(((), (2,), (2, 3))))
    gen_ps = [p for p in range(2, 30) if pt.is_prime(p)]
    with mock.patch.object(ideals, "BOXES", boxes):
        for primes in (s_primes, gen_ps):
            # the cofactor N(x)/N(I) of a point of I is a positive integer
            assert ideals.smooth_element(ideal, primes) == _reference_first(
                ideal, boxes, lambda r: pt.prime_to(abs(r.numerator), primes) == 1)
    # the least |norm| in box 2 (box 1 in degree 6): the first point of the
    # full walk reaching it
    box = min(2, boxes[-1])
    least = min(search_elements(ideal, 0, box), key=lambda point: abs(point[1]))[0]
    best = None
    for _, coords in _full_walk(ideal, (box,)):
        nrm = _fraction_norm(ideal, coords)
        if best is None or abs(nrm) < abs(best[1]):
            best = (coords, nrm)
    assert least == best[0]


def _accepted_by_ideal_arithmetic(ideal, s_prime_ideals, boxes):
    """principal_generator as it accepted a point before the norm test did:
    (x) * I^-1, stripped of its S-valuations, compared with O (or (x) with
    I when S is empty), over the full walk."""
    rational_s = sorted({pr.p for pr in s_prime_ideals})
    unit = FractionalIdeal.unit(ideal.field)
    for _, coords in _full_walk(ideal, boxes):
        ratio = _fraction_norm(ideal, coords) / ideal.norm()
        if pt.prime_to(abs(ratio.numerator) * ratio.denominator, rational_s) != 1:
            continue
        quot = FractionalIdeal.principal(ideal.field, ideal.field.from_basis_coords(
            coords, ideal.den))
        if s_prime_ideals:
            quot = quot * ideal.inverse()
            for pr in s_prime_ideals:
                quot = quot * pr.ideal ** (-quot.valuation(pr))
            if quot == unit:
                return ideal.field.from_basis_coords(coords, ideal.den)
        elif quot == ideal:
            return ideal.field.from_basis_coords(coords, ideal.den)
    return None


ACCEPTANCE_CASES = (
    (quadratic_field(-5), (2, 3, 5, 7), (1, 2, 3, 5, 8, 13)),
    (QUARTIC, (2, 3, 5), (1, 2, 3)),
    (cyclotomic_field(5), (2, 3, 5, 11), (1, 2, 3)),
)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_principal_generator_accepts_what_ideal_arithmetic_accepts(data):
    field, rational, boxes = data.draw(st.sampled_from(ACCEPTANCE_CASES))
    ideal = _random_ideal(data, field, rational)
    s_primes = data.draw(st.sampled_from(((), (2,), (2, 3))))
    s_prime_ideals = [pr for p in s_primes for pr in factor_rational_prime(field, p)]
    expected = _accepted_by_ideal_arithmetic(ideal, s_prime_ideals, boxes)
    with mock.patch.object(ideals, "BOXES", boxes):
        if expected is None:
            with pytest.raises(SearchExhausted):
                principal_generator(ideal, s_primes)
        else:
            assert principal_generator(ideal, s_primes) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_prime_valuation_of_an_element_matches_its_principal_ideal(data):
    field, _, _ = data.draw(st.sampled_from(ACCEPTANCE_CASES))
    p = data.draw(st.sampled_from((2, 3, 5)))
    den = data.draw(st.sampled_from((1, 2, 3, 4, 5, 6, 25)))
    scale = data.draw(st.sampled_from((1, 2, 3, 5, 10)))
    coords = [Fraction(scale * data.draw(st.integers(-9, 9)), den)
              for _ in range(field.degree)]
    assume(any(coords))
    el = field.from_basis_coords(coords)
    for pr in factor_rational_prime(field, p):
        assert pr.valuation(el) == FractionalIdeal.principal(field, el).valuation(pr)


def test_ideal_product_starts_from_the_first_nonzero_power(monkeypatch):
    k = quadratic_field(-5)
    p2, p3 = (factor_rational_prime(k, p)[0].ideal for p in (2, 3))
    unit = FractionalIdeal.unit(k)
    assert FractionalIdeal.product(k, ()) == unit
    assert FractionalIdeal.product(k, [(p2, 0), (p3, 0)]) == unit
    assert FractionalIdeal.product(k, [(p2, 0), (p3, 2)]) == unit * p3 * p3
    assert FractionalIdeal.product(k, [(p2, -1), (p3, 1)]) == p2.inverse() * p3
    expected = p2 * p3
    calls = []
    mul = FractionalIdeal.__mul__
    monkeypatch.setattr(FractionalIdeal, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    # one product per further factor, none with the unit ideal
    assert FractionalIdeal.product(k, [(p2, 1), (p3, 0), (p3, 1)]) == expected
    assert len(calls) == 1


def test_principal_generator_builds_only_the_accepted_element(monkeypatch):
    k = quadratic_field(-5)
    p3 = factor_rational_prime(k, 3)[0]
    cases = (
        (FractionalIdeal.principal(k, k.element([7, 3])), ()),
        # P3 is not principal, but P3 * P2 is: a generator up to S-units
        (p3.ideal, (2,)),
    )
    for ideal, s_primes in cases:
        yielded, built = [], []
        search, build = ideals.search_elements, NumberField.from_basis_coords

        def counted_search(*args):
            for item in search(*args):
                yielded.append(item)
                yield item

        monkeypatch.setattr(ideals, "search_elements", counted_search)
        monkeypatch.setattr(NumberField, "from_basis_coords",
                            lambda self, c, den=1: built.append((c, den))
                            or build(self, c, den))
        g = principal_generator(ideal, s_primes)
        monkeypatch.undo()
        # every tried candidate but the last failed the norm or ideal test
        assert len(yielded) > 1 and len(built) == 1
        assert built[0] == (yielded[-1][0], ideal.den)
        quot = FractionalIdeal.principal(k, g) * ideal.inverse()
        for pr in (pr for p in s_primes for pr in factor_rational_prime(k, p)):
            quot = quot * pr.ideal ** (-quot.valuation(pr))
        assert quot == FractionalIdeal.unit(k)


def test_principal_generator_search():
    k = quadratic_field(-1)
    el = k.element([2, 1])
    ideal = FractionalIdeal.principal(k, el)
    g = principal_generator(ideal)
    # generator is unique up to units of Z[i]
    assert FractionalIdeal.principal(k, g) == ideal
    with pytest.raises(SearchExhausted):
        # (3, 1+sqrt(-5)) in Q(sqrt(-5)) is not principal
        k5 = quadratic_field(-5)
        bad = FractionalIdeal.from_generators(k5, [k5.rational(3), k5.element([1, 1])])
        principal_generator(bad)


def test_find_root_linear_and_quadratic():
    q = make_field([0, 1])
    r = find_root([q.rational(-6), q.rational(2)], q)  # 2x - 6
    assert r.coords[0] == 3
    # x^2 + 1 has no rational root
    assert find_root([1, 0, 1], q) is None
    # x^2 - 2 over Q(sqrt2)
    k = quadratic_field(2)
    r = find_root([-2, 0, 1], k)
    assert r is not None and (r * r - k.rational(2)).is_zero()


def test_find_root_spec_pair():
    # 2cos(2pi/5) lives in Q(sqrt5) and equals (-1+sqrt5)/2
    k = quadratic_field(5)
    t = find_root(cos_minpoly(5), k)
    assert t is not None
    assert t.coords == (Fraction(-1, 2), Fraction(1, 2))
    # but zeta5 itself does not: T^2 - t T + 1 has no root in Q(sqrt5)
    psi = [k.one(), -t, k.one()]
    assert find_root(psi, k) is None


def test_find_root_cyclotomic_fast_path():
    k = cyclotomic_field(23)
    t = find_root(cos_minpoly(23), k)
    assert t is not None
    z = k.gen()
    assert (t - z - z**22).is_zero()
    psi = [k.one(), -t, k.one()]
    root = find_root(psi, k)
    assert root is not None
    assert (root * root - t * root + k.one()).is_zero()
    assert (root**23 - k.one()).is_zero()


def test_sqrt_in_field():
    k = quadratic_field(-3)
    m3 = k.element([0, 1])  # sqrt(-3) via power basis
    s = sqrt_in_field(m3 * m3)
    assert s is not None and (s * s + k.rational(3)).is_zero()
    assert sqrt_in_field(k.rational(2)) is None


def test_find_root_in_quartic_field():
    from sl2tate.numberfield import composite_field, cyclotomic_field as cf

    k = quadratic_field(-2)
    L, e1, e2 = composite_field(k, cf(3))
    # zeta3 is a root of x^2 + x + 1 inside L
    r = find_root([1, 1, 1], L)
    assert r is not None
    assert (r * r + r + L.one()).is_zero()


# Q(sqrt(-7)) has the integral basis (1, (1 + sqrt(-7))/2), so p = 2 divides a
# basis denominator and gives no residue map
RESIDUE_FIELDS = (
    quadratic_field(-5),
    quadratic_field(-7),
    cyclotomic_field(7),
    IDEAL_FIELDS[3],
    cyclotomic_field(23),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_residue_maps_are_ring_maps(data):
    field = data.draw(st.sampled_from(RESIDUE_FIELDS))
    maps = ideals._residue_maps(field)
    assert len(maps) == ideals.RESIDUE_MAPS
    basis_den = lcm(*(x.denominator for row in field.basis for x in row))
    coords = st.lists(st.integers(-30, 30), min_size=field.degree, max_size=field.degree)
    a = field.from_basis_coords(data.draw(coords))
    b = field.from_basis_coords(data.draw(coords), data.draw(st.sampled_from((1, 2, 3, 5))))
    for p, images in maps:
        assert pt.is_prime(p) and basis_den % p
        phi = lambda x: ideals._residue(x, p, images)
        # theta goes to a root of the minimal polynomial mod p
        assert pt.eval_mod(field.min_poly, phi(field.gen()), p) == 0
        assert phi(field.one()) == 1
        assert phi(a * a) == phi(a) ** 2 % p
        if b.den % p:
            assert phi(a + b) == (phi(a) + phi(b)) % p
            assert phi(a * b) == phi(a) * phi(b) % p
        else:
            assert phi(b) is None


def _poly_with_root(field, rng):
    """(d x - d alpha) h(x) with integral coefficients, alpha with a
    denominator d among the small primes: modulo a prime above d the
    leading coefficient vanishes and alpha has no residue."""
    n = field.degree
    d = rng.choice((1, 2, 3, 6))
    alpha = field.from_basis_coords([rng.randint(-4, 4) for _ in range(n)], d)
    h = [field.from_basis_coords([rng.randint(-3, 3) for _ in range(n)])
         for _ in range(rng.randint(1, 2))] + [field.rational(rng.choice((1, 2, -3)))]
    out = [field.zero()] * (len(h) + 1)
    for i, c in enumerate(h):
        out[i + 1] = out[i + 1] + c * d
        out[i] = out[i] - alpha * c * d
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((RESIDUE_FIELDS[0], RESIDUE_FIELDS[1], RESIDUE_FIELDS[3])),
       st.integers(0, 10**6), st.booleans())
def test_find_root_matches_the_exact_path(field, seed, with_root):
    rng = random.Random(seed)
    if with_root:
        g = _poly_with_root(field, rng)
    else:
        g = [field.from_basis_coords([rng.randint(-5, 5) for _ in range(field.degree)],
                                     rng.choice((1, 1, 2, 3)))
             for _ in range(rng.randint(2, 3))] + [field.rational(rng.choice((1, 2, 3)))]
    fast = find_root(g, field)
    with mock.patch.object(ideals, "_residue_maps", lambda field: ()):
        exact = find_root(g, field)
    assert fast == exact
    if with_root:
        assert fast is not None


def test_find_root_keeps_a_root_off_the_prime():
    # modulo the prime above 5 of Q(sqrt(-5)) the leading coefficient of
    # (5x - 1)(x^2 + x + 1) vanishes and x^2 + x + 1 has no root, yet 1/5 is
    # a root: that prime cannot rule roots out
    k = quadratic_field(-5)
    assert any(p == 5 for p, _ in ideals._residue_maps(k))
    assert find_root(pt.poly_mul([-1, 5], [1, 1, 1]), k) == k.rational(Fraction(1, 5))


def test_find_root_takes_no_residue_map_where_the_order_may_not_be_maximal():
    # 2 divides the index of Z[sqrt(-3)] in its maximal order, and
    # x^2 + x + 1 has no root mod 2, yet zeta_3 lies in Q(sqrt(-3)): a map
    # at 2 would prove a root away
    k = make_field([3, 0, 1], basis=[[1, 0], [0, 1]])
    assert k.discriminant == -12
    assert all(p != 2 for p, _ in ideals._residue_maps(k))
    zeta = find_root([1, 1, 1], k)
    assert zeta is not None and zeta * zeta + zeta + 1 == k.zero()


def test_residue_maps_of_a_cyclotomic_power_basis_take_no_discriminant():
    # Z[zeta_m] is maximal, so no 22 x 22 trace-form determinant is needed
    k = cyclotomic_field(23)
    assert ideals._residue_maps(k)
    assert "discriminant" not in vars(k)


def test_find_root_of_a_square_with_no_cheap_root():
    # Trager's norm of g = (3x + 3 - sqrt(-5))^2 is a square for every
    # shift; the method runs on the squarefree part of g
    k = quadratic_field(-5)
    alpha = k.element([-1, Fraction(1, 3)])
    lin = [-alpha * 3, k.rational(3)]
    g = [lin[0] * lin[0], lin[0] * lin[1] * 2, lin[1] * lin[1]]
    assert find_root(g, k) == alpha
    assert ideals._trager_root(g, k) == alpha


def test_trager_root_does_not_claim_no_root_without_a_squarefree_norm(monkeypatch):
    k = quadratic_field(-5)
    alpha = k.element([-1, Fraction(1, 3)])
    g = pt.poly_mul([-alpha, k.one()], [-alpha * 2, k.one()])
    assert find_root(g, k) == alpha
    # a norm that is a square for every shift proves nothing
    monkeypatch.setattr(ideals, "_shifted_norm", lambda coeffs, field, s: [1, 2, 1])
    with pytest.raises(SearchExhausted, match="s = 0..9"):
        find_root(g, k)


def test_sqrt_of_a_non_square_needs_no_trager(monkeypatch):
    L = IDEAL_FIELDS[3]  # Q(sqrt(-5))(zeta_3)
    zeta3 = find_root([1, 1, 1], L)

    def no_trager(coeffs, field):
        raise AssertionError("Trager's method ran")

    monkeypatch.setattr(ideals, "_trager_root", no_trager)
    # neither i nor sqrt(2) nor a primitive 12th root of unity lies in L
    for el in (L.rational(-1), L.rational(2), -zeta3):
        assert sqrt_in_field(el) is None


def test_cos_minpoly_root_in_q23_takes_few_exact_evaluations(monkeypatch):
    k = cyclotomic_field(23)
    calls = []
    horner = ideals._eval_poly_at
    monkeypatch.setattr(ideals, "_eval_poly_at",
                        lambda coeffs, el: calls.append(el) or horner(coeffs, el))
    t = find_root(cos_minpoly(23), k)
    z = k.gen()
    assert (t - z - z**22).is_zero()
    # 60 candidates come before the root; the residue maps reject the others
    assert 1 <= len(calls) <= 2


def test_ideal_power_makes_only_the_needed_products(monkeypatch):
    pr = factor_rational_prime(quadratic_field(-5), 3)[0].ideal
    powers = [FractionalIdeal.unit(pr.field)]
    for _ in range(6):
        powers.append(powers[-1] * pr)
    calls = []
    mul = FractionalIdeal.__mul__
    monkeypatch.setattr(FractionalIdeal, "__mul__",
                        lambda self, other: calls.append(1) or mul(self, other))
    # square-and-multiply: squarings up to the top bit plus one product per
    # further set bit
    for e, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)):
        calls.clear()
        assert pr ** e == powers[e]
        assert len(calls) == products


@pytest.mark.parametrize("s", [0, 1, 3])
def test_shifted_norm_is_the_resultant(s):
    # N_{L/Q}(g(T - s theta)) = Res_x(f(x), g(x, T - s x)) for monic f
    import sympy

    L, _, _ = composite_field(quadratic_field(-5), cyclotomic_field(3))
    coeffs = [L.element([Fraction(1, 2), 3, 0, -1]), L.element([0, 0, 2]), L.one()]
    x, t = sympy.symbols("x t")
    f = sum(c * x**i for i, c in enumerate(L.min_poly))
    g = sum(sum(sympy.Rational(cc.numerator, cc.denominator) * x**i
                for i, cc in enumerate(c.coords)) * (t - s * x)**k
            for k, c in enumerate(coeffs))
    expected = sympy.Poly(sympy.resultant(f, sympy.expand(g), x), t).all_coeffs()[::-1]
    assert ideals._shifted_norm(coeffs, L, s) == [Fraction(int(c.p), int(c.q)) for c in expected]


def test_quadratic_primes_are_built_from_their_hnf_rows(monkeypatch):
    # (p, omega - r) from the rows (p, 0), (-r, 1): no polynomial in omega is
    # evaluated, and the primes are the Kummer-Dedekind ones
    monkeypatch.setattr(ideals, "_eval_poly_at", None)
    k = quadratic_field(-5)
    p2, = factor_rational_prime(k, 2)
    p3a, p3b = factor_rational_prime(k, 3)
    assert (p2.e, p2.f) == (2, 1)
    assert p2.ideal == FractionalIdeal.from_generators(k, [k.rational(2), k.element([1, 1])])
    assert {p3a.ideal, p3b.ideal} == {
        FractionalIdeal.from_generators(k, [k.rational(3), k.element([r, 1])]) for r in (1, -1)}
