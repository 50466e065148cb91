import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2tate.intlinalg import (
    FiniteAbelianGroup,
    IntMatrix,
    cokernel,
    det_rational,
    hnf,
    hnf_canonical,
    kernel,
    presented_hom_cokernel,
    presented_hom_kernel,
    inverse_rational,
    rank,
    rref_mod,
    rref_rational,
    snf,
    snf_with_transforms,
    solve_integer,
    solve_rational,
    subgroup_quotient,
    xgcd,
)


def random_matrix(rng, nr, nc, lo=-9, hi=9):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)])


def minor_gcd(M, k):
    """gcd of all k x k minors -- the classical determinantal divisor."""
    g = 0
    for rows in itertools.combinations(range(M.nrows), k):
        for cols in itertools.combinations(range(M.ncols), k):
            sub = IntMatrix.from_rows([[M[i, j] for j in cols] for i in rows])
            g = gcd(g, sub.det())
    return abs(g)


def gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def in_row_lattice(v, basis):
    """Is v an integer combination of the rows of `basis`?"""
    if basis.nrows == 0:
        return all(x == 0 for x in v)
    return solve_integer(basis.transpose(), v) is not None


# --- HNF ------------------------------------------------------------------


def test_hnf_small_example():
    m = IntMatrix.from_rows([[2, 4], [3, 5]])
    h, u = hnf(m)
    assert u * m == h
    # det is +-2, so the HNF is [[1, a], [0, 2]] with 0 <= a < 2
    assert h[0, 0] == 1 and h[1, 0] == 0 and h[1, 1] == 2


def test_hnf_transform_unimodular_and_span_preserved():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u = hnf(m)
        assert abs(u.det()) == 1
        assert u * m == h
        hc = hnf_canonical(m)
        for i in range(m.nrows):
            assert in_row_lattice(m.row(i), hc)
        for i in range(hc.nrows):
            assert in_row_lattice(hc.row(i), hnf_canonical(m))


def test_hnf_canonical_under_unimodular_change():
    # the canonical HNF depends only on the row lattice
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, 3, 3)
        # random unimodular transform built from elementary row ops
        rows = [list(r) for r in m.entries]
        for _ in range(6):
            i, k = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
        assert hnf_canonical(IntMatrix.from_rows(rows)) == hnf_canonical(m)


def test_hnf_pivot_normalization():
    rng = random.Random(13)
    for _ in range(30):
        m = random_matrix(rng, 3, 4)
        h = hnf_canonical(m)
        pivots = []
        for i in range(h.nrows):
            j = next(c for c in range(h.ncols) if h[i, c] != 0)
            pivots.append(j)
            assert h[i, j] > 0
            for above in range(i):
                assert 0 <= h[above, j] < h[i, j]
        assert pivots == sorted(pivots)


# --- SNF ------------------------------------------------------------------


def test_snf_spec_values():
    assert snf(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert snf(IntMatrix.from_rows([[2, 4], [4, 8]])) == (2,)


def test_snf_transforms():
    rng = random.Random(3)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag, u = snf_with_transforms(m)
        assert len(diag) == min(m.nrows, m.ncols)
        assert abs(u.det()) == 1
        # U*M = S*V^-1 and the rows of V^-1 are primitive, so row i of U*M
        # has content d_i; rows past the diagonal are zero
        um = u * m
        for i in range(m.nrows):
            content = 0
            for x in um.row(i):
                content = gcd(content, x)
            assert content == (diag[i] if i < len(diag) else 0)
        assert tuple(d for d in diag if d) == snf(m)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0


def test_snf_against_minor_gcd_oracle():
    # d1 * ... * dk == gcd of all k x k minors
    rng = random.Random(5)
    for _ in range(30):
        m = random_matrix(rng, 3, 3)
        factors = snf(m)
        prod = 1
        for k, d in enumerate(factors, start=1):
            prod *= d
            assert prod == minor_gcd(m, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=3, max_size=3), min_size=2, max_size=4))
def test_snf_divisibility_chain_property(rows):
    factors = snf(IntMatrix.from_rows(rows))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


# --- kernel ---------------------------------------------------------------


def test_kernel_annihilates_and_is_saturated():
    rng = random.Random(17)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        k = kernel(m)
        for i in range(k.nrows):
            assert all(x == 0 for x in m.apply(k.row(i)))
        assert k.nrows == m.ncols - rank(m)
        # saturation oracle: brute-force small kernel vectors must lie in the span
        for v in itertools.product(range(-2, 3), repeat=m.ncols):
            if any(v) and all(x == 0 for x in m.apply(v)):
                assert in_row_lattice(v, k)


def test_kernel_canonical():
    m = IntMatrix.from_rows([[1, 1, 1]])
    k = kernel(m)
    assert k == hnf_canonical(k)
    assert k.nrows == 2


# --- cokernel and groups --------------------------------------------------


def test_cokernel_spec_example():
    ck = cokernel(IntMatrix.from_rows([[2, 1], [0, 3]]))
    assert ck.group.free_rank == 0
    assert ck.group.torsion.invariant_factors == (6,)
    assert ck.group.torsion_order == 6


def test_cokernel_projection_kills_relations():
    rng = random.Random(23)
    for _ in range(30):
        m = random_matrix(rng, 3, rng.randint(1, 4))
        ck = cokernel(m)
        for j in range(m.ncols):
            img = ck.project(m.col(j))
            assert all(x == 0 for x in img)
        # generators project to the unit vectors
        for i, g in enumerate(ck.generators):
            img = ck.project(g)
            assert list(img) == [1 if t == i else 0 for t in range(len(img))]


def test_cokernel_order_by_coset_enumeration():
    # independent count of |Z^2 / colspan| for full-rank 2x2 relation matrices
    rng = random.Random(29)
    for _ in range(20):
        m = random_matrix(rng, 2, 2, -5, 5)
        if m.det() == 0:
            continue
        ck = cokernel(m)
        seen = set()
        bound = abs(m.det()) + 2
        for v in itertools.product(range(2 * bound), repeat=2):
            seen.add(ck.project(v))
        assert len(seen) == abs(m.det())
        assert ck.group.torsion_order == abs(m.det())


def test_finite_abelian_group_basics():
    g = FiniteAbelianGroup((2, 6))
    assert g.order == 12
    assert len(list(g.elements())) == 12
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 6))  # not a divisibility chain


def test_subgroup_quotient_and_membership():
    # Z/4 x Z/8 modulo <(2, 0)>: x lies in the subgroup iff it projects to 0
    ck = subgroup_quotient([4, 8], [[2, 0]])
    assert ck.group.torsion_order == 16
    zero = ck.project((0, 0))
    assert ck.project((2, 0)) == zero
    assert ck.project((0, 8)) == zero
    assert ck.project((1, 0)) != zero


def test_presented_hom_kernel_cokernel():
    # doubling map Z/4 -> Z/4: kernel Z/2, cokernel Z/2
    r = IntMatrix.from_rows([[4]])
    t = IntMatrix.from_rows([[2]])
    ker_grp, gens = presented_hom_kernel(r, t, r)
    assert ker_grp.free_rank == 0
    assert ker_grp.torsion.invariant_factors == (2,)
    assert gens and gens[0][0] % 4 in (2,)
    ck = presented_hom_cokernel(t, r)
    assert ck.group.torsion.invariant_factors == (2,)

    # projection Z -> Z/3 has kernel 3Z (free rank 1), trivial cokernel
    r_src = IntMatrix.from_rows([[]])
    t2 = IntMatrix.from_rows([[1]])
    r_tgt = IntMatrix.from_rows([[3]])
    ker_grp2, gens2 = presented_hom_kernel(r_src, t2, r_tgt)
    assert ker_grp2.free_rank == 1
    assert ker_grp2.torsion.is_trivial
    assert gens2[0][0] % 3 == 0 and gens2[0][0] != 0
    ck2 = presented_hom_cokernel(t2, r_tgt)
    assert ck2.group.free_rank == 0
    assert ck2.group.torsion.is_trivial


def test_xgcd():
    rng = random.Random(31)
    for _ in range(50):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g


def test_solve_integer():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer(m, [4, 9]) == (2, 3)
    assert solve_integer(m, [1, 0]) is None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solve_integer_agrees_with_cokernel(data):
    # M x = b is solvable iff b vanishes in Z^rows / colspan(M)
    nr, nc = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    m = IntMatrix.from_rows(data.draw(st.lists(
        st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr)))
    z = data.draw(st.lists(entries, min_size=nc, max_size=nc))
    e = data.draw(st.lists(st.integers(-1, 1), min_size=nr, max_size=nr))
    b = [x + y for x, y in zip(m.apply(z), e)]
    x = solve_integer(m, b)
    if x is not None:
        assert list(m.apply(x)) == b
    assert (x is not None) == (not any(cokernel(m).project(b)))


# --- exact elimination over Q and F_p -----------------------------------------

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def square(elements, max_size=5):
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))


def matrices(elements):
    return st.integers(1, 5).flatmap(lambda nc: st.lists(
        st.lists(elements, min_size=nc, max_size=nc), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(square(fractions))
def test_inverse_rational_is_two_sided(m):
    n = len(m)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    if det_rational(m) == 0:
        with pytest.raises(ValueError):
            inverse_rational(m)
        return
    inv = inverse_rational(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == eye


@settings(max_examples=60, deadline=None)
@given(matrices(fractions), st.data())
def test_solve_rational_zero_residual(m, data):
    # a right-hand side in the column span is solved with zero residual;
    # one with a pivot in the augmented column is reported insoluble
    ncols = len(m[0])
    x = data.draw(st.lists(fractions, min_size=ncols, max_size=ncols))
    rhs = [sum(a * b for a, b in zip(row, x)) for row in m]
    sol = solve_rational(m, rhs)
    assert [sum(a * b for a, b in zip(row, sol)) for row in m] == rhs
    other = data.draw(st.lists(fractions, min_size=len(m), max_size=len(m)))
    soluble = ncols not in rref_rational(
        [row + [b] for row, b in zip(m, other)])[1]
    assert (solve_rational(m, other) is not None) == soluble


@settings(max_examples=60, deadline=None)
@given(square(st.integers(-30, 30), max_size=6))
def test_det_rational_matches_bareiss(m):
    assert det_rational(m) == IntMatrix.from_rows(m).det()
    # scaling a row by 1/3 scales the determinant by 1/3
    scaled = [[Fraction(x, 3) for x in m[0]]] + m[1:]
    assert det_rational(scaled) == Fraction(IntMatrix.from_rows(m).det(), 3)


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-30, 30)), st.sampled_from([2, 3, 7]))
def test_rref_mod_is_reduced_echelon(m, p):
    red, pivots = rref_mod(m, p)
    assert len(red) == len(pivots)
    assert pivots == sorted(set(pivots))
    for r, (row, c) in enumerate(zip(red, pivots)):
        assert all(0 <= x < p for x in row)
        assert all(x == 0 for x in row[:c]) and row[c] == 1
        assert all(red[i][c] == 0 for i in range(len(red)) if i != r)
    # the rows span the same space: each input row reduces to zero
    for row in m:
        assert len(rref_mod(red + [row], p)[1]) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(matrices(st.integers(-30, 30)))
def test_rank_mod_large_prime_equals_rational_rank(m):
    # every minor of a 5 x 5 matrix with entries in [-30, 30] is below
    # 5! * 30^5 < 2^61 - 1, so no non-zero minor vanishes mod that prime
    assert len(rref_mod(m, 2**61 - 1)[1]) == len(rref_rational(m)[1])
