"""Fractional ideals as HNF lattices over the integral basis, prime
factorization of rational primes, and exact root finding in number fields.

An ideal is stored as (num, den): num is an n x n matrix in canonical row
HNF whose rows are lattice vectors in integral-basis coordinates, den a
positive integer, the ideal being (1/den) * rowlattice(num).

Inverses go through the trace dual, I^-1 = (I O^v)^v with the codifferent
O^v.  The primes above p come from Kummer-Dedekind on theta (on b_1 in a
quadratic order) when its index is prime to p, else from the idempotents of
O/pO.  Every bounded search walks shells of coefficient boxes through
search_elements; smooth_element accepts a point by its norm alone, with no
ideal arithmetic.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from . import polytools as pt
from .errors import ConsistencyFailure, NotInvertible, SearchExhausted, verify
from .intlinalg import (IntMatrix, combine_rows, hnf_canonical, hnf_solve, inverse_rational,
                        kernel_mod)
from .numberfield import NFElement, NumberField, _eval_poly_at, per_field


class FractionalIdeal:
    def __init__(self, field: NumberField, num: IntMatrix, den: int = 1):
        if den <= 0:
            raise ValueError("denominator must be positive")
        num = hnf_canonical(num)
        if num.nrows != field.degree:
            raise ValueError("lattice must have full rank")
        # normalize: divide out the gcd of den and all entries
        g = den
        for row in num.entries:
            for x in row:
                g = gcd(g, x)
        if g > 1:
            num = IntMatrix.from_rows([[x // g for x in row] for row in num.entries])
            den //= g
        self.field = field
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def unit(field: NumberField) -> "FractionalIdeal":
        return FractionalIdeal(field, IntMatrix.identity(field.degree))

    @staticmethod
    def product(field: NumberField, powers) -> "FractionalIdeal":
        """The product of I**e over the (I, e) pairs with e != 0, starting
        from the first such power; the unit ideal for the empty product."""
        acc = None
        for ideal, e in powers:
            if e:
                acc = ideal ** e if acc is None else acc * ideal ** e
        return FractionalIdeal.unit(field) if acc is None else acc

    @staticmethod
    def from_generators(field: NumberField, gens) -> "FractionalIdeal":
        """The fractional O-ideal generated by the given field elements:
        (1/den) times the rows of the multiplication matrices of the
        generators scaled by their common denominator den."""
        gens = [g if isinstance(g, NFElement) else field.rational(g) for g in gens]
        den = lcm(*(g.den for g in gens))
        rows = []
        for g in gens:
            rows.extend(field.int_mult_rows([c * (den // g.den) for c in g.num]))
        return FractionalIdeal(field, IntMatrix.from_rows(rows), den)

    @staticmethod
    def principal(field: NumberField, el: NFElement) -> "FractionalIdeal":
        if el.is_zero():
            raise ValueError("zero element does not generate a fractional ideal")
        return FractionalIdeal.from_generators(field, [el])

    # -- basic data ----------------------------------------------------------

    def basis_elements(self) -> list[NFElement]:
        """The Z-basis of the lattice as field elements."""
        return [self.field.from_basis_coords(row, self.den)
                for row in self.num.entries]

    def norm(self) -> Fraction:
        d = 1
        for i in range(self.num.nrows):
            d *= self.num[i, i]
        return Fraction(abs(d), self.den ** self.field.degree)

    def contains_coords(self, coords) -> bool:
        """Whether the element with these integral-basis coordinates (ints or
        Fractions) lies in the ideal: den * coords back-substituted on num."""
        scaled = []
        for c in coords:
            if self.den % c.denominator:
                return False
            scaled.append(c.numerator * (self.den // c.denominator))
        return hnf_solve(self.num, scaled) is not None

    def contains(self, el: NFElement) -> bool:
        return self.contains_coords(el.basis_coords())

    def __eq__(self, other):
        return (isinstance(other, FractionalIdeal) and self.field == other.field
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.field.min_poly, self.num, self.den))

    def __repr__(self):
        return f"FractionalIdeal(norm={self.norm()}, den={self.den})"

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        # the n^2 products of the two lattice bases, in integer coordinates
        rows = []
        for a in self.num.entries:
            mult = self.field.int_mult_rows(a)
            rows.extend(combine_rows(b, mult) for b in other.num.entries)
        return FractionalIdeal(self.field, IntMatrix.from_rows(rows),
                               self.den * other.den)

    def __add__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        den = lcm(self.den, other.den)
        rows = [[x * (den // a.den) for x in row]
                for a in (self, other) for row in a.num.entries]
        return FractionalIdeal(self.field, IntMatrix.from_rows(rows), den)

    def __pow__(self, e: int) -> "FractionalIdeal":
        if e < 0:
            return self.inverse() ** (-e)
        return pt.power(self, e) if e else FractionalIdeal.unit(self.field)

    def dual(self) -> "FractionalIdeal":
        """The trace dual {x : Tr(x I) <= Z}.  With T the trace form, x with
        basis coordinates y has Tr(x a_i) = (num T y)_i / den on the basis
        a_i of I, so the dual has the basis rows den * (T num^T)^-1."""
        inv = inverse_rational((self.field.trace_form * self.num.transpose()).entries)
        d = lcm(*(x.denominator for row in inv for x in row))
        return FractionalIdeal(self.field, IntMatrix.from_rows(
            [[int(x * d) * self.den for x in row] for row in inv]), d)

    def inverse(self) -> "FractionalIdeal":
        """I^-1 = (I O^v)^v, the dual of I times the codifferent O^v."""
        inv = (self * _codifferent(self.field)).dual()
        if inv * self != FractionalIdeal.unit(self.field):
            raise NotInvertible("ideal is not invertible in this order")
        return inv

    def valuation(self, prime: "PrimeIdeal") -> int:
        """v_P(self): the least v_P of the numerator rows (a Z-basis), less
        v_P(den)."""
        v = min(prime.valuation_coords(row) for row in self.num.entries)
        return v - prime.e * _rational_valuation(self.den, prime.p)


@per_field
def _codifferent(field: NumberField) -> FractionalIdeal:
    return FractionalIdeal.unit(field).dual()


def _rational_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PrimeIdeal:
    def __init__(self, p: int, ideal: FractionalIdeal, e: int, f: int):
        self.p = p
        self.ideal = ideal
        self.e = e  # ramification index
        self.f = f  # residue degree

    def __eq__(self, other):
        if other.__class__ is not PrimeIdeal:
            return NotImplemented
        return (self.p == other.p and self.e == other.e and self.f == other.f
                and self.ideal == other.ideal)

    def __hash__(self):
        return hash((self.p, self.ideal, self.e, self.f))

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, e={self.e}, f={self.f})"

    @cached_property
    def _anti_uniformizer_rows(self) -> list[list[int]]:
        """Multiplication rows of some beta with beta*P <= pO and beta not in
        pO.  Then v_P(beta) = e - 1 and v_Q(beta) >= e_Q at the other Q | p,
        so beta*x lies in pO exactly when v_P(x) >= 1 (Cohen GTM 138,
        Algorithm 4.8.17)."""
        field = self.ideal.field
        # beta * w = combine_rows(beta, int_mult_rows(w)) must vanish mod p
        # for every row w of P: one equation per column of those rows
        system = [col for w in self.ideal.num.entries
                  for col in zip(*field.int_mult_rows(w))]
        return field.int_mult_rows(kernel_mod(system, self.p, field.degree)[0])

    def valuation(self, el: NFElement) -> int:
        """v_P of the nonzero field element el = num / den."""
        return self.valuation_coords(el.num) - self.e * _rational_valuation(el.den, self.p)

    def valuation_coords(self, coords, bound=None) -> int:
        """v_P of the nonzero integral element with these integer
        integral-basis coordinates: how often x -> beta*x/p stays integral.
        Past a given bound raises ConsistencyFailure: x -> beta*x/p may stay
        integral forever where P is not invertible."""
        if not any(coords):
            raise ValueError("the valuation of zero is infinite")
        rows, p = self._anti_uniformizer_rows, self.p
        v = 0
        while True:
            coords = combine_rows(coords, rows)
            if any(c % p for c in coords):
                return v
            coords = [c // p for c in coords]
            v += 1
            if bound is not None and v > bound:
                raise ConsistencyFailure(f"a valuation above {p} exceeds {bound}: "
                                         f"the order is not {p}-maximal")


@per_field
def factor_rational_prime(field: NumberField, p: int) -> tuple[PrimeIdeal, ...]:
    """The primes above p, by Kummer-Dedekind on a generator g of O whose
    index [O : Z[g]] is prime to p, else by splitting the algebra O/pO.  A
    quadratic order takes g = b_1, of index |coefficient of b_0 in 1|,
    reads the factors of its minimal polynomial off the Kronecker symbol of
    its discriminant and writes each prime down as a lattice.  Any other
    order takes g = theta when theta lies in O and p does not divide
    NumberField.power_basis_index.  Memoised on the field per p, so each
    prime's anti-uniformizer is built once per field object and freed with
    it; an equal field built apart factors p again."""
    one = field.one().num
    if field.degree == 2 and one[0] % p:
        g = field.basis_element(1)
        trace, norm = int(g.trace()), int(g.norm())
        # a root r of the minimal polynomial of g mod p gives
        # P = (p, g - r) = pO + Z (g - r), of index p as g - r is not
        # in pO; on the integral basis (1, omega), g = omega, its HNF
        # rows are (p, 0), (-r, 1).  An irreducible factor gives P = pO
        primes = []
        for fac, mult in _quadratic_factors_mod(trace, norm, p):
            rows = [[p, 0], [0, p]]
            if len(fac) == 2:
                # g + fac[0] = g - r + (multiple of p); g is basis vector 1
                rows.append([fac[0] * c + i for i, c in enumerate(one)])
            ideal = FractionalIdeal(field, IntMatrix.from_rows(rows))
            primes.append(PrimeIdeal(p, ideal, e=mult, f=len(fac) - 1))
        return _verified_primes(field, p, primes, True)
    index = field.power_basis_index
    if index is not None and index % p:
        return _kummer_dedekind(field, p, field.gen(), field.min_poly)
    # p divides the index (it may divide that of every generator, e.g. two
    # residue-degree-2 primes above 2 while F_2 has a single irreducible
    # quadratic), or theta is not in this order
    return _factor_by_algebra_splitting(field, p)


def _quadratic_factors_mod(trace: int, norm: int, p: int) -> list[tuple[list[int], int]]:
    """The factors mod p of x^2 - trace x + norm, as factor_mod_p returns
    them: the Kronecker symbol of the discriminant tells inert, ramified or
    split, and the roots are (trace +- sqrt(disc)) / 2 (just 0 and 1 when
    p = 2 splits, norm mod 2 when it ramifies)."""
    disc = trace * trace - 4 * norm
    kind = pt.kronecker(disc, p)
    if kind == -1:
        return [([norm % p, -trace % p, 1], 1)]
    if p == 2:
        roots = {norm % 2} if kind == 0 else {0, 1}
    else:
        r, half = pt.sqrt_mod(disc, p), (p + 1) // 2
        roots = {(trace + r) * half % p, (trace - r) * half % p}
    mult = 2 if kind == 0 else 1
    return sorted(([-x % p, 1], mult) for x in roots)


def _kummer_dedekind(field: NumberField, p: int, g: NFElement, f) -> tuple[PrimeIdeal, ...]:
    """The primes (p, h(g)) for the factors h^e mod p of f, the minimal
    polynomial of a generator g whose index is prime to p; where Z[g] is not
    p-maximal, neither is the order, and ConsistencyFailure is raised."""
    factors = pt.factor_mod_p(f, p)
    if not pt.dedekind_criterion(f, factors, p):
        raise ConsistencyFailure(f"Dedekind's criterion fails: the order is not {p}-maximal")
    out = []
    for fac, mult in factors:
        lift = [c if c <= p // 2 else c - p for c in fac]
        gen_el = _eval_poly_at(lift, g)
        ideal = FractionalIdeal.from_generators(field, [field.rational(p), gen_el])
        out.append(PrimeIdeal(p, ideal, e=mult, f=pt.degree(fac)))
    return _verified_primes(field, p, out, field.degree <= 6)


def _verified_primes(field, p, primes, check_product) -> tuple[PrimeIdeal, ...]:
    """The primes above p in a canonical order, once sum e f = n, N(P) = p^f
    and prod P^e = (p) are verified; the product only when check_product,
    as the e-fold ideal product gets expensive in large degrees."""
    verify(sum(pr.e * pr.f for pr in primes) == field.degree,
           "sum of e*f must be the degree")
    verify(all(pr.ideal.norm() == p**pr.f for pr in primes), "N(P) must be p^f")
    if check_product:
        prod = FractionalIdeal.product(field, ((pr.ideal, pr.e) for pr in primes))
        # (p) = pO is the lattice p * Z^n, in canonical HNF with den 1
        verify(prod.den == 1 and prod.num == IntMatrix.diagonal((p,) * field.degree),
               "product of the P^e must be (p)")
    return tuple(sorted(primes, key=lambda pr: (pr.f, pr.e, pr.ideal.num.entries)))


def _factor_by_algebra_splitting(field: NumberField, p: int) -> tuple[PrimeIdeal, ...]:
    """Factor (p) through the idempotents of A = O/pO, which needs no
    generator.  The Frobenius x -> x^p is F_p-linear on A, and its fixed
    space is the F_p-span of the primitive idempotents e_i, one for each
    P_i | p (pt.primitive_idempotents).  Then P_i = pO + (1 - e_i)O + rad A,
    where rad A is the kernel of x -> x^q for the least q = p^k >= n (a
    nilpotent of A vanishes at its n-th power), the k-th Frobenius iterate."""
    n = field.degree
    one = [c % p for c in field.one().num]

    def mul(x, y):
        return [c % p for c in combine_rows(y, field.int_mult_rows(x))]

    def kernel(images):
        # the kernel of the F_p-linear map taking basis vector j to images[j]
        return kernel_mod(zip(*images), p, n)

    frobenius = [pt.power([int(i == j) for i in range(n)], p, mul) for j in range(n)]
    fixed = kernel([[x - (i == j) for i, x in enumerate(image)]
                    for j, image in enumerate(frobenius)])
    images, q = frobenius, p
    while q < n:
        images, q = [[c % p for c in combine_rows(x, frobenius)] for x in images], q * p
    rad = kernel(images)

    out = []
    p_coords = [p * c for c in field.one().num]
    for idem in pt.primitive_idempotents(fixed, one, mul, p):
        gens = [p_coords, [o - x for o, x in zip(one, idem)]] + rad
        ideal = FractionalIdeal(field, IntMatrix.from_rows(
            [row for g in gens for row in field.int_mult_rows(g)]))
        f = _rational_valuation(ideal.norm().numerator, p)
        e = PrimeIdeal(p, ideal, 0, f).valuation_coords(p_coords, bound=n)
        out.append(PrimeIdeal(p, ideal, e=e, f=f))
    return _verified_primes(field, p, out, True)


# ---------------------------------------------------------------------------
# bounded lattice searches


def box_lines(n: int, inner: int, outer: int):
    """The integer vectors of [-outer, outer]^n outside [-inner, inner]^n,
    as lines (prefix, range of the last coordinate), in lexicographic order
    of the vectors.  A prefix inside the inner box gets the two outer
    segments, every other prefix the full range."""
    full = range(-outer, outer + 1)
    below, above = range(-outer, -inner), range(inner + 1, outer + 1)
    for prefix in itertools.product(full, repeat=n - 1):
        if max(map(abs, prefix), default=0) > inner:
            yield prefix, full
        else:
            yield prefix, below
            yield prefix, above


# Each search asks a question that holds for -x when it holds for x, and for
# y when it holds for k*y (k > 1).  So the walk skips the positive line of
# each +- pair and every non-primitive vector, and the first answer stays
# that of a walk over every point: -x comes first in lexicographic order, and
# k*y lies in a later shell than y since each box is at most twice the last.
BOXES = (1, 2, 3, 5, 8, 13)


def search_elements(ideal: FractionalIdeal, inner: int, outer: int):
    """Yield (coords, norm) for the primitive coefficient vectors on the HNF
    basis in [-outer, outer]^n outside [-inner, inner]^n, the negative one
    of each +- pair, in lexicographic order: coords of den * x on the
    integral basis and the integer N(den * x).  The last HNF row is
    (0, ..., 0, h), so up to degree 4 a line takes one norm polynomial."""
    field, rows = ideal.field, ideal.num.entries
    n, h = field.degree, rows[-1][-1]
    zero = (0,) * n
    horner = pt.poly_eval
    for prefix, last in box_lines(n, inner, outer):
        if prefix + (last[0],) > zero:
            continue
        head = combine_rows(prefix, rows)
        start = head.pop()
        g = gcd(*prefix)
        line = field.norm_line(head) if n <= 4 else None
        for t in last:
            if gcd(g, t) > 1:
                continue
            c = start + t * h
            coords = head + [c]
            yield coords, (field.norm_of_int_coords(coords) if line is None
                           else horner(line, c))


def smooth_element(ideal: FractionalIdeal, primes):
    """coords of den * x for the first x of the walk over BOXES whose
    cofactor N(x)/N(I) = |N(den * x)| / det(num) is a product of the given
    rational primes, or None.  Then (x) = I J with J integral of that norm
    (Cohen GTM 138, 6.5): a product of primes above the given ones."""
    det = prod(row[i] for i, row in enumerate(ideal.num.entries))
    inner = 0
    for outer in BOXES:
        for coords, nrm in search_elements(ideal, inner, outer):
            if pt.prime_to(abs(nrm) // det, primes) == 1:
                return coords
        inner = outer
    return None


def principal_generator(ideal: FractionalIdeal, s_primes=()) -> NFElement:
    """x with (x) = ideal times primes above the rational primes s_primes
    (exactly the ideal when there are none).  Raises SearchExhausted when
    the coefficient boxes run out."""
    coords = smooth_element(ideal, s_primes)
    if coords is None:
        raise SearchExhausted(f"no principal generator in boxes up to {BOXES[-1]}")
    return ideal.field.from_basis_coords(coords, ideal.den)


# ---------------------------------------------------------------------------
# exact root finding in a number field


def find_root(coeffs, field: NumberField) -> NFElement | None:
    """First root in `field` of the polynomial with the given coefficients
    (NFElements or rationals, constant-first), or None.

    Cheap candidates (small rationals, and monomials in a built-in root of
    unity) are tried first with exact verification; the general case runs a
    resultant-based factorization, which is exact and needs no precision
    management.  Reductions modulo degree-one primes (_residue_maps) prove
    that no root exists, or that a candidate is not one, before any exact
    arithmetic; they never change the answer."""
    coeffs = pt.trim([c if isinstance(c, NFElement) else field.rational(c) for c in coeffs])
    if len(coeffs) <= 1:
        raise ValueError("constant polynomial")

    if len(coeffs) == 2:
        root = -coeffs[0] * coeffs[1].inverse()
        return root

    # g mod P at each degree-one P where every coefficient is P-integral
    reductions = []
    for p, images in _residue_maps(field):
        g_bar = [_residue(c, p, images) for c in coeffs]
        if None in g_bar:
            continue
        if g_bar[-1] and not pt.roots_mod(g_bar, p):
            # with a P-unit leading coefficient every root is P-integral, and
            # its residue would be a root of g mod P
            return None
        reductions.append((p, images, g_bar))

    def is_root(el):
        for p, images, g_bar in reductions:
            r = _residue(el, p, images)
            if r is not None and pt.eval_mod(g_bar, r, p):
                return False
        return _eval_poly_at(coeffs, el).is_zero()

    for cand in _cheap_candidates(field):
        if is_root(cand):
            return cand

    return _trager_root(coeffs, field)


# maps O -> F_p that find_root reduces by: a non-root candidate survives one
# only by being a root modulo its prime
RESIDUE_MAPS = 12
_RESIDUE_PRIME_BOUND = 500


@per_field
def _residue_maps(field: NumberField) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Up to RESIDUE_MAPS ring maps O -> F_p, one per degree-one prime P,
    each as (p, images of the integral basis), by increasing p and then
    root.  For p prime to every denominator of the basis, O lies in
    Z_(p)[theta], where theta -> r is a ring map for each root r of the
    minimal polynomial mod p; its kernel on O is a prime of degree one.  A
    root lies in O_(P) only where p^2 does not divide disc(O), so that O is
    p-maximal; Z[zeta_m] is maximal, with no discriminant computed."""
    den = lcm(*(x.denominator for row in field.basis for x in row))
    cyclotomic = field.root_of_unity_order and field.power_basis_index == 1
    disc = 1 if cyclotomic else field.discriminant
    maps = []
    for p in range(2, _RESIDUE_PRIME_BOUND):
        if len(maps) >= RESIDUE_MAPS:
            break
        if den % p == 0 or disc % (p * p) == 0 or not pt.is_prime(p):
            continue
        roots = pt.roots_mod(field.min_poly, p)
        if roots:
            basis = [[x.numerator * pow(x.denominator, -1, p) for x in row]
                     for row in field.basis]
        for r in roots:
            powers = [pow(r, j, p) for j in range(field.degree)]
            maps.append((p, tuple(sum(map(operator.mul, row, powers)) % p
                                  for row in basis)))
    return tuple(maps[:RESIDUE_MAPS])


def _residue(el: NFElement, p: int, images) -> int | None:
    """The image of el under the map with these basis images, or None when p
    divides el.den (el may still be P-integral; the map is then skipped)."""
    if el.den % p == 0:
        return None
    return sum(c * x for c, x in zip(el.num, images)) * pow(el.den, -1, p) % p


def _cheap_candidates(field):
    for r in (0, 1, -1, 2, -2):
        yield field.rational(r)
    m = field.root_of_unity_order
    if m:
        theta = field.gen()
        pows = [field.one()]
        for _ in range(m - 1):
            pows.append(pows[-1] * theta)
        for j in range(m):
            yield pows[j]
            yield -pows[j]
        for j in range(1, m):
            # 2cos-type candidates theta^j + theta^-j
            yield pows[j] + pows[(m - j) % m]


def _trager_root(coeffs, field):
    """A root of g in the field by Trager's norm method: for a shift s with
    N(T) = N_{L/Q}(g(T - s*theta)) squarefree, each irreducible factor h of
    N gives gcd(g(X), h(X + s*theta)), linear when h has a root in L.  None
    is proven (no factor has a root); raises SearchExhausted when no shift
    tried gives a squarefree norm."""
    n = field.degree
    ring = field.poly_ring()
    # N is squarefree for some shift only when g is: divide out gcd(g, g')
    repeated = pt.gcd_over(coeffs, [c * i for i, c in enumerate(coeffs)][1:], *ring)
    if len(repeated) > 1:
        coeffs = pt.divmod_over(coeffs, repeated, *ring)[0]
    for s in range(10):
        norm_poly = _shifted_norm(coeffs, field, s)
        if pt.degree(pt.poly_gcd(norm_poly, pt.poly_deriv(norm_poly))) > 0:
            continue  # not squarefree; shift again
        for fac, _mult in pt.factor_z(norm_poly):
            if pt.degree(fac) > n:
                continue
            common = pt.gcd_over(coeffs, _shift_poly(fac, field, s), *ring)
            if len(common) == 2:
                return -common[0] * common[1].inverse()
        return None
    raise SearchExhausted("no squarefree norm N(g(T - s*theta)) for the shifts s = 0..9")


def _shifted_norm(coeffs, field, s):
    """N_{L/Q}(g(T - s*theta)) over Q.  It has degree n * deg g, so it is
    interpolated from its exact values at T = 0, 1, 2, ..."""
    shift = field.gen() * s
    return pt.interpolate([
        _eval_poly_at(coeffs, field.rational(t) - shift).norm()
        for t in range(field.degree * (len(coeffs) - 1) + 1)])


def _shift_poly(q_coeffs, field, s):
    """q(T + s*theta) as an NFElement-coefficient polynomial in T, by Horner."""
    acc, lin = [], [field.gen() * s, field.one()]
    for c in reversed(q_coeffs):
        acc = pt.poly_add(pt.poly_mul(acc, lin), [field.rational(c)])
    return acc


def sqrt_in_field(el: NFElement) -> NFElement | None:
    """An exact square root of el in its own field, or None."""
    field = el.field
    return find_root([-el, field.zero(), field.one()], field)
