"""S-class groups and S-unit groups.

Built-in computations cover what bounded exact searches can honestly reach:
class groups up to degree 4 (Minkowski-bound prime generators plus a bounded
relation search) and unit groups of Q, quadratic fields and cyclotomic fields
of conductor <= 7, extended by S-units.  Everything else must be ingested as
a fixture, and ingested data is always flagged with its provenance.

The independent cross-check for imaginary quadratic class groups is the
classical reduced binary quadratic form enumeration with Gaussian
composition; it shares no code with the ideal-theoretic path.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from . import polytools as pt
from .errors import (
    ConsistencyFailure,
    InvalidInput,
    NeedsBackendData,
    RelationSearchIncomplete,
    SchemaViolation,
    SearchExhausted,
    UnsupportedCase,
    verify,
)
from .ideals import (
    FractionalIdeal,
    PrimeIdeal,
    factor_rational_prime,
    principal_generator,
    search_elements,
    smooth_element,
)
from .intlinalg import (
    Cokernel,
    FiniteAbelianGroup,
    FinGenAbGroup,
    IntMatrix,
    cokernel,
    combine_rows,
    hnf_canonical,
    hnf_solve,
    presented_hom_cokernel,
    presented_hom_kernel,
    solve_integer,
    solve_rational,
    xgcd,
)
from .numberfield import NFElement, NumberField, make_field, per_field


# ---------------------------------------------------------------------------
# places


class PlaceSet(NamedTuple):
    """The infinite places together with all primes above the given rational
    primes."""
    field: NumberField
    rational_primes: tuple[int, ...]
    prime_ideals: tuple[PrimeIdeal, ...]

    @staticmethod
    def make(field: NumberField, rational_primes: Sequence[int] = ()) -> "PlaceSet":
        primes = sorted(set(int(p) for p in rational_primes))
        for p in primes:
            if not pt.is_prime(p):
                raise InvalidInput(f"{p} is not a prime")
        ideals = []
        for p in primes:
            ideals.extend(factor_rational_prime(field, p))
        return PlaceSet(field, tuple(primes), tuple(ideals))

    @property
    def n_finite(self) -> int:
        return len(self.prime_ideals)

    @property
    def unit_rank(self) -> int:
        """Dirichlet's rank r1 + r2 - 1 + |S_f| of the S-unit group."""
        r1, r2 = self.field.signature
        return r1 + r2 - 1 + self.n_finite


# ---------------------------------------------------------------------------
# binary quadratic forms oracle (imaginary quadratic, independent route)


def _reduce_form(a, b, c):
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _solve_linmod(a, b, m):
    """Solve a x = b (mod m); return (x0, m/g) so solutions are x0 + k*(m/g)."""
    g, d, _ = xgcd(a, m)
    verify(b % g == 0, "a linear congruence in form composition is solvable")
    return (b // g * d) % m, m // g


def _compose_forms(f1, f2):
    # Gaussian composition, textbook version
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    j = w
    s = a1 // w
    t = a2 // w
    u = g // w
    mu, big = _solve_linmod(t * u, h * u + s * c1, s * t)
    nu, _ = _solve_linmod(t * big, h - t * mu, s) if s > 1 else (0, 1)
    k = mu + big * nu
    l = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // (s * t)
    a3 = s * t
    b3 = j * u - (k * t + l * s)
    c3 = k * l - j * m
    return _reduce_form(a3, b3, c3)


def reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """All reduced primitive positive-definite forms of the given negative
    discriminant."""
    verify(disc < 0 and disc % 4 in (0, 1), f"{disc} is a negative discriminant")
    out = []
    b = disc % 2
    while 3 * b * b <= -disc:
        q = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                c = q // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    out.append((a, b, c))
                    if 0 < b < a < c:
                        out.append((a, -b, c))
            a += 1
        b += 2
    return sorted(out)


def forms_class_group_oracle(disc: int) -> FiniteAbelianGroup:
    """Class group of an imaginary quadratic discriminant by enumerating
    reduced forms and reading the group structure off element orders."""
    forms = reduced_forms(disc)
    h = len(forms)
    identity = _reduce_form(1, disc % 2, ((disc % 2) - disc) // 4)
    orders = []
    for f in forms:
        acc = f
        o = 1
        while acc != identity:
            acc = _compose_forms(acc, f)
            o += 1
            verify(o <= h, "a form's order is at most the class number")
        orders.append(o)
    return _group_from_element_orders(h, orders)


def _group_from_element_orders(h: int, orders: Sequence[int]) -> FiniteAbelianGroup:
    """The unique abelian group of order h whose elements realize the given
    multiset of orders."""
    divisors = pt.divisors(h)
    counts = {k: sum(1 for o in orders if k % o == 0) for k in divisors}
    for chain in _invariant_chains(h):
        if all(counts[k] == math.prod(math.gcd(d, k) for d in chain) for k in divisors):
            return FiniteAbelianGroup(tuple(d for d in chain if d > 1))
    raise ConsistencyFailure("element orders match no abelian group")


def _invariant_chains(h: int) -> list[tuple[int, ...]]:
    # chains d_k | ... | d_1 with product h, returned smallest-first
    if h == 1:
        return [()]
    out = []

    def rec(rest, chain):
        if rest == 1:
            out.append(tuple(reversed(chain)))
            return
        for d in pt.divisors(rest):
            if d > 1 and (not chain or chain[-1] % d == 0):
                rec(rest // d, chain + [d])

    rec(h, [])
    return out


# ---------------------------------------------------------------------------
# class numbers certified outside the relation search


@lru_cache(maxsize=None)
def quadratic_class_number(d: int) -> int:
    """h of the quadratic field of fundamental discriminant d.  Imaginary:
    Dirichlet's formula h = w / (2 (2 - chi(2))) sum_{0 < a <= |d|/2} chi(a)
    with chi = (d / .) (Cohen GTM 138, 5.3).  Real: the number h+ of cycles
    of reduced indefinite forms (5.6), halved when the fundamental unit has
    norm +1."""
    if d < 0:
        w = {-3: 6, -4: 4}.get(d, 2)
        total = w * sum(_kronecker_table(d, -d // 2))
        h, rest = divmod(total, 2 * (2 - pt.kronecker(d, 2)))
        verify(rest == 0 and h > 0, "Dirichlet's formula gives a positive integer")
        return h
    x, y = _fundamental_unit_xy(d)
    cycles = _reduced_form_cycles(d)
    return cycles // 2 if x * x - d * y * y == 4 else cycles


def _kronecker_table(d: int, limit: int) -> list[int]:
    """The Kronecker symbols (d / a) for a = 0..limit, limit >= 1.  The
    symbol is completely multiplicative in a, so a smallest-prime-factor
    sieve needs it only at primes."""
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    chi = [0, 1] + [0] * (limit - 1)
    for a in range(2, limit + 1):
        p = spf[a]
        chi[a] = pt.kronecker(d, a) if p == a else chi[p] * chi[a // p]
    return chi


def _reduced_form_cycles(d: int) -> int:
    """The number of cycles of the reduced primitive forms (a, b, c) of the
    non-square discriminant d > 0, |sqrt d - 2|a|| < b < sqrt d, under the
    reduction step rho (Cohen GTM 138, 5.6): h+(d)."""
    s = math.isqrt(d)
    reduced = set()
    for b in range(s - (s - d) % 2, 0, -2):
        q = (d - b * b) // 4
        for m in pt.divisors(q):
            # s + 1 - b <= 2m <= s + b is the reduction condition on |a| = m
            if s + 1 - b <= 2 * m <= s + b and math.gcd(m, b, q // m) == 1:
                reduced.update(((m, b, -q // m), (-m, b, q // m)))
    cycles = 0
    while reduced:
        cycles += 1
        start = form = reduced.pop()
        while True:
            # rho(a, b, c) = (c, r, (r^2 - d) / 4c), r = -b mod 2|c| in
            # (sqrt d - 2|c|, sqrt d)
            _, b, c = form
            r = s - (s + b) % (2 * abs(c))
            form = (c, r, (r * r - d) // (4 * c))
            if form == start:
                break
            verify(form in reduced, "rho permutes the reduced forms")
            reduced.remove(form)
    return cycles


def certified_class_number(field: NumberField) -> int | None:
    """h(O) where a formula independent of the relation search gives it:
    quadratic fields with their maximal order, and fields whose builder
    set NumberField.class_number; None for every other field."""
    if field.degree == 2:
        d = field.discriminant
        return quadratic_class_number(d) if pt.fundamental_discriminant(d) == (d, 1) else None
    return field.class_number


# ---------------------------------------------------------------------------
# class groups


class ClassGroupData:
    def __init__(self, field: NumberField, places: PlaceSet, group: FiniteAbelianGroup,
                 generator_ideals: tuple[FractionalIdeal, ...], provenance: str,
                 dlog: Optional[Callable]):
        self.field = field
        self.places = places
        self.group = group
        self.generator_ideals = generator_ideals
        self.provenance = provenance  # "computed" | "ingested:<trust>"
        self._dlog = dlog

    def dlog(self, ideal: FractionalIdeal) -> tuple[int, ...]:
        if self._dlog is None:
            raise NeedsBackendData("no discrete log available for this class group")
        return self._dlog(ideal)


# a lower bound for pi, as _PI_NUM / _PI_DEN: comparing with it can only err
# upward, and a larger Minkowski bound only adds generator primes
_PI_NUM, _PI_DEN = 314159265358979, 10**14


def minkowski_bound(field: NumberField) -> int:
    """The floor of n!/n^n (4/pi)^r2 sqrt|d|, exactly: the largest m with
    m^2 n^(2n) pi^(2 r2) <= (n!)^2 4^(2 r2) |d|, in integers."""
    n = field.degree
    _, r2 = field.signature
    m_sq = ((math.factorial(n) ** 2 * 16**r2 * abs(field.discriminant) * _PI_DEN ** (2 * r2))
            // (n ** (2 * n) * _PI_NUM ** (2 * r2)))
    return math.isqrt(m_sq)


_BOX_SCHEDULE = (4, 6, 8, 10, 16, 24, 40, 80, 160, 320, 640)
BUILTIN_CLASS_GROUP_DEGREE = 4


def class_group(field: NumberField, places: PlaceSet, store=None) -> ClassGroupData:
    """S-class group.  Fixture data (if registered for this field and place
    set) wins; otherwise the bounded built-in computation runs for degree <= 4."""
    if store is not None:
        hit, _ = store.lookup(field, places)
        if hit is not None:
            return hit
    if field.degree > BUILTIN_CLASS_GROUP_DEGREE:
        raise NeedsBackendData(
            f"class group of degree {field.degree} is outside the built-in range"
        )
    return _finish_class_group(field, places, *_class_group_relations(field))


@per_field
def _class_group_relations(field: NumberField):
    """The generator primes (all primes up to the Minkowski bound) and the
    relation lattice among them, as the columns of the transposed canonical
    HNF.  Neither depends on S, so the search runs once per field object
    (memoised on it); the S-quotient is taken in _finish_class_group.

    The search keeps only the canonical HNF of the relations so far, at most
    one row per generator prime: a smooth vector is added only when hnf_solve
    shows it outside that lattice, so hnf_canonical never sees more than
    k + 1 rows.  The primes generate Cl, so the lattice found is a sublattice
    of the relation lattice, whose index is h: once of full rank, its order
    is a multiple of h.  With a certified h the search stops on a proof, as
    soon as the order is h (before any walk when the seeded rows (p) already
    give it); otherwise it stops once the order at the end of a box repeats
    over two boxes.  The stability rule also guards a certified search:
    firing there raises."""
    n = field.degree
    mb = minkowski_bound(field)
    gen_primes: list[PrimeIdeal] = []
    for p in range(2, mb + 1):
        if pt.is_prime(p):
            gen_primes.extend(factor_rational_prime(field, p))
    h = certified_class_number(field)
    if not gen_primes:
        verify(h in (None, 1), f"no prime below the Minkowski bound of {field.label}, "
               f"but its class number is {h}")
        return (), None

    k = len(gen_primes)
    rationals = sorted({pr.p for pr in gen_primes})

    def element_valuations(coords, norm_abs) -> list[int] | None:
        """Exponent vector of (alpha) over gen_primes, or None if not smooth."""
        if pt.prime_to(norm_abs, rationals) != 1:
            return None
        vec = [pr.valuation_coords(coords) if norm_abs % pr.p == 0 else 0
               for pr in gen_primes]
        verify(math.prod(pr.p ** (pr.f * v) for pr, v in zip(gen_primes, vec) if v) == norm_abs,
               "the valuations cover the norm")
        return vec

    def order_of(lattice) -> int | None:
        """The index of a full-rank square row HNF, its diagonal product;
        None below full rank."""
        if lattice.nrows < k:
            return None
        order = math.prod(lattice[i, i] for i in range(k))
        if h is not None:
            verify(order % h == 0, f"the relations of {field.label} have index "
                   f"{order}, not a multiple of the class number {h}")
        return order

    # (p) itself is a relation; needed since the primitive-element search
    # below never sees elements divisible by an inert prime.  Being unique,
    # the canonical HNF does not depend on the order in which relations come
    lattice = hnf_canonical(IntMatrix.from_rows(
        [[pr.e if pr.p == p else 0 for pr in gen_primes] for p in rationals]))
    if h is not None and order_of(lattice) == h:
        return tuple(gen_primes), lattice.transpose()
    prev_order = None
    seen_box = 0
    # for quadratic fields the relation connecting two generator primes p, q
    # comes from an element of norm p*q <= mb^2, whose coordinates stay
    # below about mb; do not accept stability before the box covers that
    min_stable_box = mb + 2 if n == 2 else 0
    order_ideal = FractionalIdeal.unit(field)
    for box in _BOX_SCHEDULE:
        for coords, nrm in search_elements(order_ideal, seen_box, box):
            vec = element_valuations(coords, abs(nrm))
            if vec is None or hnf_solve(lattice, vec) is not None:
                continue
            lattice = hnf_canonical(IntMatrix(lattice.entries + (tuple(vec),), k))
            if h is not None and order_of(lattice) == h:
                return tuple(gen_primes), lattice.transpose()
        seen_box = box
        order = order_of(lattice)
        if order is not None:
            if order == prev_order and box >= min_stable_box:
                verify(h is None, f"the relations of {field.label} stabilized at "
                       f"index {order}, but the class number is {h}")
                return tuple(gen_primes), lattice.transpose()
            prev_order = order
    raise RelationSearchIncomplete(
        f"class-group relations of {field.label} did not stabilize "
        f"up to box {_BOX_SCHEDULE[-1]}"
    )


def _finish_class_group(field, places, gen_primes, rel_cols) -> ClassGroupData:
    if not gen_primes:
        group = FiniteAbelianGroup(())
        return ClassGroupData(field, places, group, (), "computed", lambda ideal: ())

    ck = cokernel(rel_cols)
    verify(ck.group.free_rank == 0, "the relation lattice has full rank")
    gen_ps = [pr.p for pr in gen_primes]

    def exponents_of(ideal: FractionalIdeal) -> list[int]:
        """Factor an ideal class over the generator primes, via an auxiliary
        element when the ideal's own norm is not smooth."""
        nrm = ideal.norm()
        if pt.prime_to(abs(nrm.numerator) * nrm.denominator, gen_ps) == 1:
            return [ideal.valuation(pr) for pr in gen_primes]
        coords = smooth_element(ideal, gen_ps)
        if coords is None:
            raise SearchExhausted("no smooth representative found for the ideal class")
        # (x) = ideal * cofactor with a smooth integral cofactor, so
        # [ideal] = -[cofactor] = v(ideal) - v(x)
        x = field.from_basis_coords(coords, ideal.den)
        return [ideal.valuation(pr) - pr.valuation(x) for pr in gen_primes]

    quotient = ck
    if places.prime_ideals:
        # S-quotient: kill the classes of the S-primes.  The columns of
        # diag(ck.factors) are among its relations, so its projection
        # composes with ck's into one presentation on the generator primes
        s_coords = [ck.project(exponents_of(pr.ideal)) for pr in places.prime_ideals]
        sub = presented_hom_cokernel(IntMatrix.from_cols(s_coords, len(ck.factors)),
                                     IntMatrix.diagonal(ck.factors))
        verify(sub.group.free_rank == 0, "the S-class group is finite")
        quotient = Cokernel(sub.group, sub.basis_change * ck.basis_change, sub.factors,
                            tuple(tuple(combine_rows(g, ck.generators))
                                  for g in sub.generators))
    group = quotient.group.torsion

    def dlog(ideal: FractionalIdeal) -> tuple[int, ...]:
        return quotient.project(exponents_of(ideal))

    gens = [FractionalIdeal.product(field, ((pr.ideal, e) for pr, e in zip(gen_primes, exp)))
            for exp in quotient.generators]
    return ClassGroupData(field, places, group, tuple(gens), "computed", dlog)


# ---------------------------------------------------------------------------
# unit groups


class UnitGroupData:
    """The S-unit group, presented on the generators [torsion, free...]:
    1 + rank of them, with the one relation torsion_order * torsion."""

    def __init__(self, field: NumberField, places: PlaceSet, rank: int,
                 torsion_order: int, torsion_gen: Optional[NFElement], free_gens: tuple,
                 provenance: str, nm1_images: Optional[tuple] = None):
        self.field = field
        self.places = places
        self.rank = rank
        self.torsion_order = torsion_order
        self.torsion_gen = torsion_gen
        self.free_gens = free_gens  # NFElements; field units first, then S-unit generators
        self.provenance = provenance
        # asserted images of the unit norm map, one column per generator
        # (ingested only)
        self.nm1_images = nm1_images

    def group(self) -> FinGenAbGroup:
        t = (self.torsion_order,) if self.torsion_order > 1 else ()
        return FinGenAbGroup(self.rank, FiniteAbelianGroup(t))

    @property
    def relations(self) -> IntMatrix:
        """The relation matrix of the presentation, one row per generator."""
        return IntMatrix.from_rows([[self.torsion_order]] + [[0]] * self.rank)

    def generators(self) -> tuple:
        """The elements (torsion_gen, *free_gens); raises NeedsBackendData
        for a group ingested without them."""
        if self.torsion_gen is None or len(self.free_gens) < self.rank:
            raise NeedsBackendData(f"the unit group of {self.field.label} was "
                                   "ingested without its generators")
        return (self.torsion_gen,) + tuple(self.free_gens)

    def element(self, exps) -> NFElement:
        """The unit with the given exponents on the generators."""
        u = self.field.one()
        for g, e in zip(self.generators(), exps):
            if e:
                u = u * g**e
        return u

    def dlog(self, u: NFElement) -> tuple[int, tuple[int, ...]]:
        """Write u = torsion_gen^t * prod free_gens^e_i exactly; raises
        ValueError if u is not an S-unit of this group."""
        return _unit_dlog(self, u)


def unit_group(field: NumberField, places: PlaceSet, store=None) -> UnitGroupData:
    if store is not None:
        _, hit = store.lookup(field, places)
        if hit is not None:
            return hit
    return _unit_group_builtin(field, places)


def has_order(x: NFElement, w: int) -> bool:
    """Whether x has order exactly w: x^w = 1, and x^(w/q) != 1 for each
    prime q dividing w.  A root of unity of order w in a field of degree n
    has phi(w) <= n, and phi(w) >= sqrt(w/2), so w > 2n^2 never occurs."""
    if w > 2 * x.field.degree ** 2:
        return False
    return (x ** w).is_rational_value() == 1 and all(
        (x ** (w // q)).is_rational_value() != 1
        for q in pt.divisors(w) if pt.is_prime(q))


def computed_unit_group(places: PlaceSet, torsion_gen: NFElement, w: int,
                        field_units) -> UnitGroupData:
    """The S-unit group from a generator of the roots of unity, of order w,
    and a basis of the units: appends the S-unit generators and checks the
    torsion order and Dirichlet's rank."""
    field = places.field
    verify(has_order(torsion_gen, w), f"the torsion generator has order {w}")
    for u in field_units:
        verify(abs(u.norm()) == 1 and u.is_integral(), "field units are units")
    free_gens = tuple(field_units) + tuple(_s_unit_generators(field, places))
    verify(len(free_gens) == places.unit_rank,
           "the free generators match the Dirichlet rank")
    return UnitGroupData(field, places, places.unit_rank, w, torsion_gen, free_gens,
                         "computed")


def _unit_group_builtin(field: NumberField, places: PlaceSet) -> UnitGroupData:
    n = field.degree
    r1, r2 = field.signature
    if n == 1:
        torsion_gen, w = field.rational(-1), 2
        field_units: list[NFElement] = []
    elif n == 2 and r2 == 1:
        d0 = field.discriminant
        if d0 == -3:
            # order-6 generator: the integral basis element is either zeta_6
            # or zeta_3 depending on the chosen generator of the field
            b = field.basis_element(1)
            if (b ** 3).is_rational_value() == 1:
                b = -(b * b)
            torsion_gen, w = b, 6
        elif d0 == -4:
            torsion_gen, w = field.basis_element(1), 4  # i
        else:
            torsion_gen, w = field.rational(-1), 2
        field_units = []
    elif n == 2 and r1 == 2:
        torsion_gen, w = field.rational(-1), 2
        field_units = [_real_quadratic_fundamental_unit(field)]
    elif field.root_of_unity_order in (5, 7):
        m = field.root_of_unity_order
        z = field.gen()
        torsion_gen, w = -(z ** ((m + 1) // 2)), 2 * m
        # cyclotomic units (1 - z^a)/(1 - z); enough here since h(Q(zeta_m)) = 1
        one = field.one()
        field_units = [(one - z**a) / (one - z) for a in range(2, (m - 1) // 2 + 1)]
    else:
        raise NeedsBackendData(
            f"unit group of {field.label} is outside the built-in families"
        )
    return computed_unit_group(places, torsion_gen, w, field_units)


def _real_quadratic_fundamental_unit(field: NumberField) -> NFElement:
    """The fundamental unit eps > 1 on the integral basis (1, omega)."""
    d0 = field.discriminant
    x, y = _fundamental_unit_xy(d0)
    el = field.from_basis_coords([(x - d0 % 2 * y) // 2, y])
    verify(abs(el.norm()) == 1, "the fundamental unit has norm +-1")
    return el


@lru_cache(maxsize=None)
def _fundamental_unit_xy(d0: int) -> tuple[int, int]:
    """(x, y) with eps = (x + y sqrt(d0))/2 the fundamental unit > 1 of the
    real quadratic field of discriminant d0, from the continued fraction of
    omega = (e + sqrt(d0))/2, e = d0 mod 2 (Cohen GTM 138, Section 5.7).  The
    units p - q omega with q > 0 and |p - q omega| < 1 are convergents; the
    first one is eps^-1 up to sign, so eps is its conjugate p - q omega'."""
    e, r = d0 % 2, math.isqrt(d0)
    # omega_k = (pk + sqrt(d0)) / qk with 0 < qk | d0 - pk^2 (omega_k is
    # reduced from k = 1 on); convergents p/q
    pk, qk = e, 2
    p, p_prev, q, q_prev = 1, 0, 0, 1
    while True:
        a = (pk + r) // qk
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        if abs((2 * p - e * q) ** 2 - d0 * q * q) == 4:
            # p - q omega' = (2p - e q + q sqrt(d0))/2, as omega' = e - omega
            return 2 * p - e * q, q
        pk = a * qk - pk
        qk = (d0 - pk * pk) // qk


def _s_unit_generators(field: NumberField, places: PlaceSet) -> list[NFElement]:
    """One generator per Z-basis vector of the valuation lattice of S-units,
    i.e. of the kernel of Z^{S_f} -> Cl(O_K)."""
    if places.n_finite == 0:
        return []
    if field.degree == 1:
        return [field.rational(pr.p) for pr in places.prime_ideals]
    no_s = PlaceSet(field, (), ())
    cl = class_group(field, no_s)
    k = len(places.prime_ideals)
    factors = cl.group.invariant_factors
    t = IntMatrix.from_cols([cl.dlog(pr.ideal) for pr in places.prime_ideals], len(factors))
    # Z^{S_f} has no relations, so the kernel is generated by the rows of the
    # canonical HNF of the valuation lattice
    _, lattice = presented_hom_kernel(IntMatrix.from_cols([], k), t,
                                      IntMatrix.diagonal(factors))
    verify(len(lattice) == k, "the valuation lattice of S-units has full rank")
    gens = []
    for row in lattice:
        ideal = FractionalIdeal.product(
            field, ((pr.ideal, e) for pr, e in zip(places.prime_ideals, row)))
        gens.append(principal_generator(ideal))
    return gens


@lru_cache(maxsize=None)
def _infinite_places(min_poly: tuple[int, ...], r1: int) -> tuple[tuple[complex, int], ...]:
    """(root, n_v) for each infinite place: the r1 real roots with n_v = 1,
    then one root of each complex pair with n_v = 2."""
    roots = sorted(pt.complex_roots(min_poly), key=lambda z: abs(z.imag))
    places = tuple((z.real, 1) for z in roots[:r1]) + tuple(
        (z, 2) for z in roots[r1:] if z.imag > 0)
    verify(r1 + 2 * (len(places) - r1) == len(min_poly) - 1,
           "the complex roots come in conjugate pairs")
    return places


def _float_logs(el: NFElement, places) -> list[float | None]:
    """log |sigma_v(el)| per place, None where Horner in floats cancels
    (|sigma_v(el)| tiny next to its terms)."""
    coords = [complex(c) for c in el.coords]
    logs = []
    for z, _ in places:
        value = abs(pt.poly_eval(coords, z))
        terms = pt.poly_eval([abs(c) for c in coords], abs(z))
        logs.append(math.log(value) if value > 1e-6 * terms else None)
    return logs


def _unit_logs(u: NFElement) -> list[float]:
    """log |sigma_v(u)| at each infinite place v of the unit u.  Where Horner
    cancels, u^-1 is large and its log is taken instead; one place lost in
    both follows from sum_v n_v log |sigma_v(u)| = log |N(u)| = 0, and more
    raise UnsupportedCase."""
    places = _infinite_places(u.field.min_poly, u.field.signature[0])
    logs = _float_logs(u, places)
    if None in logs:
        logs = [-y if x is None and y is not None else x
                for x, y in zip(logs, _float_logs(u.inverse(), places))]
    lost = [i for i, x in enumerate(logs) if x is None]
    if len(lost) > 1:
        raise UnsupportedCase(f"{len(lost)} conjugates of a unit are lost to float "
                              "cancellation in the log stage of the unit dlog")
    for i in lost:
        known = sum(n * x for (_, n), x in zip(places, logs) if x is not None)
        logs[i] = -known / places[i][1]
    return logs


def _unit_dlog(data: UnitGroupData, u: NFElement) -> tuple[int, tuple[int, ...]]:
    torsion_gen, *free_gens = data.generators()
    exps = [0] * len(free_gens)
    field_unit_idx = range(len(free_gens))
    # 1. strip S-prime valuations
    if data.places.n_finite:
        prs = data.places.prime_ideals
        uval = [pr.valuation(u) for pr in prs]
        gval = [[pr.valuation(g) for pr in prs] for g in free_gens]
        sol = solve_integer(IntMatrix.from_cols(gval, len(prs)), uval)
        if sol is None:
            raise ValueError("element is not an S-unit for this place set")
        exps = list(sol)
        # the field units are the generators with no S-valuation
        field_unit_idx = [j for j, row in enumerate(gval) if not any(row)]
        for j, e in enumerate(exps):
            if e:
                u = u * free_gens[j] ** (-e)
    if abs(u.norm()) != 1 or not u.is_integral():
        raise ValueError("element is not a unit")
    # 2. infinite part: round a float log solve, then verify exactly below
    if field_unit_idx:
        cols = [_unit_logs(free_gens[j]) for j in field_unit_idx]
        guess = _round_log_solve(cols, _unit_logs(u))
        if guess is None:
            raise ValueError("unit does not lie in the generated group")
        for j, e in zip(field_unit_idx, guess):
            if e:
                exps[j] += e
                u = u * free_gens[j] ** (-e)
    # 3. torsion match
    acc = data.field.one()
    for t in range(data.torsion_order):
        if (u - acc).is_zero():
            return t, tuple(exps)
        acc = acc * torsion_gen
    raise ValueError("unit does not lie in the generated group")


def _round_log_solve(cols, target):
    """Solve sum_j e_j cols[j] = target with integer e by least squares on
    the float logs (the normal equations solved exactly) plus rounding; the
    caller re-verifies exactly."""
    k = len(cols)
    n = len(target)
    a = [[sum(cols[i][t] * cols[j][t] for t in range(n)) for j in range(k)]
         for i in range(k)]
    b = [sum(cols[i][t] * target[t] for t in range(n)) for i in range(k)]
    sol = solve_rational(a, b)
    if sol is None:
        return None
    out = [round(x) for x in sol]
    for t in range(n):
        resid = target[t] - sum(out[j] * cols[j][t] for j in range(k))
        if abs(resid) > 1e-5:
            return None
    return out


# ---------------------------------------------------------------------------
# ingestion backend for externally computed data

FIXTURE_SCHEMA = "sl2tate-fixture-1"
_NOUNS = {int: "integer", str: "string", dict: "object", Fraction: "coordinate"}


def _noun(shape) -> str:
    """The shape as the README writes it: [integer] is a list of integers."""
    return f"[{_noun(shape[0])}]" if type(shape) is list else _NOUNS[shape]


def _read(value, shape):
    """The value if it has the shape, with coordinates as Fractions; else None."""
    if type(shape) is list:
        items = [_read(x, shape[0]) for x in value] if type(value) is list else [None]
        return None if None in items else items
    if shape is not Fraction:
        return value if type(value) is shape else None
    if type(value) is int:
        return Fraction(value)
    pair = type(value) is list and len(value) == 2 and all(type(x) is int for x in value)
    return Fraction(*value) if pair and value[1] else None


def schema_entry(doc, path: str, shape):
    """The value at a dotted path (e.g. "unit_group.rank") of a fixture or
    scenario document in its shape: int (not a bool), str, dict, Fraction (a
    coordinate: an integer or a [num, den] pair, den != 0) or [shape], a list
    of that shape.  Raises SchemaViolation for a missing key or another shape."""
    value, keys = doc, path.split(".")
    for i, key in enumerate(keys):
        if type(value) is not dict:
            raise SchemaViolation(f"{'.'.join(keys[:i]) or 'the document'} must be a JSON object")
        if key not in value:
            raise SchemaViolation(f"missing required key {'.'.join(keys[:i + 1])!r}")
        value = value[key]
    out = _read(value, shape)
    if out is None:
        raise SchemaViolation(f"{path} must have the shape {_noun(shape)}")
    return out


def check_schema(doc) -> None:
    """Raise SchemaViolation unless the document declares FIXTURE_SCHEMA."""
    schema = schema_entry(doc, "schema", str)
    if schema != FIXTURE_SCHEMA:
        raise SchemaViolation(f"unknown fixture schema {schema!r}")


def schema_checked(build, *args):
    """build(*args) on values read from a document: a value that build
    rejects with ValueError (a composite place, an invariant factor below 2) is
    malformed, so it raises SchemaViolation."""
    try:
        return build(*args)
    except ValueError as e:
        raise SchemaViolation(str(e)) from None


class BackendStore:
    """Registry of ingested S-invariant data, keyed by (field, S).

    Ingested data wholly overrides the built-in computations for its key;
    registration is exclusive (a second document for the same key is an
    error, never a silent merge)."""

    def __init__(self):
        self._records: dict = {}

    def register(self, places: PlaceSet, class_data, unit_data):
        """Record the data of a key that lookup finds empty."""
        self._records[(places.field, places.rational_primes)] = (class_data, unit_data)

    def lookup(self, field, places):
        """The ClassGroupData and UnitGroupData ingested for (field, S), each
        None where the fixture had no such section."""
        return self._records.get((field, places.rational_primes), (None, None))

    def holds_class_group(self, degree: int) -> bool:
        """Whether a class group of some field of this degree was ingested."""
        return any(cl is not None and field.degree == degree
                   for (field, _), (cl, _) in self._records.items())


def _element(field: NumberField, coords) -> NFElement:
    if len(coords) > field.degree:
        raise SchemaViolation("too many coordinates for the field degree")
    return field.element(coords)


def ingest_backend(store: BackendStore, document: dict):
    """Validate a fixture document and register its data; raises
    SchemaViolation for malformed input and ConsistencyFailure when the
    claimed data contradicts what can be checked in-process."""
    check_schema(document)
    kind = schema_entry(document, "kind", str) if "kind" in document else "s-invariants"
    if kind == "restriction-scenario":
        return  # read by the restrict command
    if kind != "s-invariants":
        raise SchemaViolation(f"unknown fixture kind {kind!r}")
    provenance = f"ingested:{schema_entry(document, 'trust', str)}"
    fdoc = schema_entry(document, "field", dict)
    basis = schema_entry(document, "field.basis", [[Fraction]]) if "basis" in fdoc else None
    label = schema_entry(document, "field.label", str) if "label" in fdoc else None
    min_poly = schema_entry(document, "field.min_poly", [int])
    rational_primes = schema_entry(document, "places", [int])
    cdoc = schema_entry(document, "class_group", dict) if "class_group" in document else None
    factors = None if cdoc is None else schema_entry(document, "class_group.invariant_factors",
                                                     [int])
    n = len(min_poly) - 1
    if basis is not None and any(len(row) != n for row in (basis, *basis)):
        raise SchemaViolation(f"field.basis must be {n} rows of {n} coordinates")
    field = make_field(min_poly, basis=basis, label=label)
    places = schema_checked(PlaceSet.make, field, rational_primes)
    group = None if cdoc is None else schema_checked(FiniteAbelianGroup, tuple(factors))
    if store.lookup(field, places) != (None, None):
        raise SchemaViolation("data already registered for this field and place set")

    cl_data = None
    if cdoc is not None:
        gens = []
        for gspec in (schema_entry(document, "class_group.generator_ideals", [[[Fraction]]])
                      if "generator_ideals" in cdoc else ()):
            els = [_element(field, g) for g in gspec]
            if not any(els):
                raise SchemaViolation("a generator ideal needs a nonzero generator")
            gens.append(FractionalIdeal.from_generators(field, els))
        if gens and len(gens) != len(group.invariant_factors):
            raise ConsistencyFailure(
                "generator ideal count does not match the invariant factors")
        cl_data = ClassGroupData(field, places, group, tuple(gens), provenance, None)

    un_data = None
    if "unit_group" in document:
        udoc = schema_entry(document, "unit_group", dict)
        rank = schema_entry(document, "unit_group.rank", int)
        w = schema_entry(document, "unit_group.torsion_order", int)
        nm1 = (tuple(map(tuple, schema_entry(document, "norm_images.nm1", [[int]])))
               if "norm_images" in document else None)
        if rank != places.unit_rank:
            raise ConsistencyFailure(
                f"unit rank {rank} contradicts the rank formula value {places.unit_rank}")
        if w % 2 != 0 or w < 2:
            raise ConsistencyFailure(f"torsion order {w} is not an even integer >= 2")
        torsion_gen = None
        if "torsion_gen" in udoc:
            torsion_gen = _element(field, schema_entry(document, "unit_group.torsion_gen",
                                                       [Fraction]))
            if not has_order(torsion_gen, w):
                raise ConsistencyFailure("claimed torsion generator has wrong order")
        free_gens = tuple(_element(field, g) for g in (
            schema_entry(document, "unit_group.free_gens", [[Fraction]])
            if "free_gens" in udoc else ()))
        if free_gens and len(free_gens) != rank:
            raise ConsistencyFailure("free generator count does not match the rank")
        for g in free_gens:
            nrm = g.norm()
            if pt.prime_to(abs(nrm.numerator) * nrm.denominator,
                           places.rational_primes) != 1:
                raise ConsistencyFailure("claimed generator is not an S-unit")
        un_data = UnitGroupData(field, places, rank, w, torsion_gen, free_gens,
                                provenance, nm1)

    if cl_data is None and un_data is None:
        raise SchemaViolation("fixture carries neither class_group nor unit_group")
    store.register(places, cl_data, un_data)
