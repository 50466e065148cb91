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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import sympy

from .errors import (
    ConsistencyFailure,
    InvalidInput,
    NeedsBackendData,
    RelationSearchIncomplete,
    SchemaViolation,
    SearchExhausted,
    verify,
)
from .ideals import (
    FractionalIdeal,
    PrimeIdeal,
    factor_rational_prime,
    principal_generator,
    search_elements,
)
from .intlinalg import (
    FiniteAbelianGroup,
    FinGenAbGroup,
    IntMatrix,
    cokernel,
    hnf_canonical,
    kernel,
    snf,
    solve_integer,
    subgroup_quotient,
    xgcd,
)
from .numberfield import NFElement, NumberField


# ---------------------------------------------------------------------------
# places


@dataclass(frozen=True)
class PlaceSet:
    """The infinite places together with all primes above the given rational
    primes."""
    field: NumberField
    rational_primes: tuple[int, ...]
    prime_ideals: tuple[PrimeIdeal, ...]

    @staticmethod
    def make(field: NumberField, rational_primes: Sequence[int] = ()) -> "PlaceSet":
        primes = sorted(set(int(p) for p in rational_primes))
        for p in primes:
            if p < 2 or not sympy.isprime(p):
                raise InvalidInput(f"{p} is not a prime")
        ideals = []
        for p in primes:
            ideals.extend(factor_rational_prime(field, p))
        return PlaceSet(field, tuple(primes), tuple(ideals))

    @property
    def n_finite(self) -> int:
        return len(self.prime_ideals)


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
    divisors = sorted(sympy.divisors(h))
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
        for d in sorted(sympy.divisors(rest)):
            if d > 1 and (not chain or chain[-1] % d == 0):
                rec(rest // d, chain + [d])

    rec(h, [])
    return out


# ---------------------------------------------------------------------------
# class groups


@dataclass
class ClassGroupData:
    field: NumberField
    places: PlaceSet
    group: FiniteAbelianGroup
    generator_ideals: tuple[FractionalIdeal, ...]
    provenance: str  # "computed" | "ingested:<trust>"
    _dlog: Optional[Callable] = None

    def dlog(self, ideal: FractionalIdeal) -> tuple[int, ...]:
        if self._dlog is None:
            raise NeedsBackendData("no discrete log available for this class group")
        return self._dlog(ideal)


# a lower bound for pi: comparing with it can only err upward, and a larger
# Minkowski bound only adds generator primes
_PI_BELOW = Fraction(314159265358979, 10**14)


def minkowski_bound(field: NumberField) -> int:
    """The floor of n!/n^n (4/pi)^r2 sqrt|d|, exactly: the largest m with
    m^2 n^(2n) pi^(2 r2) <= (n!)^2 4^(2 r2) |d|."""
    n = field.degree
    _, r2 = field.signature
    m_sq = (Fraction(math.factorial(n) ** 2 * 16**r2 * abs(field.discriminant), n ** (2 * n))
            / _PI_BELOW ** (2 * r2))
    return math.isqrt(math.floor(m_sq))


_BOX_SCHEDULE = (4, 6, 8, 10, 16, 24, 40, 80, 160, 320, 640)


def class_group(field: NumberField, places: PlaceSet, store=None) -> ClassGroupData:
    """S-class group.  Fixture data (if registered for this field and place
    set) wins; otherwise the bounded built-in computation runs for degree <= 4."""
    if store is not None:
        hit = store.lookup_class_group(field, places)
        if hit is not None:
            return hit
    if field.degree > 4:
        raise NeedsBackendData(
            f"class group of degree {field.degree} is outside the built-in range"
        )
    return _finish_class_group(field, places, *_class_group_relations(field))


@lru_cache(maxsize=None)
def _class_group_relations(field: NumberField):
    """The generator primes (all primes up to the Minkowski bound) and the
    relation columns among them.  Neither depends on S, so the search runs
    once per field; the S-quotient is taken in _finish_class_group."""
    n = field.degree
    mb = minkowski_bound(field)
    gen_primes: list[PrimeIdeal] = []
    for p in range(2, mb + 1):
        if sympy.isprime(p):
            gen_primes.extend(factor_rational_prime(field, p))
    if not gen_primes:
        return (), None

    rationals = sorted({pr.p for pr in gen_primes})
    power_cache: dict[tuple[int, int], FractionalIdeal] = {}

    def prime_power(idx, k):
        key = (idx, k)
        if key not in power_cache:
            prime = gen_primes[idx].ideal
            power_cache[key] = prime if k == 1 else prime_power(idx, k - 1) * prime
        return power_cache[key]

    def element_valuations(coords, norm_abs) -> list[int] | None:
        """Exponent vector of (alpha) over gen_primes, or None if not smooth."""
        fac = {}
        m = norm_abs
        for p in rationals:
            while m % p == 0:
                fac[p] = fac.get(p, 0) + 1
                m //= p
        if m != 1:
            return None
        vec = [0] * len(gen_primes)
        for p, a_p in fac.items():
            total = 0
            for idx, pr in enumerate(gen_primes):
                if pr.p != p:
                    continue
                v = 0
                while v * pr.f < a_p and prime_power(idx, v + 1).contains_coords(coords):
                    v += 1
                vec[idx] = v
                total += v * pr.f
            verify(total == a_p, "the valuations cover the p-part of the norm")
        return vec

    # (p) itself is a relation; needed since the primitive-element search
    # below never sees elements divisible by an inert prime
    relations: list[list[int]] = [
        [pr.e if pr.p == p else 0 for pr in gen_primes] for p in rationals
    ]
    prev_order = None
    done = False
    seen_box = 0
    # for quadratic fields the relation connecting two generator primes p, q
    # comes from an element of norm p*q <= mb^2, whose coordinates stay
    # below about mb; do not accept stability before the box covers that
    min_stable_box = mb + 2 if n == 2 else 0
    for box in _BOX_SCHEDULE:
        for combo in itertools.product(range(-box, box + 1), repeat=n):
            if all(abs(c) <= seen_box for c in combo):
                continue
            if not any(combo):
                continue
            if math.gcd(*[abs(c) for c in combo]) > 1:
                continue
            nrm = field.norm_of_int_coords(combo)
            vec = element_valuations(combo, abs(nrm))
            if vec is not None and any(vec):
                relations.append(vec)
        seen_box = box
        if relations:
            lattice = hnf_canonical(IntMatrix.from_rows(relations))
            if lattice.nrows == len(gen_primes):
                order = math.prod(snf(lattice))
                if order == prev_order and box >= min_stable_box:
                    done = True
                    break
                prev_order = order
    if not done:
        raise RelationSearchIncomplete(
            f"class-group relations of {field.label} did not stabilize "
            f"up to box {_BOX_SCHEDULE[-1]}"
        )
    return tuple(gen_primes), IntMatrix.from_rows(relations).transpose()


def _finish_class_group(field, places, gen_primes, rel_cols) -> ClassGroupData:
    k = len(gen_primes)
    if k == 0:
        group = FiniteAbelianGroup(())
        return ClassGroupData(field, places, group, (), "computed", lambda ideal: ())

    ck = cokernel(rel_cols)
    verify(ck.group.free_rank == 0, "the relation lattice has full rank")

    def exponents_of(ideal: FractionalIdeal) -> list[int]:
        """Factor an ideal class over the generator primes, via an auxiliary
        element when the ideal's own norm is not smooth."""
        nrm = ideal.norm()
        m = abs(nrm.numerator) * nrm.denominator
        for pr in gen_primes:
            while m % pr.p == 0:
                m //= pr.p
        if m == 1:
            return [ideal.valuation(pr) for pr in gen_primes]
        for el, enrm in search_elements(ideal):
            ratio = enrm / nrm
            if ratio.denominator != 1:
                continue
            cof = abs(int(ratio))
            for pr in gen_primes:
                while cof % pr.p == 0:
                    cof //= pr.p
            if cof == 1:
                cofactor = FractionalIdeal.principal(field, el) * ideal.inverse()
                # [ideal] = -[cofactor] since (el) is principal
                return [-cofactor.valuation(pr) for pr in gen_primes]
        raise SearchExhausted("no smooth representative found for the ideal class")

    # S-quotient: kill the classes of the S-primes
    s_coords = [ck.project(exponents_of(pr.ideal)) for pr in places.prime_ideals]
    sub = subgroup_quotient(list(ck.factors), s_coords)
    verify(sub.group.free_rank == 0, "the S-class group is finite")
    group = sub.group.torsion

    def dlog(ideal: FractionalIdeal) -> tuple[int, ...]:
        return sub.project(ck.project(exponents_of(ideal)))

    gens = []
    for gvec in sub.generators:
        # pull back: sub generator -> ck generator coords -> prime exponents
        exp = [0] * k
        for coeff, amb in zip(gvec, ck.generators):
            for i in range(k):
                exp[i] += coeff * amb[i]
        ideal = FractionalIdeal.unit(field)
        for i, e in enumerate(exp):
            if e:
                ideal = ideal * gen_primes[i].ideal ** e
        gens.append(ideal)
    return ClassGroupData(field, places, group, tuple(gens), "computed", dlog)


# ---------------------------------------------------------------------------
# unit groups


@dataclass
class UnitGroupData:
    field: NumberField
    places: PlaceSet
    rank: int
    torsion_order: int
    torsion_gen: Optional[NFElement]
    free_gens: tuple  # NFElements; field units first, then S-unit generators
    provenance: str

    def group(self) -> FinGenAbGroup:
        t = (self.torsion_order,) if self.torsion_order > 1 else ()
        return FinGenAbGroup(self.rank, FiniteAbelianGroup(t))

    def dlog(self, u: NFElement) -> tuple[int, tuple[int, ...]]:
        """Write u = torsion_gen^t * prod free_gens^e_i exactly; raises
        ValueError if u is not an S-unit of this group."""
        return _unit_dlog(self, u)


def unit_group(field: NumberField, places: PlaceSet, store=None) -> UnitGroupData:
    if store is not None:
        hit = store.lookup_unit_group(field, places)
        if hit is not None:
            return hit
    return _unit_group_builtin(field, places)


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
    verify((torsion_gen ** w).is_rational_value() == 1, "torsion generator order")
    if w > 2:
        verify((torsion_gen ** (w // 2)).is_rational_value() == -1, "torsion generator order")
    for u in field_units:
        verify(abs(u.norm()) == 1 and u.is_integral(), "field units are units")

    s_gens = _s_unit_generators(field, places)
    rank = r1 + r2 - 1 + places.n_finite
    free_gens = tuple(field_units) + tuple(s_gens)
    verify(len(free_gens) == rank, "the free generators match the Dirichlet rank")
    return UnitGroupData(field, places, rank, w, torsion_gen, free_gens, "computed")


def _real_quadratic_fundamental_unit(field: NumberField) -> NFElement:
    d0 = field.discriminant
    y = 1
    while y <= 10**6:
        for s in (-4, 4):
            x2 = d0 * y * y + s
            if x2 > 0:
                x = math.isqrt(x2)
                if x * x == x2:
                    if d0 % 4 == 1:
                        # omega = (1+sqrt(d0))/2, eps = (x + y sqrt(d0))/2
                        el = field.from_basis_coords([Fraction(x - y, 2), y])
                    else:
                        # omega = sqrt(d0)/2
                        el = field.from_basis_coords([Fraction(x, 2), y])
                    verify(abs(el.norm()) == 1, "the fundamental unit has norm +-1")
                    return el
        y += 1
    raise SearchExhausted(f"no fundamental unit found for discriminant {d0}")


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
    if cl.group.is_trivial:
        lattice = IntMatrix.identity(k)
    else:
        coords = [cl.dlog(pr.ideal) for pr in places.prime_ideals]
        nf = len(cl.group.invariant_factors)
        t = IntMatrix.from_rows([[c[i] for c in coords] for i in range(nf)])
        rel = IntMatrix.from_rows(
            [[d if i == j else 0 for j in range(nf)]
             for i, d in enumerate(cl.group.invariant_factors)]
        )
        kern = kernel(t.augment(rel))
        lattice = hnf_canonical(
            IntMatrix.from_rows([list(kern.row(i)[:k]) for i in range(kern.nrows)])
        )
    verify(lattice.nrows == k, "the valuation lattice of S-units has full rank")
    gens = []
    for i in range(lattice.nrows):
        ideal = FractionalIdeal.unit(field)
        for j, e in enumerate(lattice.row(i)):
            if e:
                ideal = ideal * places.prime_ideals[j].ideal ** e
        gens.append(principal_generator(ideal))
    return gens


@lru_cache(maxsize=None)
def _complex_embeddings(min_poly: tuple[int, ...]):
    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(c * x**i for i, c in enumerate(min_poly)), x)
    return tuple(complex(r) for r in poly.nroots(n=60))


def _embed_numeric(el: NFElement):
    roots = _complex_embeddings(el.field.min_poly)
    out = []
    for r in roots:
        acc = 0j
        for c in reversed(el.coords):
            acc = acc * r + complex(c)
        out.append(acc)
    return out


def _unit_dlog(data: UnitGroupData, u: NFElement) -> tuple[int, tuple[int, ...]]:
    field = data.field
    exps = [0] * len(data.free_gens)
    field_unit_idx = range(len(data.free_gens))
    # 1. strip S-prime valuations
    if data.places.n_finite:
        prs = data.places.prime_ideals
        uval = [FractionalIdeal.principal(field, u).valuation(pr) for pr in prs]
        gval = [[FractionalIdeal.principal(field, g).valuation(pr) for pr in prs]
                for g in data.free_gens]
        mat = IntMatrix.from_rows([[gval[j][i] for j in range(len(data.free_gens))]
                                   for i in range(len(prs))])
        sol = solve_integer(mat, uval)
        if sol is None:
            raise ValueError("element is not an S-unit for this place set")
        exps = list(sol)
        # the field units are the generators with no S-valuation
        field_unit_idx = [j for j, row in enumerate(gval) if not any(row)]
        for j, e in enumerate(exps):
            if e:
                u = u * data.free_gens[j] ** (-e)
    if abs(u.norm()) != 1 or not u.is_integral():
        raise ValueError("element is not a unit")
    # 2. infinite part: round a float log solve, then verify exactly below
    if field_unit_idx:
        logs_u = [math.log(abs(z)) for z in _embed_numeric(u)]
        cols = [[math.log(abs(z)) for z in _embed_numeric(data.free_gens[j])]
                for j in field_unit_idx]
        guess = _round_log_solve(cols, logs_u)
        if guess is None:
            raise ValueError("unit does not lie in the generated group")
        for j, e in zip(field_unit_idx, guess):
            if e:
                exps[j] += e
                u = u * data.free_gens[j] ** (-e)
    # 3. torsion match
    acc = field.one()
    for t in range(data.torsion_order):
        if (u - acc).is_zero():
            return t, tuple(exps)
        acc = acc * data.torsion_gen
    raise ValueError("unit does not lie in the generated group")


def _round_log_solve(cols, target):
    """Solve sum_j e_j cols[j] = target with integer e by float least squares
    plus rounding; the caller re-verifies exactly."""
    k = len(cols)
    n = len(target)
    a = [[sum(cols[i][t] * cols[j][t] for t in range(n)) for j in range(k)]
         for i in range(k)]
    b = [sum(cols[i][t] * target[t] for t in range(n)) for i in range(k)]
    try:
        sol = _float_solve(a, b)
    except ZeroDivisionError:
        return None
    out = [round(x) for x in sol]
    for t in range(n):
        resid = target[t] - sum(out[j] * cols[j][t] for j in range(k))
        if abs(resid) > 1e-5:
            return None
    return out


def _float_solve(a, b):
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for c in range(n):
        piv = max(range(c, n), key=lambda i: abs(m[i][c]))
        if abs(m[piv][c]) < 1e-12:
            raise ZeroDivisionError
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# ingestion backend for externally computed data

FIXTURE_SCHEMA = "sl2tate-fixture-1"


class BackendStore:
    """Registry of ingested S-invariant data, keyed by (field, S).

    Ingested data wholly overrides the built-in computations for its key;
    registration is exclusive (a second document for the same key is an
    error, never a silent merge)."""

    def __init__(self):
        self._class: dict = {}
        self._unit: dict = {}
        self._raw: dict = {}
        self.documents: list = []

    @staticmethod
    def _key(field: NumberField, places: PlaceSet):
        return (field.min_poly, field.basis, places.rational_primes)

    def lookup_class_group(self, field, places):
        return self._class.get(self._key(field, places))

    def lookup_unit_group(self, field, places):
        return self._unit.get(self._key(field, places))

    def lookup_raw(self, field, places):
        return self._raw.get(self._key(field, places))


def _parse_element(field: NumberField, spec) -> NFElement:
    """Power-basis coordinates: a list of ints, or of [num, den] pairs."""
    if not isinstance(spec, list):
        raise SchemaViolation("element must be a coordinate list")
    coords = []
    for c in spec:
        if isinstance(c, int):
            coords.append(Fraction(c))
        elif isinstance(c, list) and len(c) == 2 and all(isinstance(x, int) for x in c):
            coords.append(Fraction(c[0], c[1]))
        else:
            raise SchemaViolation(f"bad coordinate {c!r}")
    if len(coords) > field.degree:
        raise SchemaViolation("too many coordinates for the field degree")
    coords += [Fraction(0)] * (field.degree - len(coords))
    return field.element(coords)


def ingest_backend(store: BackendStore, document: dict):
    """Validate a fixture document and register its data; raises
    SchemaViolation for malformed input and ConsistencyFailure when the
    claimed data contradicts what can be checked in-process."""
    if not isinstance(document, dict):
        raise SchemaViolation("fixture must be a JSON object")
    if document.get("schema") != FIXTURE_SCHEMA:
        raise SchemaViolation(f"unknown fixture schema {document.get('schema')!r}")
    kind = document.get("kind", "s-invariants")
    if kind != "s-invariants":
        # other kinds (e.g. restriction scenarios) are carried verbatim
        store.documents.append(document)
        return document
    for req in ("field", "places", "trust"):
        if req not in document:
            raise SchemaViolation(f"missing required key {req!r}")
    fdoc = document["field"]
    if "min_poly" not in fdoc:
        raise SchemaViolation("field.min_poly required")
    from .numberfield import make_field

    field = make_field(fdoc["min_poly"], basis=fdoc.get("basis"),
                       label=fdoc.get("label"))
    try:
        places = PlaceSet.make(field, document["places"])
    except ValueError as e:
        raise SchemaViolation(str(e))
    trust = document["trust"]
    provenance = f"ingested:{trust}"
    key = BackendStore._key(field, places)
    if key in store._class or key in store._unit:
        raise SchemaViolation("data already registered for this field and place set")

    cl_data = None
    if "class_group" in document:
        cdoc = document["class_group"]
        try:
            group = FiniteAbelianGroup(tuple(cdoc["invariant_factors"]))
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaViolation(f"bad class_group section: {e}")
        gens = []
        for gspec in cdoc.get("generator_ideals", []):
            els = [_parse_element(field, g) for g in gspec]
            gens.append(FractionalIdeal.from_generators(field, els))
        if gens and len(gens) != len(group.invariant_factors):
            raise ConsistencyFailure(
                "generator ideal count does not match the invariant factors")
        cl_data = ClassGroupData(field, places, group, tuple(gens), provenance, None)

    un_data = None
    if "unit_group" in document:
        udoc = document["unit_group"]
        for req in ("rank", "torsion_order"):
            if req not in udoc:
                raise SchemaViolation(f"unit_group.{req} required")
        rank = udoc["rank"]
        w = udoc["torsion_order"]
        r1, r2 = field.signature
        expected = r1 + r2 - 1 + places.n_finite
        if rank != expected:
            raise ConsistencyFailure(
                f"unit rank {rank} contradicts the rank formula value {expected}")
        if w % 2 != 0 or w < 2:
            raise ConsistencyFailure(f"torsion order {w} is not an even integer >= 2")
        torsion_gen = None
        if "torsion_gen" in udoc:
            torsion_gen = _parse_element(field, udoc["torsion_gen"])
            if (torsion_gen ** w).is_rational_value() != 1 or (
                w > 2 and (torsion_gen ** (w // 2)).is_rational_value() != -1
            ):
                raise ConsistencyFailure("claimed torsion generator has wrong order")
        free_gens = tuple(_parse_element(field, g) for g in udoc.get("free_gens", []))
        if free_gens and len(free_gens) != rank:
            raise ConsistencyFailure("free generator count does not match the rank")
        for g in free_gens:
            nrm = g.norm()
            m = abs(nrm.numerator) * nrm.denominator
            for p in places.rational_primes:
                while m % p == 0:
                    m //= p
            if m != 1:
                raise ConsistencyFailure("claimed generator is not an S-unit")
        un_data = UnitGroupData(field, places, rank, w, torsion_gen, free_gens,
                                provenance)

    if cl_data is None and un_data is None:
        raise SchemaViolation("fixture carries neither class_group nor unit_group")
    if cl_data is not None:
        store._class[key] = cl_data
    if un_data is not None:
        store._unit[key] = un_data
    store._raw[key] = document
    store.documents.append(document)
    return document
