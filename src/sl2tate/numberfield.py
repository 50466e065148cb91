"""Number fields presented as Q[x]/(f) with an explicit integral basis.

An element x is stored as (num, den): the integer integral-basis coordinates
of den * x and the least positive den that makes them integers, the same
coordinates the ideal layer uses.  Products go through the integral-basis
multiplication table, norms through norm_of_int_coords (up to degree 4
by Horner on norm_line, the norm form restricted to a line).  Power-basis
coordinates over the defining root theta appear only at the input/output
boundary (NumberField.element and NFElement.coords).  Integral bases are
stored as a rational matrix over the power basis; closure under
multiplication is verified at construction time.

Built-in maximal orders: Q, quadratic fields, cyclotomic fields.  Anything
else must come with a user-supplied basis (which is still verified).
composite_field works in k1[y]/(f2): polynomials in y with NFElement
coefficients, multiplied and reduced by the polytools division core.  A
FieldEmbedding keeps the image of each integral-basis element of its source,
found once by Horner, as an integer row (over one denominator) on the
target's integral basis; an element maps by one combination of these rows.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from math import gcd, lcm
from typing import Sequence

from . import polytools as pt
from .errors import (
    BasisNotClosed,
    IntegralBasisRequired,
    InvalidInput,
    ReduciblePolynomial,
    verify,
)
from .intlinalg import IntMatrix, combine_rows, inverse_rational, solve_rational


def per_field(fn):
    """Memoise fn(field, *args) on the field object itself: each value is
    computed once per field and lives exactly as long as that field."""
    @wraps(fn)
    def memoised(field, *args):
        key = (fn, *args)
        memo = field._memo
        if key not in memo:
            memo[key] = fn(field, *args)
        return memo[key]
    return memoised


class NumberField:
    def __init__(self, min_poly, basis_rows, label=None, root_of_unity_order=None):
        """Internal; use make_field()."""
        self.min_poly = tuple(int(c) for c in min_poly)
        self.degree = len(self.min_poly) - 1
        self.label = label or f"Q[x]/({self.min_poly})"
        self.root_of_unity_order = root_of_unity_order
        # h(O) where a formula outside the relation search proves it, set by
        # the code that builds the field and can evaluate that formula
        self.class_number: int | None = None
        # basis over the power basis, rows of Fractions
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis_rows)
        n = self.degree
        if len(self.basis) != n or any(len(r) != n for r in self.basis):
            raise InvalidInput("basis must be a square matrix of size deg(f)")
        # element = sum c_i * basis_i means power coords x = B^T c, so the
        # basis coordinates of theta^j are row j of B^-1, kept as the integer
        # rows of E * B^-1 and the least such E
        self._power_basis = self.basis == tuple(tuple(int(i == j) for j in range(n))
                                                for i in range(n))
        try:
            inv = self.basis if self._power_basis else inverse_rational(self.basis)
        except ValueError:
            raise InvalidInput("basis rows are linearly dependent") from None
        self._inv_num, self._inv_den = _over_denominator(inv)
        self._build_mult_table()
        # fields key the fixture store; a large basis is slow to hash
        self._hash = hash((self.min_poly, self.basis))
        # values of the per_field functions, freed with the field
        self._memo: dict = {}

    # -- construction helpers ------------------------------------------------

    def _reduce_poly(self, coeffs: list) -> list:
        """A polynomial in theta of any degree, with integer or rational
        coefficients, modulo the min poly: n power-basis coordinates of the
        same kind.  As f is monic, division needs no inverse (that of the
        leading coefficient 1 is 1) and no normal form."""
        rem = pt.divmod_over(coeffs, self.min_poly, _same, _same)[1]
        return rem + [0] * (self.degree - len(rem))

    def _build_mult_table(self):
        n = self.degree
        if self._power_basis:
            # the power basis: b_i b_j = theta^(i+j), reduced mod the monic f
            pows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(n - 1):
                # theta * theta^k, with theta^n = -(f_0 + ... + f_(n-1) theta^(n-1))
                top = pows[-1][-1]
                pows.append([c - top * f for c, f in zip([0] + pows[-1][:-1], self.min_poly)])
            self._one = tuple(pows[0])
            self.mult_table = tuple(tuple(tuple(pows[i + j]) for j in range(n))
                                    for i in range(n))
            return
        # basis = M / D and B^-1 = N / E: b_i b_j has the power coordinates
        # (M_i M_j mod f) / D^2, so its basis coordinates are
        # ((M_i M_j mod f) N) / (D^2 E), integers exactly when the basis is
        # closed.  The table is symmetric, and the first failing pair in row
        # order lies on or above the diagonal
        m, d = _over_denominator(self.basis)
        inv, e = self._inv_num, self._inv_den
        if any(x % e for x in inv[0]):
            raise BasisNotClosed("1 is not in the span of the basis")
        self._one = tuple(x // e for x in inv[0])
        scale = d * d * e
        table = [[()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                bc = combine_rows(self._reduce_poly(pt.poly_mul(m[i], m[j])), inv)
                if any(x % scale for x in bc):
                    raise BasisNotClosed(
                        f"basis element product b{i}*b{j} is not an integral combination"
                    )
                table[i][j] = table[j][i] = tuple(x // scale for x in bc)
        self.mult_table = tuple(tuple(row) for row in table)

    def int_mult_rows(self, wc) -> list[list[int]]:
        """Multiplication by the element w with integer integral-basis
        coordinates wc: row j holds the coordinates of w * b_j (the table is
        symmetric), so w * v has the coordinates combine_rows(v, rows)."""
        return [combine_rows(wc, products) for products in self.mult_table]

    # -- elements ------------------------------------------------------------

    def element(self, power_coords) -> "NFElement":
        """The element sum_j power_coords[j] * theta^j, of any length."""
        coords = self._reduce_poly([Fraction(x) for x in power_coords])
        return self.from_basis_coords(combine_rows(coords, self._inv_num), self._inv_den)

    def zero(self) -> "NFElement":
        return NFElement(self, (0,) * self.degree)

    def one(self) -> "NFElement":
        return NFElement(self, self._one)

    def gen(self) -> "NFElement":
        if self.degree == 1:
            # theta is rational: x - c has root c
            return self.rational(-self.min_poly[0])
        return self.element([0, 1])

    def rational(self, q) -> "NFElement":
        # gcd(one) = 1, so q in lowest terms gives the element in lowest terms
        return NFElement(self, tuple(q.numerator * c for c in self._one), q.denominator)

    def basis_element(self, i: int) -> "NFElement":
        return NFElement(self, tuple(int(i == j) for j in range(self.degree)))

    def from_basis_coords(self, coords, den: int = 1) -> "NFElement":
        """The element (sum_i coords[i] * b_i) / den, for integer or rational
        coordinates."""
        scale = lcm(*(c.denominator for c in coords))
        return _reduced(self, [int(c * scale) for c in coords], den * scale)

    # -- invariants ----------------------------------------------------------

    @cached_property
    def trace_form(self) -> IntMatrix:
        """Tr(b_i b_j) on the integral basis, from the structure constants:
        Tr(b_k) = sum_i T[k][i][i] and Tr(b_i b_j) = sum_k T[i][j][k] Tr(b_k)."""
        n, t = self.degree, self.mult_table
        tr = [sum(t[k][i][i] for i in range(n)) for k in range(n)]
        return IntMatrix.from_rows([[sum(c * x for c, x in zip(t[i][j], tr))
                                     for j in range(n)] for i in range(n)])

    @cached_property
    def discriminant(self) -> int:
        d = self.trace_form.det()
        verify(d != 0, "the discriminant is non-zero")
        return d

    @cached_property
    def power_basis_index(self) -> int | None:
        """[O : Z[theta]] = |det B^-1| when theta lies in O, that is when B^-1,
        whose rows are the basis coordinates of the powers of theta, is
        integral; None otherwise."""
        if self._power_basis:
            return 1
        if self._inv_den != 1:
            return None
        return abs(IntMatrix.from_rows(self._inv_num).det())

    @cached_property
    def signature(self) -> tuple[int, int]:
        r1 = pt.sturm_real_roots(list(self.min_poly))
        return r1, (self.degree - r1) // 2

    def poly_ring(self) -> tuple:
        """(inverse, reduce) for polytools.divmod_over and gcd_over on
        polynomials with coefficients in this field."""
        return NFElement.inverse, self.zero()._coerce

    def norm_form(self):
        """The multivariate polynomial N(sum x_i b_i) as {exponent: coeff},
        exponents as sorted index tuples.  Only for degree <= 4."""
        n = self.degree
        if n > 4:
            raise ValueError("norm form only built for degree <= 4")
        # matrix sum_k x_k * M_k where M_k is multiplication by b_k
        # entry (i, j): coeff of b_i in b_k * b_j = mult_table[k][j][i]
        entry = [[{(k,): self.mult_table[k][j][i] for k in range(n)
                   if self.mult_table[k][j][i]}
                  for j in range(n)] for i in range(n)]
        return _poly_matrix_det(entry, n)

    @cached_property
    def _norm_lines(self) -> list[list]:
        last = self.degree - 1
        lines = [[] for _ in range(self.degree + 1)]
        for exps, c in self.norm_form().items():
            k = exps.count(last)
            lines[k].append((exps[:len(exps) - k], c))
        return lines

    def norm_line(self, prefix: Sequence[int]) -> list[int]:
        """Coefficients, constant term first, of the degree-n polynomial
        t -> N(prefix_0 b_0 + ... + prefix_{n-2} b_{n-2} + t b_{n-1}).  The
        norm form is split once per field by the power of the last variable
        (it sits at the end of each sorted exponent).  Only for degree <= 4."""
        out = []
        for monomials in self._norm_lines:
            acc = 0
            for exps, c in monomials:
                for i in exps:
                    c *= prefix[i]
                acc += c
            out.append(acc)
        return out

    def norm_of_int_coords(self, coords: Sequence[int]) -> int:
        """N(sum c_i b_i): Horner on norm_line up to degree 4, else the
        determinant of the multiplication matrix."""
        if self.degree > 4:
            return IntMatrix.from_rows(self.int_mult_rows(coords)).det()
        return pt.poly_eval(self.norm_line(coords[:-1]), coords[-1])

    def __repr__(self):
        return f"NumberField({self.label})"

    def __eq__(self, other):
        return (isinstance(other, NumberField) and self.min_poly == other.min_poly
                and self.basis == other.basis)

    def __hash__(self):
        return self._hash


def _same(x):
    return x


def _over_denominator(rows) -> tuple[list[list[int]], int]:
    """(R, d) with rows = R / d: the integer rows R over the least d > 0."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _poly_matrix_det(entry, n):
    """Determinant of a matrix of sparse multivariate polynomials (dicts
    mapping sorted exponent tuples to int coefficients), by permutation
    expansion; n <= 4 keeps this tiny."""
    from itertools import permutations

    def pmul(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(sorted(e1 + e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    total = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        term = {(): 1}
        ok = True
        for i in range(n):
            cell = entry[i][perm[i]]
            if not cell:
                ok = False
                break
            term = pmul(term, cell)
        if not ok:
            continue
        for e, c in term.items():
            total[e] = total.get(e, 0) + sign * c
    return {e: c for e, c in total.items() if c}


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _reduced(field: NumberField, num, den: int) -> "NFElement":
    """The element num / den (den > 0) in lowest terms."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return NFElement(field, tuple(num), den)


class NFElement:
    """x = (sum_i num[i] * b_i) / den over the integral basis b, in lowest
    terms (den > 0, gcd(den, *num) = 1), so equal elements compare and hash
    equal."""
    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not NFElement:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Coordinates over the power basis, for input and output."""
        out = [Fraction(0)] * self.field.degree
        for x, row in zip(self.num, self.field.basis):
            if x:
                for j, y in enumerate(row):
                    out[j] += x * y
        return tuple(c / self.den for c in out)

    def __add__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return _reduced(self.field, [a * x + b * y for x, y in zip(self.num, other.num)],
                        den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return NFElement(self.field, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        # the multiplication rows cost n^2 per nonzero coordinate: build them
        # for the sparser factor
        a, b = self, other
        if sum(map(bool, a.num)) > sum(map(bool, b.num)):
            a, b = b, a
        return _reduced(self.field, combine_rows(b.num, self.field.int_mult_rows(a.num)),
                        a.den * b.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.rational(other)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return pt.power(self, e) if e else self.field.one()

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def norm(self) -> Fraction:
        return Fraction(self.field.norm_of_int_coords(self.num),
                        self.den ** self.field.degree)

    def trace(self) -> Fraction:
        rows = self.field.int_mult_rows(self.num)
        return Fraction(sum(row[j] for j, row in enumerate(rows)), self.den)

    def inverse(self) -> "NFElement":
        if self.is_zero():
            raise ZeroDivisionError
        # y = sum_j v_j b_j with num * y = 1 solves sum_j v_j rows[j] = one
        rows = self.field.int_mult_rows(self.num)
        v = solve_rational(list(zip(*rows)), self.field.one().num)
        return self.field.from_basis_coords([c * self.den for c in v])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def basis_coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_rational_value(self):
        """x as a Fraction when x is rational (num is a multiple of the
        coordinates of 1), else None."""
        one = self.field.one().num
        k = next(i for i, c in enumerate(one) if c)
        if any(x * one[k] != self.num[k] * c for x, c in zip(self.num, one)):
            return None
        return Fraction(self.num[k], one[k] * self.den)

    def __repr__(self):
        return f"NFElement({list(self.num)}, den={self.den})"


# ---------------------------------------------------------------------------


def make_field(min_poly: Sequence[int], basis=None, label=None) -> NumberField:
    """Construct a number field from a monic irreducible integer polynomial
    (coefficients constant-first).

    Maximal orders are built in for Q, quadratic fields and cyclotomic
    fields; other degrees >= 3 require an explicit `basis` (rows of rational
    coordinates over the power basis), which is verified for closure.
    """
    p = [int(c) for c in min_poly]
    if not pt.is_monic_integer(p):
        raise InvalidInput("min_poly must be monic with integer coefficients")
    # cyclotomic polynomials are irreducible
    m = _cyclo_order(p)
    if m is None and not pt.is_irreducible_z(p):
        raise ReduciblePolynomial(f"{p} is reducible over Q")
    n = len(p) - 1

    if basis is not None:
        return NumberField(p, basis, label=label, root_of_unity_order=m)

    if n == 1:
        return NumberField(p, [[Fraction(1)]], label=label or "Q")

    if m is not None:
        # power basis of a root of unity is the maximal order
        ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return NumberField(p, ident, label=label, root_of_unity_order=m)

    if n == 2:
        b, c = p[1], p[0]
        disc = b * b - 4 * c
        d0, t = pt.fundamental_discriminant(disc)
        # sqrt(d0) = (2*theta + b) / t; omega = (1 + sqrt(d0))/2 when d0 is
        # 1 mod 4, else sqrt(d0)/2 (i.e. sqrt of the squarefree part)
        if d0 % 4 == 1:
            omega = [Fraction(t + b, 2 * t), Fraction(1, t)]
        else:
            omega = [Fraction(b, 2 * t), Fraction(1, t)]
        return NumberField(p, [[Fraction(1), Fraction(0)], omega], label=label)

    raise IntegralBasisRequired(
        f"degree {n} is outside the built-in maximal-order families; pass a basis"
    )


@lru_cache(maxsize=None)
def _cyclo_candidates(n: int) -> tuple[int, ...]:
    phi = pt.totients(8 * n * n + 1)
    return tuple(m for m in range(1, len(phi)) if phi[m] == n)


def _cyclo_order(p) -> int | None:
    n = len(p) - 1
    for m in _cyclo_candidates(n):
        if m < 3:
            continue
        if pt.cyclotomic(m) == list(p):
            return m
    return None


def quadratic_field(d: int, label=None) -> NumberField:
    """Q(sqrt(d)) for squarefree d != 0, 1."""
    s, t = pt.squarefree_decompose(d)
    if t != 1 or s in (0, 1):
        raise ValueError("d must be squarefree and not 0 or 1")
    return make_field([-s, 0, 1], label=label or f"Q(sqrt({s}))")


def cyclotomic_field(m: int, label=None) -> NumberField:
    return make_field(pt.cyclotomic(m), label=label or f"Q(zeta_{m})")


# ---------------------------------------------------------------------------


class FieldEmbedding:
    def __init__(self, source: NumberField, target: NumberField, gen_image: NFElement):
        if not _eval_poly_at(source.min_poly, gen_image).is_zero():
            raise ValueError("gen_image is not a root of the source min poly")
        self.source = source
        self.target = target
        self.gen_image = gen_image
        images = [_eval_poly_at(row, gen_image) for row in source.basis]
        self.den = lcm(*(x.den for x in images))
        self.rows = IntMatrix.from_rows([[c * (self.den // x.den) for c in x.num]
                                         for x in images])

    def map(self, el: NFElement) -> NFElement:
        if el.field != self.source:
            raise ValueError("element not in the source field")
        return _reduced(self.target, combine_rows(el.num, self.rows.entries),
                        el.den * self.den)


def _eval_poly_at(coeffs, el: NFElement) -> NFElement:
    """g(el) by Horner, for coefficients that are rationals or elements of
    el's field."""
    acc = el.field.zero()
    for c in reversed(list(coeffs)):
        acc = acc * el + c
    return acc


def composite_field(k1: NumberField, k2: NumberField, label=None):
    """Compositum of two fields whose degrees multiply (f2 stays irreducible
    over k1), with integral basis the products of the two integral bases.
    The product basis is genuinely an integral basis when the discriminants
    are coprime; closure is verified either way.

    The tensor algebra Q[x]/(f1) (x) Q[y]/(f2) is worked in as k1[y]/(f2):
    polynomials in y with coefficients in k1, coordinates on x^i y^j i-major.

    Returns (L, embed_k1, embed_k2).
    """
    n1, n2 = k1.degree, k2.degree
    n = n1 * n2
    f2 = [k1.rational(c) for c in k2.min_poly]

    def mod_f2(a):
        rem = pt.divmod_over(a, f2, *k1.poly_ring())[1]
        return rem + [k1.zero()] * (n2 - len(rem))

    def flatten(a):
        coords = [b.coords for b in a]
        return [coords[j][i] for i in range(n1) for j in range(n2)]

    gen1, gen2 = mod_f2([k1.gen()]), mod_f2([k1.zero(), k1.one()])
    for c in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5):
        gamma = pt.poly_add(gen1, pt.poly_scale(gen2, c))
        # powers of gamma in the tensor basis
        powers = []
        cur = mod_f2([k1.one()])
        for _ in range(n):
            powers.append(flatten(cur))
            cur = mod_f2(pt.poly_mul(cur, gamma))
        mat = [[powers[k][idx] for k in range(n)] for idx in range(n)]
        try:
            inv = inverse_rational(mat)
        except ValueError:
            continue
        # min poly: gamma^n = sum_k m_k gamma^k
        top = flatten(cur)
        sol = [sum(inv[k][idx] * top[idx] for idx in range(n)) for k in range(n)]
        g = [-s for s in sol] + [Fraction(1)]
        if any(x.denominator != 1 for x in g):
            continue
        g = [int(x) for x in g]
        if not pt.is_irreducible_z(g):
            continue

        def to_gamma_coords(a):
            flat = flatten(a)
            return [sum(inv[k][idx] * flat[idx] for idx in range(n)) for k in range(n)]

        # integral basis: products of the two integral bases
        basis_rows = [to_gamma_coords([k1.basis_element(i) * b for b in bj])
                      for i in range(n1) for bj in k2.basis]
        L = NumberField(g, basis_rows, label=label or f"({k1.label})({k2.label})",
                        root_of_unity_order=_cyclo_order(g))
        e1 = FieldEmbedding(k1, L, L.element(to_gamma_coords(gen1)))
        e2 = FieldEmbedding(k2, L, L.element(to_gamma_coords(gen2)))
        return L, e1, e2
    raise ValueError("no primitive element found; is f2 irreducible over k1?")
