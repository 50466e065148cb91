"""Number fields presented as Q[x]/(f) with an explicit integral basis.

Elements carry exact rational coordinates over the power basis of the
defining root theta.  Integral bases are stored as a rational matrix over the
power basis; closure under multiplication is verified at construction time.

Built-in maximal orders: Q, quadratic fields, cyclotomic fields.  Anything
else must come with a user-supplied basis (which is still verified).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import polytools as pt
from .errors import (
    BasisNotClosed,
    IntegralBasisRequired,
    InvalidInput,
    ReduciblePolynomial,
    verify,
)
from .intlinalg import IntMatrix, det_rational, inverse_rational, rref_rational, solve_rational


class NumberField:
    def __init__(self, min_poly, basis_rows, label=None, root_of_unity_order=None):
        """Internal; use make_field()."""
        self.min_poly = tuple(int(c) for c in min_poly)
        self.degree = len(self.min_poly) - 1
        self.label = label or f"Q[x]/({self.min_poly})"
        self.root_of_unity_order = root_of_unity_order
        # basis over the power basis, rows of Fractions
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis_rows)
        n = self.degree
        if len(self.basis) != n or any(len(r) != n for r in self.basis):
            raise InvalidInput("basis must be a square matrix of size deg(f)")
        # element = sum c_i * basis_i means power coords x = B^T c, so the
        # basis coordinates of theta^j are row j of B^-1
        try:
            self._basis_inv = inverse_rational(self.basis)
        except ValueError:
            raise InvalidInput("basis rows are linearly dependent") from None
        self._build_mult_table()
        self._disc = None
        self._signature = None
        self._norm_form = None

    # -- construction helpers ------------------------------------------------

    def _reduce_poly(self, coeffs: list[Fraction]) -> list[Fraction]:
        """Reduce a polynomial in theta of any degree modulo the min poly."""
        n = self.degree
        f = self.min_poly
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, n - 1, -1):
            c = coeffs[i]
            if c:
                for j in range(n):
                    coeffs[i - n + j] -= c * f[j]
            coeffs.pop()
        while len(coeffs) < n:
            coeffs.append(Fraction(0))
        return coeffs

    def _mul_power_coords(self, a, b):
        out = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return self._reduce_poly(out)

    def _to_basis(self, power_coords) -> list[Fraction]:
        out = [Fraction(0)] * self.degree
        for x, row in zip(power_coords, self._basis_inv):
            if x:
                for i, y in enumerate(row):
                    if y:
                        out[i] += x * y
        return out

    def _from_basis(self, basis_coords) -> list[Fraction]:
        out = [Fraction(0)] * self.degree
        for x, row in zip(basis_coords, self.basis):
            if x:
                for j, y in enumerate(row):
                    if y:
                        out[j] += x * y
        return out

    def _build_mult_table(self):
        n = self.degree
        one = self._to_basis([Fraction(1)] + [Fraction(0)] * (n - 1))
        if any(x.denominator != 1 for x in one):
            raise BasisNotClosed("1 is not in the span of the basis")
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                prod_pc = self._mul_power_coords(list(self.basis[i]), list(self.basis[j]))
                bc = self._to_basis(prod_pc)
                if any(x.denominator != 1 for x in bc):
                    raise BasisNotClosed(
                        f"basis element product b{i}*b{j} is not an integral combination"
                    )
                row.append(tuple(int(x) for x in bc))
            table.append(tuple(row))
        self.mult_table = tuple(table)

    def int_mult_rows(self, wc) -> list[list[int]]:
        """Multiplication by the element w with integer integral-basis
        coordinates wc: row j holds the coordinates of w * b_j (the table is
        symmetric), so w * v has the coordinates combine_rows(v, rows)."""
        return [combine_rows(wc, products) for products in self.mult_table]

    # -- elements ------------------------------------------------------------

    def element(self, power_coords) -> "NFElement":
        coords = [Fraction(x) for x in power_coords]
        if len(coords) > self.degree:
            coords = self._reduce_poly(coords)
        while len(coords) < self.degree:
            coords.append(Fraction(0))
        return NFElement(self, tuple(coords))

    def zero(self) -> "NFElement":
        return self.element([0])

    def one(self) -> "NFElement":
        return self.element([1])

    def gen(self) -> "NFElement":
        if self.degree == 1:
            # theta is rational: x - c has root c
            return self.element([-self.min_poly[0]])
        return self.element([0, 1])

    def rational(self, q) -> "NFElement":
        return self.element([Fraction(q)])

    def basis_element(self, i: int) -> "NFElement":
        return NFElement(self, tuple(self.basis[i]))

    def from_basis_coords(self, coords) -> "NFElement":
        return NFElement(self, tuple(self._from_basis(coords)))

    # -- invariants ----------------------------------------------------------

    @property
    def discriminant(self) -> int:
        if self._disc is None:
            # the trace form on the integral basis from the structure
            # constants: Tr(b_k) = sum_i T[k][i][i] and
            # Tr(b_i b_j) = sum_k T[i][j][k] Tr(b_k)
            n = self.degree
            t = self.mult_table
            tr = [sum(t[k][i][i] for i in range(n)) for k in range(n)]
            form = [[sum(c * x for c, x in zip(t[i][j], tr)) for j in range(n)]
                    for i in range(n)]
            d = IntMatrix.from_rows(form).det()
            verify(d != 0, "the discriminant is non-zero")
            self._disc = d
        return self._disc

    @property
    def signature(self) -> tuple[int, int]:
        if self._signature is None:
            r1 = pt.sturm_real_roots(list(self.min_poly))
            self._signature = (r1, (self.degree - r1) // 2)
        return self._signature

    def norm_form(self):
        """The multivariate polynomial N(sum x_i b_i) as {exponent: coeff}.
        Only built for degree <= 4 (used by the bounded searches)."""
        if self._norm_form is None:
            n = self.degree
            if n > 4:
                raise ValueError("norm form only cached for degree <= 4")
            # matrix sum_k x_k * M_k where M_k is multiplication by b_k
            # entry (i, j): coeff of b_i in b_k * b_j = mult_table[k][j][i]
            entry = [[{(k,): self.mult_table[k][j][i] for k in range(n)
                       if self.mult_table[k][j][i]}
                      for j in range(n)] for i in range(n)]
            self._norm_form = _poly_matrix_det(entry, n)
        return self._norm_form

    def norm_of_int_coords(self, coords: Sequence[int]) -> int:
        acc = 0
        for exps, c in self.norm_form().items():
            term = c
            for k in exps:
                term *= coords[k]
            acc += term
        return acc

    def __repr__(self):
        return f"NumberField({self.label})"

    def __eq__(self, other):
        return (isinstance(other, NumberField) and self.min_poly == other.min_poly
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.min_poly, self.basis))


def combine_rows(coeffs, rows) -> list[int]:
    """sum_j coeffs[j] * rows[j] over the integers."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                out[i] += c * x
    return out


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


@dataclass(frozen=True)
class NFElement:
    field: NumberField
    coords: tuple[Fraction, ...]  # over the power basis

    def __add__(self, other):
        other = self._coerce(other)
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._coerce(other)
        return NFElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return NFElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        return NFElement(
            self.field,
            tuple(self.field._mul_power_coords(list(self.coords), list(other.coords))),
        )

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
        acc = self.field.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def mult_matrix(self) -> list[list[Fraction]]:
        """Matrix of multiplication by self on the power basis (column j =
        coords of self * theta^j)."""
        n = self.field.degree
        cols = []
        cur = list(self.coords)
        cols.append(list(cur))
        for _ in range(n - 1):
            cur = self.field._mul_power_coords(cur, [Fraction(0), Fraction(1)])
            cols.append(list(cur))
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def norm(self) -> Fraction:
        return det_rational(self.mult_matrix())

    def trace(self) -> Fraction:
        m = self.mult_matrix()
        return sum(m[i][i] for i in range(len(m)))

    def inverse(self) -> "NFElement":
        if self.is_zero():
            raise ZeroDivisionError
        n = self.field.degree
        rhs = [Fraction(1)] + [Fraction(0)] * (n - 1)
        return NFElement(self.field, tuple(solve_rational(self.mult_matrix(), rhs)))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def basis_coords(self) -> tuple[Fraction, ...]:
        return tuple(self.field._to_basis(list(self.coords)))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.basis_coords())

    def is_rational_value(self):
        if any(c != 0 for c in self.coords[1:]):
            return None
        return self.coords[0]

    def min_poly_over_q(self) -> list[int]:
        """Minimal polynomial (content-free, monic over Q -> integer if the
        element is integral)."""
        # the powers 1, x, ..., x^n as columns: the first non-pivot column k
        # is the first power that depends on the lower ones, and its reduced
        # column holds the coefficients of that dependency
        n = self.field.degree
        powers = [self.field.one()]
        for _ in range(n):
            powers.append(powers[-1] * self)
        red, pivots = rref_rational(zip(*(p.coords for p in powers)))
        k = len(pivots)
        verify(pivots == list(range(k)), "the independent powers must be 1, ..., x^(k-1)")
        dep = [-row[k] for row in red] + [Fraction(1)]
        return [int(c) if c.denominator == 1 else c for c in dep]

    def __repr__(self):
        return f"NFElement({list(self.coords)})"


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
    if not pt.is_irreducible_z(p):
        raise ReduciblePolynomial(f"{p} is reducible over Q")
    n = len(p) - 1

    if basis is not None:
        return NumberField(p, basis, label=label, root_of_unity_order=_cyclo_order(p))

    if n == 1:
        return NumberField(p, [[Fraction(1)]], label=label or "Q")

    m = _cyclo_order(p)
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
    return tuple(m for m in range(1, 8 * n * n + 2) if pt.euler_phi(m) == n)


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


@dataclass(frozen=True)
class FieldEmbedding:
    source: NumberField
    target: NumberField
    gen_image: NFElement
    verified: bool = True

    def __post_init__(self):
        if self.verified:
            img = _eval_poly_at(self.source.min_poly, self.gen_image)
            if not img.is_zero():
                raise ValueError("gen_image is not a root of the source min poly")

    def map(self, el: NFElement) -> NFElement:
        if el.field != self.source:
            raise ValueError("element not in the source field")
        acc = self.target.zero()
        for c in reversed(el.coords):
            acc = acc * self.gen_image + self.target.rational(c)
        return acc


def _eval_poly_at(coeffs, el: NFElement) -> NFElement:
    acc = el.field.zero()
    for c in reversed(list(coeffs)):
        acc = acc * el + el.field.rational(c)
    return acc


def composite_field(k1: NumberField, k2: NumberField, label=None):
    """Compositum of two fields whose degrees multiply (f2 stays irreducible
    over k1), with integral basis the products of the two integral bases.
    The product basis is genuinely an integral basis when the discriminants
    are coprime; closure is verified either way.

    Returns (L, embed_k1, embed_k2).
    """
    n1, n2 = k1.degree, k2.degree
    n = n1 * n2
    f1, f2 = list(k1.min_poly), list(k2.min_poly)

    # arithmetic in the tensor algebra Q[x]/(f1) (x) Q[y]/(f2), basis x^i y^j
    def tmul(a, b):
        out = [[Fraction(0)] * (2 * n2 - 1) for _ in range(2 * n1 - 1)]
        for i in range(n1):
            for j in range(n2):
                if a[i][j]:
                    for s in range(n1):
                        for t in range(n2):
                            if b[s][t]:
                                out[i + s][j + t] += a[i][j] * b[s][t]
        # reduce x-degree then y-degree
        for i in range(2 * n1 - 2, n1 - 1, -1):
            row = out[i]
            if any(row):
                for u in range(n1):
                    for j in range(len(row)):
                        out[i - n1 + u][j] -= f1[u] * row[j]
            out.pop()
        for row in out:
            for j in range(2 * n2 - 2, n2 - 1, -1):
                c = row[j]
                if c:
                    for v in range(n2):
                        row[j - n2 + v] -= f2[v] * c
                row.pop()
        return out

    def tzero():
        return [[Fraction(0)] * n2 for _ in range(n1)]

    def flatten(a):
        return [a[i][j] for i in range(n1) for j in range(n2)]

    for c in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5):
        gamma = tzero()
        if n1 > 1:
            gamma[1][0] += 1
        else:
            gamma[0][0] += Fraction(-f1[0])
        if n2 > 1:
            gamma[0][1] += c
        else:
            gamma[0][0] += Fraction(-f2[0]) * c
        # powers of gamma in the tensor basis
        powers = []
        cur = tzero()
        cur[0][0] = Fraction(1)
        for _ in range(n):
            powers.append(flatten(cur))
            cur = tmul(cur, gamma)
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

        def to_gamma_coords(tensor_flat):
            return [sum(inv[k][idx] * tensor_flat[idx] for idx in range(n))
                    for k in range(n)]

        # integral basis: products of the two integral bases
        basis_rows = []
        for bi in k1.basis:
            for bj in k2.basis:
                el = tzero()
                for i in range(n1):
                    for j in range(n2):
                        el[i][j] = bi[i] * bj[j]
                basis_rows.append(to_gamma_coords(flatten(el)))
        L = NumberField(g, basis_rows, label=label or f"({k1.label})({k2.label})",
                        root_of_unity_order=_cyclo_order(g))
        t1 = tzero()
        if n1 > 1:
            t1[1][0] = Fraction(1)
        else:
            t1[0][0] = Fraction(-f1[0])
        t2 = tzero()
        if n2 > 1:
            t2[0][1] = Fraction(1)
        else:
            t2[0][0] = Fraction(-f2[0])
        e1 = FieldEmbedding(k1, L, L.element(to_gamma_coords(flatten(t1))))
        e2 = FieldEmbedding(k2, L, L.element(to_gamma_coords(flatten(t2))))
        return L, e1, e2
    raise ValueError("no primitive element found; is f2 irreducible over k1?")
