"""Exact linear algebra over Z: HNF, SNF, kernels, cokernels, and finitely
generated abelian groups presented by relation matrices.

All matrices are small and dense; entries are arbitrary-precision Python ints.
The module also holds the package's exact elimination core: rref_rational
over Q (solve_rational and inverse_rational are built on it; det_rational
clears denominators and uses Bareiss) and rref_mod over F_p.

Conventions:
  * hnf() is a row-style Hermite normal form: H = U*M with U unimodular,
    pivots positive, entries above each pivot reduced into [0, pivot).
    Membership and solving go through it: hnf_solve(H, v) back-substitutes
    y with y*H = v (None if v is not in the row lattice); solve_integer runs
    it on the HNF of M^T.
  * snf() returns the invariant factors d1 | d2 | ... (1s kept, 0s dropped)
    and builds no transform; snf_with_transforms() returns (diagonal, U)
    with diagonal = U*M*V, V never built.
  * cokernel(M) treats the columns of M as relations among row-many
    generators, i.e. the group Z^rows / colspan(M).
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Sequence

from .errors import verify


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix:
    """Integer matrix stored by rows.  The width is stored too, so an r x 0
    or 0 x c matrix keeps its shape through every operation."""
    __slots__ = ("entries", "ncols")

    def __init__(self, entries: tuple[tuple[int, ...], ...], ncols: int):
        self.entries = entries
        self.ncols = ncols

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self.ncols == other.ncols and self.entries == other.entries

    def __hash__(self):
        return hash((self.entries, self.ncols))

    def __repr__(self):
        return f"IntMatrix(entries={self.entries!r}, ncols={self.ncols!r})"

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(rows, n)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        """The nrows x len(cols) matrix with the given columns."""
        cols = [tuple(int(x) for x in c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise ValueError("column length differs from nrows")
        return IntMatrix(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))

    @staticmethod
    def diagonal(factors: Sequence[int]) -> "IntMatrix":
        n = len(factors)
        return IntMatrix(tuple(tuple(int(d) if i == j else 0 for j in range(n))
                               for i, d in enumerate(factors)), n)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.diagonal((1,) * n)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ((),) * self.ncols,
                         self.nrows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.transpose()
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot.entries)
                for row in self.entries
            ),
            other.ncols,
        )

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def augment(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError("shape mismatch")
        return IntMatrix(tuple(a + b for a, b in zip(self.entries, other.entries)),
                         self.ncols + other.ncols)

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


def _row_sub(rows: list[list[int]], track, i: int, k: int, q: int) -> None:
    """rows[i] -= q * rows[k], and the same on `track` unless it is None."""
    ri, rk = rows[i], rows[k]
    for j in range(len(ri)):
        ri[j] -= q * rk[j]
    if track is not None:
        _row_sub(track, None, i, k, q)


def _row_swap(rows: list[list[int]], track, i: int, k: int) -> None:
    rows[i], rows[k] = rows[k], rows[i]
    if track is not None:
        track[i], track[k] = track[k], track[i]


def _row_negate(rows: list[list[int]], track, i: int) -> None:
    rows[i] = [-x for x in rows[i]]
    if track is not None:
        track[i] = [-x for x in track[i]]


def _hnf_rows(rows: list[list[int]], track: list[list[int]] | None = None) -> int:
    """In-place row HNF; returns the rank.  `track` (same row count) gets the
    same row operations applied, so passing the identity yields U."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # gcd-reduce entries in this column below pivot_row down to one entry
        while True:
            nz = [i for i in range(pivot_row, nrows) if rows[i][col] != 0]
            if not nz:
                break
            imin = min(nz, key=lambda i: abs(rows[i][col]))
            if imin != pivot_row:
                _row_swap(rows, track, pivot_row, imin)
            done = True
            for i in range(pivot_row + 1, nrows):
                if rows[i][col] != 0:
                    q = rows[i][col] // rows[pivot_row][col]
                    _row_sub(rows, track, i, pivot_row, q)
                    if rows[i][col] != 0:
                        done = False
            if done:
                break
        if rows[pivot_row][col] == 0:
            continue
        if rows[pivot_row][col] < 0:
            _row_negate(rows, track, pivot_row)
        p = rows[pivot_row][col]
        # reduce the entries above the pivot into [0, p)
        for i in range(pivot_row):
            q = rows[i][col] // p
            if q:
                _row_sub(rows, track, i, pivot_row, q)
        pivot_row += 1
    return pivot_row


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.  Returns (H, U) with H = U*M, U unimodular."""
    rows = [list(r) for r in M.entries]
    track = [list(r) for r in IntMatrix.identity(M.nrows).entries]
    _hnf_rows(rows, track)
    return IntMatrix(tuple(map(tuple, rows)), M.ncols), IntMatrix.from_rows(track)


def hnf_canonical(M: IntMatrix) -> IntMatrix:
    """HNF with zero rows dropped: the canonical basis of the row lattice."""
    rows = [list(r) for r in M.entries]
    return IntMatrix(tuple(map(tuple, rows[:_hnf_rows(rows)])), M.ncols)


def rank(M: IntMatrix) -> int:
    return _hnf_rows([list(r) for r in M.entries])


def hnf_solve(H: IntMatrix, v: Sequence[int]) -> tuple[int, ...] | None:
    """y with y*H = v for a row HNF H, or None if v is not in the row lattice
    of H.  Back-substitution: each pivot fixes one y_i (zero rows get 0), and
    v is in the lattice exactly when nothing of it is left over.  The pivots
    move right row by row and no later row touches a column left of its
    pivot, so the first column left over ends the walk."""
    rest = list(v)
    y = []
    j = 0
    for row in H.entries:
        # the pivot of this row: its first nonzero entry, right of the last
        while j < H.ncols and not row[j]:
            if rest[j]:
                return None
            j += 1
        if j == H.ncols:
            y.append(0)
            continue
        q, r = divmod(rest[j], row[j])
        if r:
            return None
        if q:
            rest[j:] = [a - q * b for a, b in zip(rest[j:], row[j:])]
        y.append(q)
        j += 1
    return None if any(rest[j:]) else tuple(y)


def _snf_rows(rows: list[list[int]], track: list[list[int]] | None = None) -> None:
    """In-place Smith normal form: afterwards rows is diagonal with entries
    d1 | d2 | ... >= 0.  Row operations also go to `track` (same row count),
    so passing the identity yields U with S = U*M*V; the column operations,
    i.e. V, touch only the matrix."""
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    a = rows

    def col_sub(j, k, q):
        for r in a:
            r[j] -= q * r[k]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot of minimal absolute value
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        _row_swap(a, track, t, best[0])
        col_swap(t, best[1])
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    _row_sub(a, track, i, t, q)
                    if a[i][t] != 0:
                        _row_swap(a, track, t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        # enforce divisibility: a[t][t] must divide everything below-right;
        # if not, add the offending row i to row t and restart the clearing
        bad = next((i for i in range(t + 1, nr)
                    if any(a[i][j] % a[t][t] for j in range(t + 1, nc))), None)
        if bad is not None:
            _row_sub(a, track, t, bad, -1)
            continue
        if a[t][t] < 0:
            _row_negate(a, track, t)
        t += 1


def snf_with_transforms(M: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """Smith normal form with its row transform: (diagonal, U), where the
    diagonal holds the min(rows, cols) entries d1 | d2 | ... >= 0 (zeros
    included) of S = U*M*V for a unimodular U and some unimodular V."""
    a = [list(r) for r in M.entries]
    u = [list(r) for r in IntMatrix.identity(M.nrows).entries]
    _snf_rows(a, u)
    return tuple(a[i][i] for i in range(min(M.nrows, M.ncols))), IntMatrix.from_rows(u)


def snf(M: IntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of M; 1s kept, zero diagonal dropped.
    Runs on the canonical HNF, a basis of the same row lattice."""
    a = [list(r) for r in hnf_canonical(M).entries]
    _snf_rows(a)
    return tuple(a[i][i] for i in range(len(a)) if a[i][i] != 0)


def kernel(M: IntMatrix) -> IntMatrix:
    """Canonical basis (rows, in HNF) of {v : M v = 0}.  Saturated by
    construction since it comes from a unimodular transform."""
    ht, ut = hnf(M.transpose())
    vecs = tuple(ut.row(i) for i in range(ht.nrows) if not any(ht.row(i)))
    return hnf_canonical(IntMatrix(vecs, M.ncols))


def solve_integer(M: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of M x = b, or None if none exists: with
    H = U*M^T in row HNF, y*H = b gives x = U^T y."""
    h, u = hnf(M.transpose())
    y = hnf_solve(h, b)
    return None if y is None else u.transpose().apply(y)


class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form d1 | d2 | ..., di >= 2."""
    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        for d in invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(invariant_factors, invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        self.invariant_factors = invariant_factors

    def __eq__(self, other):
        if other.__class__ is not FiniteAbelianGroup:
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash((self.invariant_factors,))

    def __repr__(self):
        return f"FiniteAbelianGroup(invariant_factors={self.invariant_factors!r})"

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(x % d for x, d in zip(v, self.invariant_factors))

    def neg(self, v) -> tuple[int, ...]:
        return self.reduce([-a for a in v])

    def elements(self) -> Iterator[tuple[int, ...]]:
        yield from itertools.product(*(range(d) for d in self.invariant_factors))

    def is_elementary_2(self) -> bool:
        return all(d == 2 for d in self.invariant_factors)


class FinGenAbGroup(NamedTuple):
    """Finitely generated abelian group: Z^free_rank x (finite torsion part)."""
    free_rank: int
    torsion: FiniteAbelianGroup

    @property
    def torsion_order(self) -> int:
        return self.torsion.order


class Cokernel:
    """Z^ngens / colspan(relations), with the SNF change of basis retained so
    that ambient vectors can be projected to canonical coordinates."""

    def __init__(self, group: FinGenAbGroup, basis_change: IntMatrix,
                 factors: tuple[int, ...], generators: tuple[tuple[int, ...], ...]):
        self.group = group
        # row i of `basis_change` maps ambient coords to the i-th SNF coordinate
        self.basis_change = basis_change
        # invariant factor (0 = free) attached to each retained SNF coordinate
        self.factors = factors
        # ambient-coordinate representatives of the retained generators
        self.generators = generators

    def project(self, v: Sequence[int]) -> tuple[int, ...]:
        w = self.basis_change.apply(list(v))
        return tuple(x % d if d else x for x, d in zip(w, self.factors))


def cokernel(M: IntMatrix) -> Cokernel:
    """Quotient of Z^(M.nrows) by the column span of M."""
    diag, u = snf_with_transforms(M)
    n = M.nrows
    diag += (0,) * (n - len(diag))
    keep = [i for i in range(n) if diag[i] != 1]
    factors = tuple(diag[i] for i in keep)
    torsion = tuple(d for d in factors if d != 0)
    free = sum(1 for d in factors if d == 0)
    # new generators: columns of U^-1 (solve U * g_i = e_i exactly)
    uinv = _unimodular_inverse(u)
    gens = tuple(uinv.col(i) for i in keep)
    basis_change = IntMatrix(tuple(u.row(i) for i in keep), n)
    group = FinGenAbGroup(free, FiniteAbelianGroup(torsion))
    return Cokernel(group, basis_change, factors, gens)


def _unimodular_inverse(u: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (still integral)."""
    h, inv = hnf(u)
    if h != IntMatrix.identity(u.nrows):
        raise ValueError("matrix is not unimodular")
    return inv


# ---------------------------------------------------------------------------
# homomorphisms between presented abelian groups
#
# A presentation is (ngens, relation matrix R) meaning Z^ngens / colspan(R).
# A hom is an integer matrix T whose column i gives the image of source
# generator i in the target's generator coordinates.


def presented_hom_cokernel(T: IntMatrix, R_target: IntMatrix) -> Cokernel:
    """Cokernel of the induced map: target / (image + target relations)."""
    return cokernel(T.augment(R_target))


def presented_hom_kernel(
    R_source: IntMatrix, T: IntMatrix, R_target: IntMatrix
) -> tuple[FinGenAbGroup, tuple[tuple[int, ...], ...]]:
    """Kernel of the induced map on presented groups.

    Returns the abstract kernel and source-coordinate vectors generating it.
    """
    k = T.ncols  # number of source generators
    # x in ker iff T x lies in colspan(R_target): solve [T | R_target] (x, y) = 0;
    # the source relations always sit inside the kernel lattice
    kern = kernel(T.augment(R_target))
    lat = hnf_canonical(IntMatrix(
        tuple(r[:k] for r in kern.entries) + R_source.transpose().entries, k))
    # kernel group = lat / colspan(R_source), presented on lat's basis
    coords = [hnf_solve(lat, R_source.col(j)) for j in range(R_source.ncols)]
    verify(None not in coords, "source relations lie in the kernel lattice")
    ck = cokernel(IntMatrix.from_cols(coords, lat.nrows))
    # generators are in lat-basis coordinates; expand to source coordinates
    return ck.group, tuple(tuple(combine_rows(g, lat.entries)) for g in ck.generators)


def combine_rows(coeffs, rows) -> list[int]:
    """sum_j coeffs[j] * rows[j] over the integers (rows non-empty)."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, x in enumerate(row):
                out[i] += c * x
    return out


# ---------------------------------------------------------------------------
# exact elimination over Q and over F_p


def _rref(a: list[list], inverse, reduce_row) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination in place.  Columns are taken left to right and
    each pivots on its first non-zero entry at or below the current row.
    reduce_row maps a whole new row to its canonical entries.  Returns the
    non-zero reduced rows and the pivot columns."""
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = inverse(a[r][c])
        a[r] = reduce_row([x * s for x in a[r]])
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = reduce_row([x - f * y for x, y in zip(a[i], a[r])])
        pivots.append(c)
    return a[:len(pivots)], pivots


def rref_rational(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: (non-zero rows, pivot columns)."""
    return _rref([[Fraction(x) for x in row] for row in rows],
                 lambda x: 1 / x, lambda row: row)


def rref_mod(rows, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p: (non-zero rows, pivot columns)."""
    return _rref([[x % p for x in row] for row in rows],
                 lambda x: pow(x, -1, p), lambda row: [x % p for x in row])


def kernel_mod(rows, p: int, ncols: int) -> list[list[int]]:
    """Basis of the right kernel over F_p of a matrix given by its rows."""
    red, pivots = rref_mod(rows, p)
    out = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [0] * ncols
        v[j] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[j] % p
        out.append(v)
    return out


def solve_rational(mat, rhs) -> list[Fraction] | None:
    """One solution of mat x = rhs over Q, or None if there is none.  Free
    variables are set to 0; the solution is checked against every row."""
    ncols = len(mat[0]) if mat else 0
    red, pivots = rref_rational([list(row) + [b] for row, b in zip(mat, rhs)])
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        sol[c] = row[ncols]
    if any(sum(Fraction(a) * x for a, x in zip(row, sol)) != b
           for row, b in zip(mat, rhs)):
        return None
    return sol


def inverse_rational(mat) -> list[list[Fraction]]:
    """Inverse of a square matrix over Q; ValueError if it is singular."""
    n = len(mat)
    red, pivots = rref_rational([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det_rational(mat) -> Fraction:
    """Determinant over Q: clear each row's denominators, then Bareiss."""
    scale, rows = 1, []
    for row in mat:
        d = lcm(*(Fraction(x).denominator for x in row))
        scale *= d
        rows.append([int(Fraction(x) * d) for x in row])
    return Fraction(IntMatrix.from_rows(rows).det(), scale)
