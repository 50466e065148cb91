"""Graded F_ell-cohomology of the normalizer components and their sum.

An abelian normalizer Z/m x Z^r contributes the Laurent-times-exterior ring
F_ell[a2, a2^-1] (x) Lambda(b1, x1..xr): dimension 2^r in every degree.  A
dihedral normalizer contributes the (-1)-invariant subring, where -1 acts by
(-1)^(i + word length) on a2^i * (exterior word): the dimension in degree d
is the number of subsets of the r+1 degree-1 generators whose size j
satisfies j = d mod 2 and d + j = 0 mod 4.  Everything is cross-checked by
chain-level oracles built from the periodic resolution of Z/n, a Koszul
complex for Z^r, and direct monomial enumeration.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .intlinalg import rref_mod


class GradedRingDescriptor(NamedTuple):
    kind: str  # "LaurentTimesExterior" | "InvariantSubring" | "Zero"
    r: int  # number of exterior generators beyond b1
    ell: int

    @property
    def period(self) -> int:
        return 2 if self.kind == "LaurentTimesExterior" else 4

    def dim(self, d: int) -> int:
        if self.kind == "Zero":
            return 0
        if self.kind == "LaurentTimesExterior":
            return 2**self.r
        # invariant subring: count subsets of the r+1 odd generators
        return sum(comb(self.r + 1, j) for j in range(self.r + 2)
                   if (j - d) % 2 == 0 and (d + j) % 4 == 0)

    def dims_over_period(self) -> tuple:
        return tuple(self.dim(d) for d in range(self.period))

    def describe(self) -> dict:
        return {"kind": self.kind, "r": self.r, "ell": self.ell,
                "period": self.period, "dims": list(self.dims_over_period())}


class DimensionFunction(NamedTuple):
    period: int
    dims: tuple  # dims over one period, degree 0 first

    def dim(self, d: int) -> int:
        return self.dims[d % self.period]

    def table(self, lo: int, hi: int) -> dict:
        return {d: self.dim(d) for d in range(lo, hi + 1)}


def component_ring(normalizer, ell: int) -> GradedRingDescriptor:
    """Ring descriptor for one normalizer component.  A component whose
    torsion order is prime to ell contributes nothing and is kept as a zero
    descriptor for traceability."""
    base = normalizer.base
    if base.torsion_order % ell != 0:
        return GradedRingDescriptor("Zero", base.free_rank, ell)
    kind = ("InvariantSubring" if normalizer.kind == "Dihedral"
            else "LaurentTimesExterior")
    return GradedRingDescriptor(kind, base.free_rank, ell)


def total_dimensions(classes, ell: int) -> DimensionFunction:
    """Degree-wise sum over subgroup-class components (one summand per
    subgroup class; non-invariant classes contribute their single abelian
    component)."""
    dims = [0, 0, 0, 0]
    for cls in classes:
        desc = component_ring(cls.normalizer, ell)
        for d in range(4):
            dims[d] += desc.dim(d)
    return DimensionFunction(4, tuple(dims))


# ---------------------------------------------------------------------------
# oracles: chain-level and enumerative, independent of the closed forms


def _cyclic_cochain_map(n: int, a: int) -> int:
    """Scalar of the cochain differential C^a -> C^(a+1) for Z/n with
    trivial F_ell coefficients: the complete resolution alternates
    multiplication by (g - 1) and by the norm N = 1 + g + ... + g^(n-1);
    after Hom_G(-, F_ell) these become 0 and n."""
    return 0 if a % 2 == 0 else n


def oracle_cyclic(n: int, ell: int, d: int) -> int:
    """dim Tate cohomology of Z/n in degree d with F_ell coefficients,
    from the 2-periodic complete resolution."""
    d_out = len(rref_mod([[_cyclic_cochain_map(n, d)]], ell)[1])
    d_in = len(rref_mod([[_cyclic_cochain_map(n, d - 1)]], ell)[1])
    return 1 - d_out - d_in


def oracle_product(n: int, r: int, ell: int, d: int) -> int:
    """dim Tate cohomology of Z/n x Z^r in degree d: total complex of the
    periodic resolution tensored with the Koszul complex of Z^r (whose
    differentials vanish on trivial coefficients)."""
    assert r <= 4 and abs(d) <= 12
    total = sum(comb(r, b) for b in range(r + 1))
    return (total - _product_differential_rank(n, r, ell, d)
            - _product_differential_rank(n, r, ell, d - 1))


@lru_cache(maxsize=None)
def _product_differential_rank(n: int, r: int, ell: int, dd: int) -> int:
    """Rank over F_ell of the total-complex differential leaving degree dd.
    Only the int is kept: each matrix is built and eliminated once per key
    and then freed."""
    # components (koszul degree b, cyclic degree dd - b), of size C(r, b)
    tgt_off = {}
    off = 0
    for b in range(r + 1):
        tgt_off[b] = off
        off += comb(r, b)
    nrows = off
    cols = []
    for b in range(r + 1):
        scalar = _cyclic_cochain_map(n, dd - b)
        for i in range(comb(r, b)):
            col = [0] * nrows
            col[tgt_off[b] + i] = scalar
            cols.append(col)
    rows = [[col[i] for col in cols] for i in range(nrows)] or [[]]
    return len(rref_mod(rows, ell)[1])


def oracle_dihedral_invariants(r: int, ell: int, d: int) -> int:
    """dim of the (-1)-invariant subring in degree d, by enumerating
    monomials a2^i * (word in b1, x1..xr) with 2i + |word| = d and keeping
    those fixed by -1, i.e. with i + |word| even."""
    assert r <= 4
    gens = list(range(r + 1))  # b1, x1..xr, all in degree 1
    count = 0
    for j in range(len(gens) + 1):
        if (d - j) % 2 != 0:
            continue
        i = (d - j) // 2
        if (i + j) % 2 != 0:
            continue
        count += sum(1 for _ in itertools.combinations(gens, j))
    return count
