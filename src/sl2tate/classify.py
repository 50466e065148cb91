"""Conjugacy classification of order-ell subgroups of SL_2(O_{K,S}).

Elements of exact order ell with characteristic polynomial Psi group into
conjugacy classes labeled by the oriented class group; subgroups of order
ell are the orbits under the Galois involution.  An orbit of size one means
the subgroup is stable under conjugation-inversion, so its normalizer is a
dihedral extension of the norm-one unit group; otherwise the normalizer is
the norm-one unit group itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import SearchExhausted, verify
from .intlinalg import FinGenAbGroup, solve_rational
from .numberfield import NFElement
from .relative import (
    NormMapsData,
    OrientedClassGroup,
    OrientedElement,
    RelativeSetup,
    galois_involution,
    norm_maps,
    oriented_class_group,
    principal_generator,
)


@dataclass(frozen=True)
class NormalizerDescriptor:
    kind: str  # "Abelian" | "Dihedral"
    base: FinGenAbGroup  # structure of ker Nm1 (norm-one units)


@dataclass(frozen=True)
class SubgroupClass:
    orbit: tuple  # one or two coordinate tuples in the oriented class group
    galois_invariant: bool
    normalizer: NormalizerDescriptor

    def describe(self) -> dict:
        base = self.normalizer.base
        return {
            "orbit": [list(c) for c in self.orbit],
            "galois_invariant": self.galois_invariant,
            "normalizer": {
                "kind": self.normalizer.kind,
                "free_rank": base.free_rank,
                "torsion_order": base.torsion_order,
            },
        }


def subgroup_classes(ocg: OrientedClassGroup,
                     involution: Optional[dict] = None) -> list:
    """Orbits of the Galois involution on oriented classes, with normalizer
    descriptors.  Orbit size 1 <=> the class is invariant <=> dihedral."""
    if involution is None:
        involution = galois_involution(ocg)
    base = ocg.norms.ker_nm1
    m, ell = base.torsion_order, ocg.setup.ell
    # the cyclic ell-subgroup and -1 both centralize, so 2*ell | m
    verify(m % 2 == 0 and m % ell == 0,
           f"norm-one torsion order {m} must be divisible by 2 and {ell}")
    seen: set = set()
    classes = []
    for el in ocg.elements:
        if el.coords in seen:
            continue
        partner = involution[el.coords]
        orbit = ((el.coords,) if partner == el.coords
                 else tuple(sorted((el.coords, partner))))
        seen.update(orbit)
        invariant = len(orbit) == 1
        kind = "Dihedral" if invariant else "Abelian"
        classes.append(SubgroupClass(orbit, invariant,
                                     NormalizerDescriptor(kind, base)))
    classes.sort(key=lambda s: s.orbit)
    return classes


@dataclass(frozen=True)
class SetupClasses:
    """What the class pipeline yields for one regular setup with torsion."""
    norms: NormMapsData
    ocg: OrientedClassGroup
    involution: dict
    classes: list


def class_pipeline(setup: RelativeSetup, store=None) -> SetupClasses:
    """Norm maps, oriented class group, Galois involution and subgroup
    classes of a setup; norm_maps raises first if the setup is not regular."""
    norms = norm_maps(setup, store=store)
    ocg = oriented_class_group(setup, norms)
    involution = galois_involution(ocg)
    return SetupClasses(norms, ocg, involution,
                        subgroup_classes(ocg, involution))


def element_class_count(classes) -> int:
    """|C_ell| recovered from the orbit decomposition."""
    return sum(1 if c.galois_invariant else 2 for c in classes)


def dihedral_overgroup_count(cls: SubgroupClass, norms: NormMapsData) -> int:
    """Number of conjugacy classes of dihedral overgroups of an invariant
    subgroup: |ker Nm1 tensor Z/2|.  Non-invariant classes embed in no
    dihedral subgroup, so the count is 0."""
    if not cls.galois_invariant:
        return 0
    base = norms.ker_nm1
    even = sum(1 for d in base.torsion.invariant_factors if d % 2 == 0)
    return 2 ** (base.free_rank + even)


# ---------------------------------------------------------------------------
# explicit representative matrices


@dataclass(frozen=True)
class RepresentativeMatrix:
    rows: tuple  # ((a, b), (c, d)) with entries in K

    def entries(self):
        (a, b), (c, d) = self.rows
        return a, b, c, d


def representative_matrix(element: OrientedElement, setup: RelativeSetup,
                          basis=None) -> RepresentativeMatrix:
    """Matrix of multiplication by the order-ell root on an O_{K,S}-basis of
    the class's ideal.  The default basis is (g, zeta*g) for a principal
    generator g, giving the companion matrix of Psi; an explicit basis
    (alpha, beta) of the same module may be supplied instead."""
    if setup.case == "Split":
        if any(element.class_coords):
            raise SearchExhausted(
                "no free-module basis for a nontrivial split-case class")
        z = setup.psi_root
        zero = setup.field.zero()
        return _checked(setup, ((z, zero), (zero, setup.t - z)))
    if basis is None:
        if element.ideal is None:
            raise SearchExhausted(
                "ingested class has no ideal representative")
        g = principal_generator(
            element.ideal, s_prime_ideals=setup.rel_places.prime_ideals)
        basis = (g, setup.zeta * g)
    alpha, beta = basis
    K, n = setup.field, setup.field.degree
    cols = []
    for v in (alpha, beta):
        for j in range(n):
            cols.append((setup.embed.map(K.basis_element(j)) * v).coords)
    mat = [[cols[c][r] for c in range(2 * n)] for r in range(2 * n)]

    def decompose(x):
        sol = solve_rational(mat, x.coords)
        if sol is None:
            raise SearchExhausted("basis does not span the ideal over K")
        lo = sum((K.basis_element(j) * sol[j] for j in range(n)), K.zero())
        hi = sum((K.basis_element(j) * sol[n + j] for j in range(n)), K.zero())
        return lo, hi

    a, c = decompose(setup.zeta * alpha)
    b, d = decompose(setup.zeta * beta)
    return _checked(setup, ((a, b), (c, d)))


def _checked(setup, rows) -> RepresentativeMatrix:
    """Verify det 1, trace t, S-integral entries, multiplicative order ell."""
    (a, b), (c, d) = rows
    verify((a * d - b * c - setup.field.one()).is_zero(), "determinant must be 1")
    verify((a + d - setup.t).is_zero(), "trace must be t")
    for x in (a, b, c, d):
        verify(_is_s_integral(x, setup.places), "entries must lie in O_{K,S}")
    m = _mat_pow(setup.field, rows, setup.ell)
    verify(_is_identity(setup.field, m), f"matrix order must divide {setup.ell}")
    verify(not _is_identity(setup.field, rows), "matrix must not be the identity")
    return RepresentativeMatrix(rows)


def _is_s_integral(el: NFElement, places) -> bool:
    # minimal rational denominator over the integral basis; S-integral iff
    # all its prime factors are inverted
    import math

    import sympy

    den = 1
    for c in el.basis_coords():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return all(p in places.rational_primes for p in sympy.factorint(den))


def _mat_mul(field, m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_pow(field, m, e):
    acc = ((field.one(), field.zero()), (field.zero(), field.one()))
    base = m
    while e:
        if e & 1:
            acc = _mat_mul(field, acc, base)
        base = _mat_mul(field, base, base)
        e >>= 1
    return acc


def _is_identity(field, m):
    (a, b), (c, d) = m
    return ((a - field.one()).is_zero() and b.is_zero() and c.is_zero()
            and (d - field.one()).is_zero())
