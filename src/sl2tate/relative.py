"""The quadratic torsion ring R = O_{K,S}[T]/(T^2 - tT + 1) and its invariants.

For an odd prime ell with t = 2cos(2pi/ell) in K, the ring R is either an
order in the quadratic extension L = K(zeta_ell) ("Field" case) or splits as
O x O when zeta_ell already lies in K ("Split" case).  This module decides
the case, verifies the regularity condition that keeps R a maximal order,
computes the norm maps on units and ideal classes with their kernels and
cokernels, and assembles the oriented class group with its Galois involution.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    ConsistencyFailure,
    InvalidInput,
    NeedsBackendData,
    RegularityViolated,
    UnsupportedCase,
    verify,
)
from .ideals import (
    FractionalIdeal,
    factor_rational_prime,
    find_root,
    principal_generator,
    sqrt_in_field,
)
from .intlinalg import (
    Cokernel,
    FiniteAbelianGroup,
    FinGenAbGroup,
    IntMatrix,
    presented_hom_cokernel,
    presented_hom_kernel,
    snf,
    solve_integer,
    solve_rational,
)
from .numberfield import (
    FieldEmbedding,
    NFElement,
    NumberField,
    composite_field,
    cyclotomic_field,
    quadratic_field,
)
from .polytools import cos_minpoly, squarefree_decompose
from .sinvariants import (
    ClassGroupData,
    PlaceSet,
    UnitGroupData,
    class_group,
    unit_group,
    _s_unit_generators,
    _unit_group_builtin,
)


# ---------------------------------------------------------------------------
# setup: case detection and regularity


@dataclass
class RelativeSetup:
    field: NumberField
    places: PlaceSet
    ell: int
    case: str  # "Field" | "Split" | "NoTorsion"
    regularity: str  # "R1" | "R2" | "Violated" | "None"
    t: Optional[NFElement] = None
    psi_root: Optional[NFElement] = None  # zeta_ell in K (Split case)
    violation: Optional[str] = None
    violation_prime: Optional[int] = None
    # Field case: L = K(zeta_ell) with the K-embedding, zeta, conjugation
    rel_field: Optional[NumberField] = None
    embed: Optional[FieldEmbedding] = None
    zeta: Optional[NFElement] = None
    sigma: Optional[FieldEmbedding] = None
    rel_places: Optional[PlaceSet] = None
    notes: tuple = ()

    @property
    def is_regular(self) -> bool:
        return self.regularity in ("R1", "R2")

    def require_regular(self):
        if self.case == "NoTorsion":
            return
        if not self.is_regular:
            raise RegularityViolated(self.violation or "setup is not regular",
                                     witness=self.violation_prime)


def build_setup(field: NumberField, places: PlaceSet, ell: int) -> RelativeSetup:
    import sympy

    if ell < 3 or not sympy.isprime(ell):
        raise InvalidInput(f"ell = {ell} is not an odd prime")
    t = find_root([field.rational(c) for c in cos_minpoly(ell)], field)
    if t is None:
        return RelativeSetup(field, places, ell, "NoTorsion", "None")
    one = field.one()
    root = find_root([one, -t, one], field)
    if root is not None:
        # Split case; regular iff every place above ell is inverted
        if ell in places.rational_primes:
            return RelativeSetup(field, places, ell, "Split", "R2", t=t,
                                 psi_root=root)
        return RelativeSetup(
            field, places, ell, "Split", "Violated", t=t, psi_root=root,
            violation=f"split case requires all places above {ell} in S",
            violation_prime=ell)
    # Field case: zeta_ell not in K.  Regular iff the prime of Q(t) below
    # ell is unramified in K outside S, i.e. e(P|ell) = (ell-1)/2 for every
    # prime P of K above ell not inverted.  (The condition is stated both as
    # "zeta_ell not in K" and via the element ell in the sources; we follow
    # the zeta reading and record the torsion polynomial so either is
    # recoverable.)
    setup = RelativeSetup(field, places, ell, "Field", "R1", t=t,
                          notes=("regularity spelling: zeta_ell not in K",))
    if ell not in places.rational_primes:
        e_expected = (ell - 1) // 2
        for pr in factor_rational_prime(field, ell):
            if pr.e != e_expected:
                setup.regularity = "Violated"
                setup.violation = (
                    f"prime above {ell} ramifies in K over Q(t): "
                    f"e = {pr.e}, expected {e_expected}")
                setup.violation_prime = ell
                return setup
    _attach_relative_field(setup)
    return setup


def _attach_relative_field(setup: RelativeSetup):
    """Construct L = K(zeta_ell) with embedding, zeta and conjugation."""
    field, ell = setup.field, setup.ell
    cyc = cyclotomic_field(ell)
    if field.degree == 1:
        L = cyc
        # the generator of Q is the root of x, i.e. 0
        embed = FieldEmbedding(field, L, L.zero())
        zeta = L.gen()
    elif 2 * field.degree == cyc.degree:
        # K is the real (index-2) subfield of Q(zeta_ell)
        L = cyc
        gen_image = find_root([L.rational(c) for c in field.min_poly], L)
        if gen_image is None:
            raise UnsupportedCase(
                f"cannot embed {field.label} into Q(zeta_{ell})")
        embed = FieldEmbedding(field, L, gen_image)
        zeta = L.gen()
    else:
        L, embed, e2 = composite_field(field, cyc)
        zeta = e2.map(cyc.gen())
    t_img = embed.map(setup.t)
    verify((zeta * zeta - t_img * zeta + L.one()).is_zero(),
           "zeta must be a root of Psi over (the image of) K")
    # conjugation: fixes K, sends zeta -> zeta^(-1) = t - zeta
    sigma = _conjugation(L, embed, zeta, setup.t)
    setup.rel_field = L
    setup.embed = embed
    setup.zeta = zeta
    setup.sigma = sigma
    setup.rel_places = PlaceSet.make(L, setup.places.rational_primes)


def _conjugation(L: NumberField, embed: FieldEmbedding, zeta: NFElement,
                 t: NFElement) -> FieldEmbedding:
    """The nontrivial K-automorphism of L = K(zeta): zeta -> t - zeta."""
    # write the generator theta_L as a + b*zeta with a, b in K, then its
    # image is a + b*(t - zeta)
    n = embed.source.degree
    cols = []
    for j in range(n):
        cols.append(embed.map(embed.source.basis_element(j)).coords)
    for j in range(n):
        base = embed.map(embed.source.basis_element(j))
        cols.append((base * zeta).coords)
    mat = [[cols[c][r] for c in range(2 * n)] for r in range(2 * n)]
    sol = solve_rational(mat, L.gen().coords)
    verify(sol is not None, "generator must decompose over the K-basis (1, zeta)")
    a = sum((embed.source.basis_element(j) * sol[j] for j in range(n)),
            embed.source.zero())
    b = sum((embed.source.basis_element(j) * sol[n + j] for j in range(n)),
            embed.source.zero())
    zbar = embed.map(t) - zeta
    gen_image = embed.map(a) + embed.map(b) * zbar
    emb = FieldEmbedding(L, L, gen_image)
    verify((emb.map(zeta) - zbar).is_zero(), "conjugation must send zeta to t - zeta")
    return emb


def pullback(embed: FieldEmbedding, el: NFElement) -> NFElement:
    """Inverse image of an element of L that lies in embed(K)."""
    K, L = embed.source, embed.target
    n = K.degree
    cols = [embed.map(K.element([Fraction(1) if i == j else Fraction(0)
                                 for i in range(n)])).coords
            for j in range(n)]
    mat = [[cols[c][r] for c in range(n)] for r in range(L.degree)]
    sol = solve_rational(mat, el.coords)
    if sol is None:
        raise ValueError("element does not lie in the embedded subfield")
    return K.element(sol)


# ---------------------------------------------------------------------------
# unit data for the relative ring (Field case)


def relative_unit_group(setup: RelativeSetup, store=None) -> UnitGroupData:
    """Units of O_{L, S-tilde} for L = K(zeta_ell): built-in when L is a
    small cyclotomic field or a quartic CM field, else ingested."""
    L, places = setup.rel_field, setup.rel_places
    if store is not None:
        hit = store.lookup_unit_group(L, places)
        if hit is not None:
            return hit
    try:
        return _unit_group_builtin(L, places)
    except NeedsBackendData:
        if L.degree == 4 and L.signature == (0, 2):
            return _quartic_cm_unit_group(setup)
        raise


def _quartic_cm_unit_group(setup: RelativeSetup) -> UnitGroupData:
    """Unit group of a quartic CM field L = K(zeta_3): torsion by root-of-
    unity search, one fundamental unit lifted from the real quadratic
    subfield and made primitive by square-root extraction (the unit index
    of a CM field over its real subfield divides 2)."""
    L, places = setup.rel_field, setup.rel_places
    K = setup.field
    # torsion: zeta_6 always (zeta_3 in L); order 12 exactly when i in L
    zeta6 = -(setup.zeta * setup.zeta)
    verify((zeta6 ** 3).is_rational_value() == -1, "zeta_6 cubed must be -1")
    i_root = find_root([L.one(), L.zero(), L.one()], L)
    if i_root is not None:
        # i * zeta_3 has order 12
        torsion_gen, w = i_root * (zeta6 * zeta6), 12
        verify((torsion_gen ** 6).is_rational_value() == -1,
               "i * zeta_3 must have order 12")
    else:
        torsion_gen, w = zeta6, 6
    # real quadratic subfield: K itself if K is real, else Q(sqrt(3|d|))
    if K.signature[0] == 2:
        eta = setup.embed.map(unit_group(K, PlaceSet(K, (), ())).free_gens[0])
    else:
        d = K.discriminant  # negative
        s, _ = squarefree_decompose(-3 * d)
        F = quadratic_field(s)
        eps = unit_group(F, PlaceSet(F, (), ())).free_gens[0]
        r = find_root([L.rational(c) for c in F.min_poly], L)
        verify(r is not None, "real quadratic subfield must embed")
        # express eps over the power basis of F and evaluate at r
        eta = L.zero()
        for j, c in enumerate(eps.coords):
            eta = eta + r**j * c
    verify(abs(eta.norm()) == 1 and eta.is_integral(),
           "the lifted fundamental unit must be a unit of L")
    # primitivity: extract square roots (times torsion) while possible
    reduced = True
    while reduced:
        reduced = False
        tpow = L.one()
        for _ in range(w):
            root = sqrt_in_field(tpow * eta)
            if root is not None and abs(root.norm()) == 1:
                eta = root
                reduced = True
                break
            tpow = tpow * torsion_gen
    field_units = [eta]
    s_gens = _s_unit_generators(L, places)
    rank = 1 + places.n_finite
    free_gens = tuple(field_units) + tuple(s_gens)
    verify(len(free_gens) == rank, "one free generator per unit rank")
    return UnitGroupData(L, places, rank, w, torsion_gen, free_gens, "computed")


# ---------------------------------------------------------------------------
# norm maps


def _presentation(u: UnitGroupData):
    """Generators [torsion, free...] with the single torsion relation."""
    k = 1 + len(u.free_gens)
    rel = IntMatrix.from_rows([[u.torsion_order]] + [[0]] * (k - 1))
    return k, rel


@dataclass
class NormMapsData:
    setup: RelativeSetup
    unit_k: UnitGroupData
    class_k: ClassGroupData
    unit_l: Optional[UnitGroupData]
    class_l: Optional[ClassGroupData]
    # Nm1 on the presentation [torsion, free...] of the unit groups
    nm1_matrix: Optional[IntMatrix]
    ker_nm1: FinGenAbGroup
    ker_nm1_gens: tuple  # exponent vectors over the source presentation
    coker_nm1: Cokernel  # over the presentation of unit_k
    # Nm0 on class-group generators
    nm0_matrix: Optional[IntMatrix]
    ker_nm0: FiniteAbelianGroup
    ker_nm0_gens: tuple  # coordinate vectors over class_l generators
    provenance: dict

    @property
    def coker_nm1_group(self) -> FiniteAbelianGroup:
        return self.coker_nm1.group.torsion


def norm_maps(setup: RelativeSetup, store=None) -> NormMapsData:
    setup.require_regular()
    if setup.case == "NoTorsion":
        raise UnsupportedCase("no torsion: norm maps are empty")
    uk = unit_group(setup.field, setup.places, store=store)
    ck = class_group(setup.field, setup.places, store=store)
    prov = {"unit_K": uk.provenance, "class_K": ck.provenance}
    if setup.case == "Split":
        return _norm_maps_split(setup, uk, ck, prov)
    return _norm_maps_field(setup, uk, ck, prov, store)


def _norm_maps_split(setup, uk, ck, prov) -> NormMapsData:
    # R = O x O with coordinate-swap conjugation: Nm1(u, v) = uv, so the
    # norm is surjective on units (cokernel trivial) and its kernel
    # {(u, u^-1)} is a copy of the S-unit group
    nk, rel_k = _presentation(uk)
    ident = IntMatrix.identity(nk)
    coker = presented_hom_cokernel(ident, rel_k)
    verify(coker.group.torsion.is_trivial and coker.group.free_rank == 0,
           "the split unit norm map must be surjective")
    ker = uk.group()
    ker_gens = tuple(tuple(1 if i == j else 0 for i in range(nk))
                     for j in range(nk))
    # Nm0: Pic(R) = Pic x Pic -> Pic is addition; kernel is the antidiagonal
    nfac = len(ck.group.invariant_factors)
    ker0 = ck.group
    ker0_gens = tuple(tuple(1 if i == j else 0 for i in range(nfac))
                      for j in range(nfac))
    prov["nm1"] = prov["nm0"] = "computed"
    return NormMapsData(setup, uk, ck, None, None, None, ker, ker_gens, coker,
                        None, ker0, ker0_gens, prov)


def _norm_maps_field(setup, uk, ck, prov, store) -> NormMapsData:
    ul = relative_unit_group(setup, store=store)
    cl = class_group(setup.rel_field, setup.rel_places, store=store)
    prov["unit_L"] = ul.provenance
    prov["class_L"] = cl.provenance
    nk, rel_k = _presentation(uk)
    nl, rel_l = _presentation(ul)

    # Nm1: u -> u * sigma(u), landing in K
    if ul.torsion_gen is not None and (len(ul.free_gens) == ul.rank):
        cols = []
        for g in (ul.torsion_gen,) + tuple(ul.free_gens):
            nm = g * setup.sigma.map(g)
            t, e = uk.dlog(pullback(setup.embed, nm))
            cols.append((t,) + tuple(e))
        nm1 = IntMatrix.from_rows([[c[i] for c in cols] for i in range(nk)])
        prov["nm1"] = "computed" if ul.provenance == "computed" else ul.provenance
    else:
        nm1 = _asserted_nm1(setup, store, nk, nl)
        prov["nm1"] = "asserted"

    coker = presented_hom_cokernel(nm1, rel_k)
    verify(coker.group.free_rank == 0, "cokernel of the unit norm map must be finite")
    verify(coker.group.torsion.is_elementary_2(),
           "cokernel of the unit norm map must be elementary 2-torsion")
    ker, ker_gens = presented_hom_kernel(rel_l, nm1, rel_k)

    # Nm0 on class-group generators of L
    nfac_l = len(cl.group.invariant_factors)
    nfac_k = len(ck.group.invariant_factors)
    rel0_l = _diag(cl.group.invariant_factors)
    rel0_k = _diag(ck.group.invariant_factors)
    if nfac_l == 0:
        nm0 = IntMatrix.from_rows([[] for _ in range(nfac_k)])
        ker0, ker0_gens = FiniteAbelianGroup(()), ()
    else:
        cols = []
        for g in cl.generator_ideals:
            img = relative_ideal_norm(setup, g)
            cols.append(ck.dlog(img))
        nm0 = IntMatrix.from_rows([[c[i] for c in cols] for i in range(nfac_k)])
        kg, ker0_gens = presented_hom_kernel(rel0_l, nm0, rel0_k)
        verify(kg.free_rank == 0, "kernel of the class norm map must be finite")
        ker0 = kg.torsion
    prov["nm0"] = "computed" if cl.provenance == "computed" else cl.provenance
    return NormMapsData(setup, uk, ck, ul, cl, nm1, ker, ker_gens, coker,
                        nm0, ker0, ker0_gens, prov)


def _asserted_nm1(setup, store, nk, nl) -> IntMatrix:
    """Norm-map images supplied directly by a fixture when explicit unit
    elements are impractical."""
    if store is not None:
        doc = store.lookup_raw(setup.rel_field, setup.rel_places)
        if doc and "norm_images" in doc and "nm1" in doc["norm_images"]:
            cols = doc["norm_images"]["nm1"]
            if len(cols) != nl or any(len(c) != nk for c in cols):
                raise ConsistencyFailure("nm1 image table has wrong shape")
            return IntMatrix.from_rows([[c[i] for c in cols] for i in range(nk)])
    raise NeedsBackendData(
        "unit norm map needs explicit unit elements or fixture-supplied images")


def _diag(factors) -> IntMatrix:
    n = len(factors)
    return IntMatrix.from_rows([[factors[i] if i == j else 0 for j in range(n)]
                                for i in range(n)])


def relative_ideal_norm(setup: RelativeSetup, ideal: FractionalIdeal
                        ) -> FractionalIdeal:
    """N_{L/K} of a fractional ideal, prime by prime: a prime Q of L above
    the prime P of K contributes P^{v_Q(I) f(Q|P)}."""
    K, L = setup.field, setup.rel_field
    nrm = ideal.norm()
    support = abs(nrm.numerator) * nrm.denominator
    out = FractionalIdeal.unit(K)
    p = 2
    while support > 1:
        if support % p == 0:
            while support % p == 0:
                support //= p
            primes_l = factor_rational_prime(L, p)
            primes_k = factor_rational_prime(K, p)
            for qr in primes_l:
                v = ideal.valuation(qr)
                if v == 0:
                    continue
                below = _prime_below(setup, qr, primes_k)
                f_rel = qr.f // below.f
                out = out * below.ideal ** (v * f_rel)
        p += 1 if p == 2 else 2
    return out


def _prime_below(setup, qr, primes_k):
    for pr in primes_k:
        if all(qr.ideal.contains(setup.embed.map(b))
               for b in pr.ideal.basis_elements()):
            return pr
    raise ConsistencyFailure("prime of L has no prime of K below it")


# ---------------------------------------------------------------------------
# oriented class group


@dataclass(frozen=True)
class OrientedElement:
    coords: tuple  # orientation coords + ideal-class coords
    orientation: tuple  # coordinates in coker_nm1
    class_coords: tuple  # coordinates in ker_nm0 (or Pic in the split case)
    ideal: Optional[FractionalIdeal]  # in L (Field) or K (Split)
    norm_generator: Optional[NFElement]  # generator of N_{L/K}(ideal) in K


@dataclass
class OrientedClassGroup:
    setup: RelativeSetup
    norms: NormMapsData
    carrier: FiniteAbelianGroup  # canonical invariant factors of the carrier
    sub_factors: tuple  # coker_nm1 invariant factors (orientation part)
    quot_factors: tuple  # ker_nm0 invariant factors (ideal-class part)
    elements: tuple  # OrientedElement, sorted by coords
    notes: tuple = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def element(self, coords) -> OrientedElement:
        for el in self.elements:
            if el.coords == tuple(coords):
                return el
        raise KeyError(coords)


def oriented_class_group(setup: RelativeSetup, norms: NormMapsData,
                         bounds=(1, 2, 3, 5, 8, 13)) -> OrientedClassGroup:
    setup.require_regular()
    if setup.case == "Split":
        return _ocg_split(setup, norms)
    return _ocg_field(setup, norms, bounds)


def _ocg_split(setup, norms) -> OrientedClassGroup:
    ck = norms.class_k
    factors = ck.group.invariant_factors
    elements = []
    for coords in ck.group.elements():
        ideal = FractionalIdeal.unit(setup.field)
        for c, g in zip(coords, ck.generator_ideals):
            if c:
                ideal = ideal * g**c
        if not ck.generator_ideals and any(coords):
            ideal = None  # ingested class group without representatives
        elements.append(OrientedElement(tuple(coords), (), tuple(coords),
                                        ideal, None))
    elements.sort(key=lambda e: e.coords)
    return OrientedClassGroup(setup, norms, ck.group, (), factors,
                              tuple(elements))


def _reduce_in_class(ideal: FractionalIdeal) -> FractionalIdeal:
    """Small integral ideal in the same class, by two rounds of the
    alpha-trick: a small element gamma of I gives the integral cofactor
    (gamma) I^-1 in the inverse class; repeating lands back in [I]."""
    from .ideals import search_elements

    cur = ideal
    for _ in range(2):
        best = None
        for el, nrm in search_elements(cur, (2,)):
            if nrm != 0 and (best is None or abs(nrm) < abs(best[1])):
                best = (el, nrm)
        cur = FractionalIdeal.principal(cur.field, best[0]) * cur.inverse()
    return cur


def _ocg_field(setup, norms, bounds) -> OrientedClassGroup:
    sub = norms.coker_nm1_group.invariant_factors
    quot = norms.ker_nm0.invariant_factors
    # carrier order |coker Nm1| * |ker Nm0|; the product labeling is a
    # bookkeeping choice (the extension class is not computed; nothing
    # downstream consumes the group law on orientations)
    combined = snf(_diag(sub + quot)) if (sub + quot) else ()
    carrier = FiniteAbelianGroup(tuple(d for d in combined if d > 1))
    cl = norms.class_l
    quot_group = FiniteAbelianGroup(quot)
    class_reps = {}
    for kc in quot_group.elements():
        ideal = FractionalIdeal.unit(setup.rel_field)
        for c, gvec in zip(kc, norms.ker_nm0_gens):
            if not c:
                continue
            for e, gid in zip(gvec, cl.generator_ideals):
                if e:
                    ideal = ideal * gid ** (c * e)
        if any(kc):
            ideal = _reduce_in_class(ideal)
        nm = relative_ideal_norm(setup, ideal)
        g = principal_generator(nm, s_prime_ideals=setup.places.prime_ideals,
                                bounds=bounds)
        class_reps[tuple(kc)] = (ideal, g)
    sub_group = FiniteAbelianGroup(sub)
    elements = []
    for kc, (ideal, g) in sorted(class_reps.items()):
        for oc in sub_group.elements():
            elements.append(OrientedElement(tuple(oc) + tuple(kc), tuple(oc),
                                            tuple(kc), ideal, g))
    elements.sort(key=lambda e: e.coords)
    return OrientedClassGroup(setup, norms, carrier, sub, quot,
                              tuple(elements))


# ---------------------------------------------------------------------------
# Galois involution


def galois_involution(ocg: OrientedClassGroup,
                      bounds=(1, 2, 3, 5, 8, 13)) -> dict:
    """The involution on oriented classes, as a coords -> coords mapping.
    Split case: group inverse on Pic.  Field case: conjugate the ideal,
    negate the orientation (conjugation is K-linear of determinant -1 on L),
    and renormalize to the chosen representative."""
    setup = ocg.setup
    if setup.case == "Split":
        group = ocg.norms.class_k.group
        invol = {el.coords: group.neg(el.coords) for el in ocg.elements}
    else:
        invol = {}
        for el in ocg.elements:
            invol[el.coords] = _iota_field(ocg, el, bounds)
    for a, b in invol.items():
        verify(invol[b] == a, "Galois action must be an involution")
    return invol


def _iota_field(ocg: OrientedClassGroup, el: OrientedElement, bounds) -> tuple:
    setup, norms = ocg.setup, ocg.norms
    sigma, embed = setup.sigma, setup.embed
    cl, uk = norms.class_l, norms.unit_k
    conj = FractionalIdeal.from_generators(
        setup.rel_field, [sigma.map(b) for b in el.ideal.basis_elements()])
    # locate the conjugate's class among the kernel representatives
    kc2 = tuple(_express_in_kernel(norms, cl.dlog(conj)))
    target = ocg.element((0,) * len(ocg.sub_factors) + kc2)
    # conj = (tau) * target.ideal as O_{L, S-tilde}-ideals
    diff = conj * target.ideal.inverse()
    tau = principal_generator(diff, s_prime_ideals=setup.rel_places.prime_ideals,
                              bounds=bounds)
    ntau = pullback(embed, tau * sigma.map(tau))
    # orientation u*g of el transports to -u*g on conj (det sigma = -1),
    # which reads v = -u * g / (N(tau) * g') against the target generator
    u = _coker_rep(norms, el.orientation)
    v = (-u) * el.norm_generator * (ntau * target.norm_generator).inverse()
    t, e = uk.dlog(v)
    o2 = norms.coker_nm1.project((t,) + tuple(e))
    return tuple(o2) + kc2


def _express_in_kernel(norms: NormMapsData, ambient_coords) -> list:
    """Coordinates of a ker_nm0 member in the kernel generators."""
    gens = norms.ker_nm0_gens
    factors = norms.class_l.group.invariant_factors
    n = len(factors)
    if not gens:
        verify(all(c % d == 0 for c, d in zip(ambient_coords, factors)),
               "conjugate class must stay in ker Nm0")
        return []
    cols = [list(g) for g in gens] + [
        [factors[i] if i == j else 0 for i in range(n)] for j in range(n)]
    m = IntMatrix.from_rows([[c[i] for c in cols] for i in range(n)])
    sol = solve_integer(m, list(ambient_coords))
    verify(sol is not None, "conjugate class must stay in ker Nm0")
    x = sol[:len(gens)]
    # generator i has order invariant_factors[i] by construction
    return [xi % d for xi, d in zip(x, norms.ker_nm0.invariant_factors)]


def _coker_rep(norms: NormMapsData, coords) -> NFElement:
    """A unit of K representing the given coker_nm1 coset."""
    uk = norms.unit_k
    amb = [0] * (1 + len(uk.free_gens))
    for c, gvec in zip(coords, norms.coker_nm1.generators):
        for i, g in enumerate(gvec):
            amb[i] += c * g
    u = uk.torsion_gen ** amb[0]
    for g, e in zip(uk.free_gens, amb[1:]):
        if e:
            u = u * g**e
    return u


# ---------------------------------------------------------------------------
# place bookkeeping for reports


def inert_place_count(setup: RelativeSetup) -> int:
    """Places of S that stay a single degree-2 place in K(zeta_ell): real
    places of K turning complex, plus finite S-places with a unique
    unramified degree-2 prime above.  Reported next to the 2-rank of
    coker Nm1 (they agree on the classical examples; the cokernel itself is
    always computed, never inferred from this count)."""
    if setup.case != "Field" or setup.rel_field is None:
        return 0
    K, L = setup.field, setup.rel_field
    count = 0
    r1_k = K.signature[0]
    r1_l = L.signature[0]
    # each real place of K either splits into two real places of L or
    # becomes one complex place
    count += r1_k - r1_l // 2
    for p in setup.places.rational_primes:
        primes_k = factor_rational_prime(K, p)
        primes_l = factor_rational_prime(L, p)
        for pr in primes_k:
            above = [qr for qr in primes_l
                     if _prime_below(setup, qr, primes_k) is pr]
            if len(above) == 1 and above[0].e == pr.e and above[0].f == 2 * pr.f:
                count += 1
    return count
