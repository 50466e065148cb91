"""The quadratic torsion ring R = O_{K,S}[T]/(T^2 - tT + 1) and its invariants.

For an odd prime ell with t = 2cos(2pi/ell) in K, the ring R is either an
order in the quadratic extension L = K(zeta_ell) ("Field" case) or splits as
O x O when zeta_ell already lies in K ("Split" case).  This module decides
the case, verifies the regularity condition that keeps R a maximal order,
computes the norm maps on units and ideal classes with their kernels and
cokernels, and assembles the oriented class group with its Galois involution.
The relative ideal norm is the contraction to K of I sigma(I).
"""
from __future__ import annotations

from typing import NamedTuple, Optional

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
    search_elements,
    sqrt_in_field,
)
from .intlinalg import (
    Cokernel,
    FiniteAbelianGroup,
    FinGenAbGroup,
    IntMatrix,
    combine_rows,
    inverse_rational,
    kernel,
    presented_hom_cokernel,
    presented_hom_kernel,
    snf,
)
from .numberfield import (
    FieldEmbedding,
    NFElement,
    NumberField,
    composite_field,
    cyclotomic_field,
    quadratic_field,
)
from .polytools import cos_minpoly, is_prime, squarefree_decompose
from .sinvariants import (
    BUILTIN_CLASS_GROUP_DEGREE,
    ClassGroupData,
    PlaceSet,
    UnitGroupData,
    certified_class_number,
    class_group,
    computed_unit_group,
    quadratic_class_number,
    unit_group,
    _real_quadratic_fundamental_unit,
    _unit_group_builtin,
)


# ---------------------------------------------------------------------------
# setup: case detection and regularity


class RelativeSetup:
    # Field case: L = K(zeta_ell) with the K-embedding, zeta, the change of
    # basis to L = K + K zeta and conjugation, set once L is built
    rel_field: Optional[NumberField] = None
    embed: Optional[FieldEmbedding] = None
    zeta: Optional[NFElement] = None
    to_rel: Optional[list] = None
    sigma: Optional[FieldEmbedding] = None
    rel_places: Optional[PlaceSet] = None

    def __init__(self, field: NumberField, places: PlaceSet, ell: int, case: str,
                 regularity: str, t: Optional[NFElement] = None,
                 psi_root: Optional[NFElement] = None, violation: Optional[str] = None,
                 violation_prime: Optional[int] = None, notes: tuple = ()):
        self.field = field
        self.places = places
        self.ell = ell
        self.case = case  # "Field" | "Split" | "NoTorsion"
        self.regularity = regularity  # "R1" | "R2" | "Violated" | "None"
        self.t = t
        self.psi_root = psi_root  # zeta_ell in K (Split case)
        self.violation = violation
        self.violation_prime = violation_prime
        self.notes = notes

    @property
    def is_regular(self) -> bool:
        return self.regularity in ("R1", "R2")

    def require_regular(self):
        if self.case == "NoTorsion":
            return
        if not self.is_regular:
            raise RegularityViolated(self.violation or "setup is not regular",
                                     witness=self.violation_prime)


def build_setup(field: NumberField, places: PlaceSet, ell: int,
                store=None) -> RelativeSetup:
    if ell < 3 or not is_prime(ell):
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
    _attach_relative_field(setup, store)
    return setup


def _attach_relative_field(setup: RelativeSetup, store):
    """Construct L = K(zeta_ell) with embedding, zeta and conjugation.  A
    compositum beyond the built-in class groups is not built unless the store
    holds a class group of its degree."""
    field, ell = setup.field, setup.ell
    cyc = cyclotomic_field(ell)
    if 2 * field.degree == cyc.degree:
        # K is the real (index-2) subfield of Q(zeta_ell), Q for ell = 3
        L = cyc
        gen_image = find_root([L.rational(c) for c in field.min_poly], L)
        if gen_image is None:
            raise UnsupportedCase(
                f"cannot embed {field.label} into Q(zeta_{ell})")
        embed = FieldEmbedding(field, L, gen_image)
        zeta = L.gen()
    else:
        if field.discriminant % ell == 0:
            # the product basis would span a proper suborder of O_L (index 3
            # for Q(sqrt(-15))(zeta_3)), where valuations never terminate
            raise UnsupportedCase(
                f"ell = {ell} divides disc(K) = {field.discriminant}: no "
                f"integral basis of K(zeta_{ell}) is built for this case")
        degree = 2 * field.degree
        if degree > BUILTIN_CLASS_GROUP_DEGREE and (
                store is None or not store.holds_class_group(degree)):
            raise NeedsBackendData(f"class group of {field.label}(zeta_{ell}), of "
                                   f"degree {degree}, is outside the built-in range")
        L, embed, e2 = composite_field(field, cyc)
        zeta = e2.gen_image
    t_img = embed.map(setup.t)
    verify((zeta * zeta - t_img * zeta + L.one()).is_zero(),
           "zeta must be a root of Psi over (the image of) K")
    # L = K + K zeta: to_rel inverts the matrix with rows embed(b_k) and
    # embed(b_k) zeta over L's integral basis, once per setup
    images = [L.from_basis_coords(row, embed.den) for row in embed.rows.entries]
    setup.to_rel = inverse_rational([x.basis_coords()
                                     for x in images + [x * zeta for x in images]])
    # conjugation fixes K and sends zeta to zeta^(-1) = t - zeta, so
    # a + b zeta goes to (a + b zeta) + b (t - 2 zeta)
    b = _over_k(setup, L.gen())[1]
    sigma = FieldEmbedding(L, L, L.gen() + embed.map(b) * (t_img - 2 * zeta))
    verify(sigma.map(zeta) == t_img - zeta, "conjugation must send zeta to t - zeta")
    setup.rel_field = L
    setup.embed = embed
    setup.zeta = zeta
    setup.sigma = sigma
    setup.rel_places = PlaceSet.make(L, setup.places.rational_primes)


def _over_k(setup: RelativeSetup, x: NFElement) -> tuple[NFElement, NFElement]:
    """(a, b) in K with x = a + b zeta."""
    K = setup.field
    c = combine_rows(x.num, setup.to_rel)
    return K.from_basis_coords(c[:K.degree], x.den), K.from_basis_coords(c[K.degree:], x.den)


def relative_norm(setup: RelativeSetup, x: NFElement) -> NFElement:
    """N_{L/K}(x) = x sigma(x), read off its coordinates on (1, zeta)."""
    a, b = _over_k(setup, x * setup.sigma.map(x))
    verify(b.is_zero(), "x sigma(x) must lie in K")
    return a


# ---------------------------------------------------------------------------
# unit data for the relative ring (Field case)


def relative_unit_group(setup: RelativeSetup, store=None) -> UnitGroupData:
    """Units of O_{L, S-tilde} for L = K(zeta_ell): ingested if a fixture
    has them; else built in, as the quartic CM field K(zeta_3) when K is
    quadratic and ell = 3, and from the built-in families otherwise."""
    L, places = setup.rel_field, setup.rel_places
    if store is not None:
        _, hit = store.lookup(L, places)
        if hit is not None:
            return hit
    if setup.field.degree == 2 and setup.ell == 3:
        return _quartic_cm_unit_group(setup)
    return _unit_group_builtin(L, places)


def _quartic_cm_unit_group(setup: RelativeSetup) -> UnitGroupData:
    """Unit group of a quartic CM field L = K(zeta_3): torsion read off its
    quadratic subfields and one fundamental unit from _cm_fundamental_unit.
    The unit index found there also gives h(L) by Kuroda's formula, set as
    L.class_number before the relation search of L first runs."""
    L = setup.rel_field
    K = setup.field
    # theta^2 + b theta + c = 0 generates K, and (2 zeta_3 + 1)^2 = -3, so
    # (2 zeta_3 + 1)(2 theta + b) squares to -3(b^2 - 4c) = s t^2: the third
    # quadratic subfield F = Q(sqrt s) of L, next to K and Q(zeta_3)
    c, b, _ = K.min_poly
    s, t = squarefree_decompose(-3 * (b * b - 4 * c))
    F = quadratic_field(s)
    sqrt_s = (2 * setup.zeta + 1) * (2 * setup.embed.gen_image + b) / t
    verify(sqrt_s * sqrt_s == L.rational(s), "sqrt(s) must lie in L")
    # torsion: zeta_6 always (zeta_3 in L); order 12, generated by i * zeta_3,
    # when K or F is Q(i).  As 3 does not divide disc(K) here, F is not, and K
    # is exactly when s = 3; then i = sqrt(-3) / sqrt(3)
    zeta6 = -(setup.zeta * setup.zeta)
    if s == 3:
        torsion_gen, w = (2 * setup.zeta + 1) / sqrt_s * (zeta6 * zeta6), 12
    else:
        torsion_gen, w = zeta6, 6
    # the real quadratic subfield is K if K is real, else F
    if K.signature[0] == 2:
        real, real_embed = K, setup.embed
    else:
        real, real_embed = F, FieldEmbedding(F, L, sqrt_s)
    eta, index = _cm_fundamental_unit(
        real_embed.map(_real_quadratic_fundamental_unit(real)), torsion_gen)
    # Kuroda's formula for an imaginary bicyclic biquadratic field
    # (Lemmermeyer, Acta Arith. 66, 1994): h(L) = Q h(k1) h(k2) h(k3) / 2
    # over its three quadratic subfields, Q the unit index; K may carry a
    # non-maximal order, which has no certified class number
    hk = certified_class_number(K)
    if hk is not None:
        hl, rest = divmod(index * hk * quadratic_class_number(F.discriminant)
                          * quadratic_class_number(-3), 2)
        verify(rest == 0, "Kuroda's formula gives an integer class number")
        L.class_number = hl
    return computed_unit_group(setup.rel_places, torsion_gen, w, [eta])


def _cm_fundamental_unit(eps: NFElement, torsion_gen: NFElement
                         ) -> tuple[NFElement, int]:
    """A fundamental unit of the quartic CM field L, from the fundamental
    unit eps of its real quadratic subfield, and the unit index
    Q = [E_L : W_L E+] over the units E+ of that subfield.  Q divides 2, and
    Q = 2 exactly when some root of unity times eps is a square in L; that
    square root is then fundamental.  zeta^k eps is a square exactly when
    zeta^(k mod 2) eps is one, so two candidates decide it."""
    for candidate in (eps, torsion_gen * eps):
        root = sqrt_in_field(candidate)
        if root is not None and abs(root.norm()) == 1:
            return root, 2
    return eps, 1


# ---------------------------------------------------------------------------
# norm maps


class NormMapsData:
    def __init__(self, setup: RelativeSetup, unit_k: UnitGroupData,
                 class_k: ClassGroupData, class_l: Optional[ClassGroupData],
                 ker_nm1: FinGenAbGroup, coker_nm1: Cokernel, ker_nm0: FiniteAbelianGroup,
                 ker_nm0_gens: tuple, provenance: dict):
        self.setup = setup
        self.unit_k = unit_k
        self.class_k = class_k
        self.class_l = class_l
        self.ker_nm1 = ker_nm1
        self.coker_nm1 = coker_nm1  # over the presentation [torsion, free...] of unit_k
        self.ker_nm0 = ker_nm0
        self.ker_nm0_gens = ker_nm0_gens  # coordinate vectors over class_l generators
        self.provenance = provenance

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
    rel_k = uk.relations
    coker = presented_hom_cokernel(IntMatrix.identity(rel_k.nrows), rel_k)
    verify(coker.group.torsion.is_trivial and coker.group.free_rank == 0,
           "the split unit norm map must be surjective")
    # Nm0: Pic(R) = Pic x Pic -> Pic is addition; kernel is the antidiagonal
    ker0 = ck.group
    ker0_gens = IntMatrix.identity(len(ck.group.invariant_factors)).entries
    prov["nm1"] = prov["nm0"] = "computed"
    return NormMapsData(setup, uk, ck, None, uk.group(), coker, ker0, ker0_gens, prov)


def _norm_maps_field(setup, uk, ck, prov, store) -> NormMapsData:
    ul = relative_unit_group(setup, store=store)
    cl = class_group(setup.rel_field, setup.rel_places, store=store)
    prov["unit_L"] = ul.provenance
    prov["class_L"] = cl.provenance
    rel_k, rel_l = uk.relations, ul.relations

    # Nm1: u -> u * sigma(u), landing in K, on the generators of L's units
    # or as a fixture asserts it
    if ul.nm1_images is not None:
        cols = ul.nm1_images
        if len(cols) != rel_l.nrows or any(len(c) != rel_k.nrows for c in cols):
            raise ConsistencyFailure("nm1 image table has wrong shape")
        prov["nm1"] = "asserted"
    else:
        cols = []
        for g in ul.generators():
            t, e = uk.dlog(relative_norm(setup, g))
            cols.append((t,) + e)
        prov["nm1"] = ul.provenance
    nm1 = IntMatrix.from_cols(cols, rel_k.nrows)

    coker = presented_hom_cokernel(nm1, rel_k)
    verify(coker.group.free_rank == 0, "cokernel of the unit norm map must be finite")
    verify(coker.group.torsion.is_elementary_2(),
           "cokernel of the unit norm map must be elementary 2-torsion")
    ker, _ = presented_hom_kernel(rel_l, nm1, rel_k)

    # Nm0 on class-group generators of L
    if not cl.group.is_trivial and not cl.generator_ideals:
        raise NeedsBackendData(f"the class group of {setup.rel_field.label} was ingested "
                               "without class_group.generator_ideals, which Nm0 maps")
    rel0_l = IntMatrix.diagonal(cl.group.invariant_factors)
    rel0_k = IntMatrix.diagonal(ck.group.invariant_factors)
    nm0 = IntMatrix.from_cols([ck.dlog(relative_ideal_norm(setup, g))
                               for g in cl.generator_ideals], rel0_k.nrows)
    kg, ker0_gens = presented_hom_kernel(rel0_l, nm0, rel0_k)
    verify(kg.free_rank == 0, "kernel of the class norm map must be finite")
    ker0 = kg.torsion
    # exactness of 0 -> ker -> Cl(L_S) -> Cl(K_S) -> coker -> 0
    coker0 = presented_hom_cokernel(nm0, rel0_k).group
    verify(coker0.free_rank == 0 and ker0.order * ck.group.order
           == cl.group.order * coker0.torsion_order,
           "|ker Nm0| * |Cl(K_S)| must equal |Cl(L_S)| * |coker Nm0|")
    prov["nm0"] = "computed" if cl.provenance == "computed" else cl.provenance
    return NormMapsData(setup, uk, ck, cl, ker, coker, ker0, ker0_gens, prov)


def relative_ideal_norm(setup: RelativeSetup, ideal: FractionalIdeal
                        ) -> FractionalIdeal:
    """N_{L/K}(I), read off I sigma(I) = N_{L/K}(I) O_L by contraction to K
    (a O_L meets K in a)."""
    return _contract(setup, ideal * _conjugate(setup, ideal))


def _conjugate(setup: RelativeSetup, ideal: FractionalIdeal) -> FractionalIdeal:
    """sigma(I): the lattice of I mapped through sigma's rows."""
    sigma = setup.sigma
    return FractionalIdeal(setup.rel_field, ideal.num * sigma.rows, ideal.den * sigma.den)


def _contract(setup: RelativeSetup, ideal: FractionalIdeal) -> FractionalIdeal:
    """The ideal meets K in (1/den) times the integer combinations a of the
    integral basis b of K with sum a_k embed(b_k) in the lattice num: the
    kernel of the rows [embed(b_k); num], cut to its first deg K entries."""
    K, embed = setup.field, setup.embed
    verify(embed.den == 1, "O_K must embed into O_L")
    kern = kernel(IntMatrix(embed.rows.entries + ideal.num.entries, embed.rows.ncols)
                  .transpose())
    return FractionalIdeal(K, IntMatrix.from_rows(
        [row[:K.degree] for row in kern.entries]), ideal.den)


def _prime_below(setup, qr, primes_k):
    below = _contract(setup, qr.ideal)
    for pr in primes_k:
        if pr.ideal == below:
            return pr
    raise ConsistencyFailure("prime of L has no prime of K below it")


# ---------------------------------------------------------------------------
# oriented class group


class OrientedElement(NamedTuple):
    coords: tuple  # orientation coords + ideal-class coords
    orientation: tuple  # coordinates in coker_nm1
    class_coords: tuple  # coordinates in ker_nm0 (or Pic in the split case)
    ideal: Optional[FractionalIdeal]  # in L (Field) or K (Split)
    # the orientation as one element u g of K: the S-unit u that coker Nm1's
    # generators give for `orientation`, times a generator g of N_{L/K}(ideal)
    norm_generator: Optional[NFElement]


class OrientedClassGroup:
    def __init__(self, setup: RelativeSetup, norms: NormMapsData,
                 carrier: FiniteAbelianGroup, elements: tuple):
        self.setup = setup
        self.norms = norms
        self.carrier = carrier  # canonical invariant factors of the carrier
        self.elements = elements  # OrientedElement, sorted by coords

    @property
    def sub_factors(self) -> tuple:
        # the orientation part: () in the split case, coker Nm1 being trivial
        return self.norms.coker_nm1_group.invariant_factors

    @property
    def order(self) -> int:
        return len(self.elements)

    def element(self, coords) -> OrientedElement:
        for el in self.elements:
            if el.coords == tuple(coords):
                return el
        raise KeyError(coords)


def oriented_class_group(setup: RelativeSetup, norms: NormMapsData
                         ) -> OrientedClassGroup:
    setup.require_regular()
    if setup.case == "Split":
        return _ocg_split(setup, norms)
    return _ocg_field(setup, norms)


def _ocg_split(setup, norms) -> OrientedClassGroup:
    ck = norms.class_k
    elements = []
    for coords in ck.group.elements():
        ideal = FractionalIdeal.product(setup.field,
                                        zip(ck.generator_ideals, coords))
        if not ck.generator_ideals and any(coords):
            ideal = None  # ingested class group without representatives
        elements.append(OrientedElement(tuple(coords), (), tuple(coords),
                                        ideal, None))
    elements.sort(key=lambda e: e.coords)
    return OrientedClassGroup(setup, norms, ck.group, tuple(elements))


def _reduce_in_class(ideal: FractionalIdeal) -> FractionalIdeal:
    """Small integral ideal in the same class, by two rounds of the
    alpha-trick: a small element gamma of I gives the integral cofactor
    (gamma) I^-1 in the inverse class; repeating lands back in [I]."""
    cur = ideal
    for _ in range(2):
        coords, _ = min(search_elements(cur, 0, 2), key=lambda point: abs(point[1]))
        gamma = cur.field.from_basis_coords(coords, cur.den)
        cur = FractionalIdeal.principal(cur.field, gamma) * cur.inverse()
    return cur


def _ocg_field(setup, norms) -> OrientedClassGroup:
    sub = norms.coker_nm1_group.invariant_factors
    quot = norms.ker_nm0.invariant_factors
    # carrier order |coker Nm1| * |ker Nm0|; the product labeling is a
    # bookkeeping choice (the extension class is not computed; nothing
    # downstream consumes the group law on orientations)
    combined = snf(IntMatrix.diagonal(sub + quot))
    carrier = FiniteAbelianGroup(tuple(d for d in combined if d > 1))
    cl, uk = norms.class_l, norms.unit_k
    coker_gens = IntMatrix.from_cols(norms.coker_nm1.generators, uk.relations.nrows)
    units = [(oc, uk.element(coker_gens.apply(oc)))
             for oc in FiniteAbelianGroup(sub).elements()]
    elements = []
    for kc in FiniteAbelianGroup(quot).elements():
        if any(kc):
            ideal = _reduce_in_class(FractionalIdeal.product(setup.rel_field, (
                (gid, c * e) for c, gvec in zip(kc, norms.ker_nm0_gens)
                for e, gid in zip(gvec, cl.generator_ideals))))
            g = principal_generator(relative_ideal_norm(setup, ideal),
                                    setup.places.rational_primes)
        else:
            # the trivial class is O_L, whose norm O_K is generated by 1
            ideal, g = FractionalIdeal.unit(setup.rel_field), setup.field.one()
        for oc, u in units:
            elements.append(OrientedElement(oc + kc, oc, kc, ideal, u * g))
    elements.sort(key=lambda e: e.coords)
    return OrientedClassGroup(setup, norms, carrier, tuple(elements))


# ---------------------------------------------------------------------------
# Galois involution


def galois_involution(ocg: OrientedClassGroup) -> dict:
    """The involution on oriented classes, as a coords -> coords mapping, one
    class at a time.  The class part is negated: on Pic in the split case, and
    on ker Nm0 in the field case, where I sigma(I) = N(I) O_L is principal.
    Field case: sigma(I) = (tau) J for the representative (J, g') of -[I],
    with tau = 1 when sigma(I) = J (always for the trivial class O_L).  The
    orientation u g of (I, g) goes to -u g (conjugation is K-linear of
    determinant -1 on L), which reads u (-g / (N(tau) g')) against g', so
    every orientation of the class moves by the one coker Nm1 shift of
    -g / (N(tau) g')."""
    setup, norms = ocg.setup, ocg.norms
    orientations = FiniteAbelianGroup(ocg.sub_factors)
    zero = (0,) * len(ocg.sub_factors)
    invol = {}
    for kc in norms.ker_nm0.elements():
        neg = norms.ker_nm0.neg(kc)
        shift = ()
        if setup.case == "Field":
            el, target = ocg.element(zero + kc), ocg.element(zero + neg)
            conj, ntau = _conjugate(setup, el.ideal), setup.field.one()
            if conj != target.ideal:
                tau = principal_generator(conj * target.ideal.inverse(),
                                          setup.rel_places.rational_primes)
                ntau = relative_norm(setup, tau)
            t, e = norms.unit_k.dlog(-el.norm_generator
                                     * (ntau * target.norm_generator).inverse())
            shift = norms.coker_nm1.project((t,) + tuple(e))
        for oc in orientations.elements():
            invol[oc + kc] = orientations.reduce([a + b for a, b in zip(oc, shift)]) + neg
    for a, b in invol.items():
        verify(invol[b] == a, "Galois action must be an involution")
    return invol


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
        for qr in factor_rational_prime(L, p):
            # e(Q|P) f(Q|P) summed over the Q | P is 2, so Q is the only one
            below = _prime_below(setup, qr, primes_k)
            count += qr.e == below.e and qr.f == 2 * below.f
    return count
