"""Consequences of the component decomposition: module-freeness rank over
the Chern subring, detection verdicts for restriction to diagonal matrices,
restriction maps along field extensions with transfer obstructions, and the
classification of the colimit over all S."""
from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .cohomology import total_dimensions
from .errors import EmbeddingInvalid, NeedsBackendData, SchemaViolation, verify
from .numberfield import NumberField, _eval_poly_at, make_field
from .relative import RelativeSetup, build_setup
from .classify import class_pipeline, element_class_count
from .sinvariants import PlaceSet, check_schema, schema_checked, schema_entry


# ---------------------------------------------------------------------------
# freeness over the Chern subring


class QuillenReport(NamedTuple):
    n1: int  # abelian (non-invariant) subgroup classes
    n2: int  # dihedral (invariant) subgroup classes
    r: int  # free rank of ker Nm1
    rank_over_c2: int
    c2_image: str
    cross_checked: bool

    def describe(self) -> dict:
        return self._asdict()


def quillen_report(classes, norms, ell: int) -> QuillenReport:
    """Rank of the cohomology as a free module over the degree-4 Laurent
    subring generated by the summed a2^2 classes: 2^(r+1) * (2 n1 + n2),
    cross-checked against the period-4 dimension sum."""
    if not classes:
        return QuillenReport(0, 0, 0, 0, "sum of a_G^2 across components", True)
    n1 = sum(1 for c in classes if not c.galois_invariant)
    n2 = sum(1 for c in classes if c.galois_invariant)
    r = norms.ker_nm1.free_rank
    rank = 2 ** (r + 1) * (2 * n1 + n2)
    dims = total_dimensions(classes, ell)
    checked = sum(dims.dim(d) for d in range(4)) == rank
    verify(checked, "period-4 dimension sum must equal the freeness rank")
    return QuillenReport(n1, n2, r, rank,
                         "sum of a_G^2 across components", checked)


# ---------------------------------------------------------------------------
# detection by diagonal matrices


class DetectionReport(NamedTuple):
    verdict: str  # "NotInjective" | "Inconclusive"
    pic_order: Optional[int]
    source_components: Optional[int]
    target_components: int
    source_period_sum: Optional[int]
    target_period_sum: Optional[int]
    note: str

    def describe(self) -> dict:
        return self._asdict()


def detection_report(setup: RelativeSetup, classes) -> DetectionReport:
    """Restriction to the diagonal subgroup (normalizer of the torus) fails
    to be injective when Pic(O_{K,S}) has more than two elements: the source
    then has strictly more components than the single target component.  The
    criterion is sufficient only, so the other answer is Inconclusive."""
    if setup.case != "Split":
        return DetectionReport(
            "Inconclusive", None, None, 1, None, None,
            "criterion applies when the torsion ring splits (zeta_ell in K)")
    pic = element_class_count(classes)
    r = classes[0].normalizer.base.free_rank if classes else 0
    ell = setup.ell
    dims = total_dimensions(classes, ell)
    source_sum = sum(dims.dim(d) for d in range(4))
    target_sum = 2 ** (r + 1)  # one dihedral torus-normalizer component
    if pic > 2:
        note = (f"{len(classes)} source components map onto a single "
                "torus-normalizer component; ranks cannot match")
        return DetectionReport("NotInjective", pic, len(classes), 1,
                               source_sum, target_sum, note)
    return DetectionReport("Inconclusive", pic, len(classes), 1,
                           source_sum, target_sum,
                           "class group has at most 2 elements")


# ---------------------------------------------------------------------------
# restriction along an extension L/K


class RestrictionReport(NamedTuple):
    degree: int
    assignment: dict  # source element-class coords -> target class label
    merges: tuple  # groups of >= 2 source classes with equal target (C1)
    invariance_gains: tuple  # non-invariant source orbits turning invariant (C2)
    new_target_classes: tuple  # target classes hit by no source class (C3)
    conditional: bool  # true when target data is asserted/fixture-only
    notes: tuple = ()

    def describe(self) -> dict:
        return {
            "degree": self.degree,
            "assignment": {str(list(k)): str(v)
                           for k, v in sorted(self.assignment.items())},
            "merges": [[str(list(c)) for c in grp] for grp in self.merges],
            "invariance_gains": [[str(list(c)) for c in grp]
                                 for grp in self.invariance_gains],
            "new_target_classes": [str(v) for v in self.new_target_classes],
            "conditional": self.conditional,
            "notes": list(self.notes),
        }


def _finish_restriction(assignment, src_classes, tgt_invariant_labels,
                        tgt_all_labels, degree, conditional, notes):
    by_target: dict = {}
    for coords, label in assignment.items():
        by_target.setdefault(label, []).append(coords)
    merges = tuple(tuple(sorted(v)) for v in by_target.values() if len(v) > 1)
    gains = []
    for cls in src_classes:
        if cls.galois_invariant:
            continue
        labels = {assignment[c] for c in cls.orbit}
        if labels and labels <= set(tgt_invariant_labels):
            gains.append(cls.orbit)
    new_targets = tuple(l for l in tgt_all_labels if l not in by_target)
    return RestrictionReport(degree, assignment, tuple(sorted(merges)),
                             tuple(gains), new_targets, conditional,
                             tuple(notes))


def restriction_map(setup_k: RelativeSetup, field_l: NumberField,
                    places_l, gen_image, store=None) -> RestrictionReport:
    """Push the source element classes into SL_2 over the S-integers of L
    along a verified embedding K -> L.  The target classes are re-resolved
    over L; currently the pushforward is computed when the target oriented
    class group is trivial (every class lands on the unique target class) or
    when the extension is the identity.  A source without order-ell torsion
    has no classes, so every target class is new."""
    K = setup_k.field
    if not _eval_poly_at(K.min_poly, gen_image).is_zero():
        raise EmbeddingInvalid(f"{K.label} generator image fails its minimal "
                               "polynomial")
    identity = (field_l.min_poly == K.min_poly
                and (gen_image - field_l.gen()).is_zero()
                and places_l.rational_primes == setup_k.places.rational_primes)
    setup_l = setup_k if identity else build_setup(field_l, places_l, setup_k.ell, store)
    setup_l.require_regular()
    src_elements, src_classes = _oriented_classes(setup_k, store)
    if identity:
        # the target setup is the source setup
        tgt_elements, tgt_classes = src_elements, src_classes
        assignment = {el.coords: str(list(el.coords)) for el in src_elements}
    else:
        tgt_elements, tgt_classes = _oriented_classes(setup_l, store)
        if src_elements and len(tgt_elements) != 1:
            raise NeedsBackendData(
                "general pushforward needs a trivial target class group or a "
                "capitulation fixture")
        assignment = {el.coords: str(list(tgt_elements[0].coords))
                      for el in src_elements}
    inv_labels = [str(list(c)) for cls in tgt_classes if cls.galois_invariant
                  for c in cls.orbit]
    all_labels = [str(list(el.coords)) for el in tgt_elements]
    return _finish_restriction(assignment, src_classes, inv_labels,
                               all_labels, field_l.degree // K.degree, False,
                               ())


def _oriented_classes(setup: RelativeSetup, store):
    """The oriented class group elements and subgroup classes of a setup;
    none without order-ell torsion."""
    if setup.case == "NoTorsion":
        return (), ()
    res = class_pipeline(setup, store=store)
    return res.ocg.elements, res.classes


def restriction_scenario(doc: dict, store=None) -> RestrictionReport:
    """Fixture-driven restriction when the target field is out of reach
    (e.g. a Hilbert class field): the fixture supplies the relative degree
    and the capitulation of the source classes."""
    check_schema(doc)
    min_poly = schema_entry(doc, "source.min_poly", [int])
    ell = schema_entry(doc, "source.ell", int)
    degree = schema_entry(doc, "target.relative_degree", int)
    if degree < 1:
        raise SchemaViolation(f"target.relative_degree must be at least 1, not {degree}")
    src, tgt = schema_entry(doc, "source", dict), schema_entry(doc, "target", dict)
    primes = schema_entry(doc, "source.places", [int]) if "places" in src else []
    label = schema_entry(doc, "source.label", str) if "label" in src else None
    tgt_label = schema_entry(doc, "target.label", str) if "label" in tgt else "?"
    embedding = schema_entry(doc, "target.embedding", str) if "embedding" in tgt else "asserted"
    tgt_group = schema_entry(doc, "target.class_group", dict) if "class_group" in tgt else {}
    tgt_factors = (schema_entry(doc, "target.class_group.invariant_factors", [int])
                   if "invariant_factors" in tgt_group else [])
    capitulation = schema_entry(doc, "capitulation", str) if "capitulation" in doc else None
    field_k = make_field(min_poly, label=label)
    places = schema_checked(PlaceSet.make, field_k, primes)
    src_res = class_pipeline(build_setup(field_k, places, ell, store), store=store)
    notes = [f"target {tgt_label} ingested; embedding {embedding}"]
    if capitulation != "all":
        raise NeedsBackendData("scenario must state the capitulation map")
    if tgt_factors:
        raise NeedsBackendData("capitulation 'all' needs a trivial target "
                               "class group")
    # trivial target class group: a single invariant target class
    assignment = {el.coords: "0" for el in src_res.ocg.elements}
    return _finish_restriction(assignment, src_res.classes, ["0"], ["0"],
                               degree, True, notes)


def transfer_obstruction(report: RestrictionReport, ell: int):
    """A stable transfer would force restriction to be injective on the
    image when the degree is invertible mod ell; a merge of distinct classes
    with gcd(degree, ell) = 1 therefore witnesses that no transfers exist."""
    if gcd(report.degree, ell) != 1:
        return None
    for grp in report.merges:
        if len(grp) > 1:
            return {
                "merged_classes": [list(c) for c in grp],
                "merge_size": len(grp),
                "degree": report.degree,
                "ell": ell,
                "reason": (f"{len(grp)} distinct classes restrict to one "
                           f"component while multiplication by the degree "
                           f"{report.degree} is invertible mod {ell}"),
            }
    return None


# ---------------------------------------------------------------------------
# colimit over all S, vcd


# keyed by the torsion case of the setup, which does not depend on S
_COLIMITS = {"NoTorsion": "Zero", "Split": "NormalizerOfTorus",
             "Field": "ProductOverRelativeBrauer"}


def colimit_case(setup: RelativeSetup) -> str:
    """The colimit over all S of the cohomology, read off the torsion case:
    whether 2cos(2pi/ell) and zeta_ell lie in K.
    - "Zero": no order-ell torsion for any S, so the colimit vanishes.
    - "NormalizerOfTorus": zeta_ell in K; the colimit is the cohomology of
      the normalizer of a maximal torus.
    - "ProductOverRelativeBrauer": the field case; the colimit is a product
      indexed by the kernel of the relative Brauer map for K(zeta_ell)/K."""
    return _COLIMITS[setup.case]


def vcd(field: NumberField, places: PlaceSet) -> int:
    """Virtual cohomological dimension of SL_2(O_{K,S})."""
    r1, r2 = field.signature
    return 2 * r1 + 3 * r2 + places.n_finite - 1
