import hashlib
import math
from fractions import Fraction

import pytest

from sl2tate import polytools as pt
from sl2tate.errors import (
    ConsistencyFailure,
    NeedsBackendData,
    SchemaViolation,
    UnsupportedCase,
)
from sl2tate.ideals import FractionalIdeal, PrimeIdeal
from sl2tate.intlinalg import FiniteAbelianGroup, IntMatrix
from sl2tate.numberfield import composite_field, cyclotomic_field, make_field, quadratic_field
from sl2tate.sinvariants import (
    BackendStore,
    PlaceSet,
    UnitGroupData,
    _class_group_relations,
    _finish_class_group,
    _kronecker_table,
    _real_quadratic_fundamental_unit,
    _reduced_form_cycles,
    certified_class_number,
    class_group,
    forms_class_group_oracle,
    ingest_backend,
    minkowski_bound,
    quadratic_class_number,
    reduced_forms,
    unit_group,
)


def test_reduced_forms_counts():
    # classical class numbers
    assert len(reduced_forms(-4)) == 1
    assert len(reduced_forms(-23)) == 3
    assert len(reduced_forms(-47)) == 5
    assert len(reduced_forms(-20)) == 2


def test_forms_oracle_structure():
    assert forms_class_group_oracle(-4).invariant_factors == ()
    assert forms_class_group_oracle(-23).invariant_factors == (3,)
    assert forms_class_group_oracle(-20).invariant_factors == (2,)
    # h(-84) = 4 with Klein four-group, h(-39) = 4 cyclic
    assert forms_class_group_oracle(-84).invariant_factors == (2, 2)
    assert forms_class_group_oracle(-39).invariant_factors == (4,)


@pytest.mark.parametrize("d", [-1, -2, -3, -7, -11, -19, -43])
def test_class_number_one_fields(d):
    k = quadratic_field(d)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group.is_trivial
    assert cl.provenance == "computed"


@pytest.mark.parametrize("d", [-5, -6, -10, -13, -15, -23, -31])
def test_class_group_matches_forms_oracle(d):
    k = quadratic_field(d)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group == forms_class_group_oracle(k.discriminant)


def test_class_group_dlog_and_generators():
    k = quadratic_field(-5)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group.invariant_factors == (2,)
    p2 = FractionalIdeal.from_generators(k, [k.rational(2), k.element([1, 1])])
    assert cl.dlog(p2) == (1,)
    assert cl.dlog(p2 * p2) == (0,)
    assert cl.dlog(FractionalIdeal.principal(k, k.element([1, 1]))) == (0,)
    # the stored generator really represents the nontrivial class
    g = cl.generator_ideals[0]
    assert cl.dlog(g) == (1,)


def test_s_class_group_quotient():
    # Cl(Q(sqrt(-5))) = Z/2 is killed by inverting 2 (the prime above 2 is
    # the nontrivial class)
    k = quadratic_field(-5)
    cl = class_group(k, PlaceSet.make(k, [2]))
    assert cl.group.is_trivial
    # inverting an inert prime changes nothing
    cl11 = class_group(k, PlaceSet.make(k, [11]))
    assert cl11.group.invariant_factors == (2,)


def test_class_group_real_quadratic():
    k = quadratic_field(10)
    cl = class_group(k, PlaceSet.make(k))
    assert cl.group.invariant_factors == (2,)
    k79 = quadratic_field(79)
    assert class_group(k79, PlaceSet.make(k79)).group.invariant_factors == (3,)


def test_class_group_quartic():
    from sl2tate.numberfield import composite_field

    k = quadratic_field(-2)
    L, _, _ = composite_field(k, cyclotomic_field(3))
    cl = class_group(L, PlaceSet.make(L))
    assert cl.group.is_trivial


def test_class_group_relations_searched_once_per_field(monkeypatch):
    from sl2tate.numberfield import NumberField, composite_field

    # each field object is fresh, so its memo starts empty
    def fresh_field():
        return composite_field(quadratic_field(-5), cyclotomic_field(3))[0]

    cold_field = fresh_field()
    cold = class_group(cold_field, PlaceSet.make(cold_field, [2]))
    L = fresh_field()
    s2 = PlaceSet.make(L, [2])
    class_group(L, PlaceSet(L, (), ()))
    calls = []
    norm_line = NumberField.norm_line

    def counted(self, prefix):
        calls.append(prefix)
        return norm_line(self, prefix)

    # norm_of_int_coords goes through norm_line too, so this also sees the
    # element searches of _finish_class_group
    monkeypatch.setattr(NumberField, "norm_line", counted)
    warm = class_group(L, s2)
    assert calls == []
    assert warm.group == cold.group == FiniteAbelianGroup((2,))
    assert warm.generator_ideals == cold.generator_ideals


def _relation_digest(field):
    from sl2tate import sinvariants

    _, rel_cols = sinvariants._class_group_relations(field)
    entries = None if rel_cols is None else rel_cols.transpose().entries
    return hashlib.sha256(repr(entries).encode()).hexdigest()


def test_relation_search_computes_each_plus_minus_pair_once():
    # the walk of O over box 6 that the uncertified search of this L makes:
    # primitive vectors only, the negative one of each +- pair, each once
    from sl2tate.ideals import search_elements
    from sl2tate.numberfield import composite_field

    L, _, _ = composite_field(quadratic_field(-5), cyclotomic_field(3))
    points = [tuple(coords) for coords, _ in search_elements(FractionalIdeal.unit(L), 0, 6)]
    # a walk that also took -x would make 25,536 points
    assert len(points) == len(set(points)) == 25536 // 2
    assert all(next(c for c in coords if c) < 0 for coords in points)
    assert all(math.gcd(*coords) == 1 for coords in points)


def test_certified_relation_search_stops_on_the_class_number(monkeypatch):
    # the unit group of L = Q(sqrt -5)(zeta_3) sets h(L) = 2, the index of
    # the relations found after 2,907 of the 2,928 points of box 4: the
    # search stops at the relation that reaches it; the stability rule alone
    # walks box 6 (12,768 points) for the same HNF
    from sl2tate import sinvariants
    from sl2tate.numberfield import NumberField
    from sl2tate.relative import build_setup, relative_unit_group

    K = quadratic_field(-5)
    setup = build_setup(K, PlaceSet.make(K), 3)
    relative_unit_group(setup)
    # every point the kernel evaluates is a Horner step on a line polynomial
    lines, points = {}, []
    norm_line, horner = NumberField.norm_line, pt.poly_eval

    def recorded_line(self, prefix):
        line = norm_line(self, prefix)
        lines[id(line)] = (tuple(prefix), line)
        return line

    def recorded_eval(coeffs, t):
        if id(coeffs) in lines:
            points.append(lines[id(coeffs)][0] + (t,))
        return horner(coeffs, t)

    monkeypatch.setattr(NumberField, "norm_line", recorded_line)
    monkeypatch.setattr(pt, "poly_eval", recorded_eval)
    gen_primes, rel_cols = sinvariants._class_group_relations(setup.rel_field)
    assert len(points) == len(set(points)) == 2907
    assert (len(gen_primes), rel_cols.nrows, rel_cols.ncols) == (8, 8, 8)
    digest = hashlib.sha256(repr(rel_cols.transpose().entries).encode()).hexdigest()
    assert digest == "ae03d2de12820dc102bf04c998e297e09dd9ac8df64d27805d092518454c606c"


def test_relation_search_keeps_only_the_lattice(monkeypatch):
    # a smooth vector joins the k x k HNF only when it lies outside it, so the
    # uncertified search of Q(sqrt -5)(zeta_3) (k = 8, through box 6) never
    # hands hnf_canonical more than k + 1 rows
    from sl2tate import sinvariants
    from sl2tate.numberfield import composite_field

    L, _, _ = composite_field(quadratic_field(-5), cyclotomic_field(3))
    rows = []
    hnf_canonical = sinvariants.hnf_canonical
    monkeypatch.setattr(sinvariants, "hnf_canonical",
                        lambda m: rows.append(m.nrows) or hnf_canonical(m))
    gen_primes, rel_cols = sinvariants._class_group_relations(L)
    assert len(gen_primes) == 8 and max(rows) == 9 and len(rows) > 1
    digest = hashlib.sha256(repr(rel_cols.transpose().entries).encode()).hexdigest()
    # the lattice that the certified search of this L stops at
    assert digest == "ae03d2de12820dc102bf04c998e297e09dd9ac8df64d27805d092518454c606c"


@pytest.mark.parametrize("m, walked", [(-5, 0), (-14, 12)])
def test_certified_search_stops_at_the_relation_that_reaches_h(monkeypatch, m, walked):
    # Q(sqrt -5): the seeded (P2^2) = (2) already has index h = 2, so the
    # search walks nothing; Q(sqrt -14) reaches h = 4 twelve points into
    # box 4 (both walked the 24 points of box 4 when checked per box)
    from sl2tate import sinvariants

    walk = sinvariants.search_elements
    points = []

    def counted(ideal, inner, outer):
        for point in walk(ideal, inner, outer):
            points.append(point)
            yield point

    monkeypatch.setattr(sinvariants, "search_elements", counted)
    k = quadratic_field(m)
    _, rel_cols = sinvariants._class_group_relations(k)
    assert len(points) == walked
    assert _index(rel_cols) == certified_class_number(k)


def test_field_invariants_are_freed_with_the_field():
    # the primes, the relation lattice, the codifferent and the residue maps
    # live on the field object, so nothing process-wide keeps it alive
    import gc
    import weakref

    from sl2tate import ideals

    k = quadratic_field(-14)
    class_group(k, PlaceSet.make(k, [3]))
    FractionalIdeal.unit(k).inverse()
    ideals._residue_maps(k)
    assert len(k._memo) >= 5
    ref = weakref.ref(k)
    del k
    gc.collect()
    assert ref() is None
    # an equal field built apart starts with an empty memo
    assert quadratic_field(-14)._memo == {}


# sha256 of the rows of the canonical HNF of the relation lattice, recorded
# as hnf_canonical(rel_cols.transpose()) of the full relation stack that the
# search returned before it kept only the HNF: the lattice is the same
RELATION_DIGESTS = {
    -3: "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    -4: "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    -7: "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    -8: "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    -11: "8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c",
    -15: "5ae3b71bb92e23f400384bf27882f8cfabd904339a838dd4c6dc21f893b0f841",
    -19: "8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c",
    -20: "a409626a1eadd36cd16820455496a65162e10ed3a3d7d84eecffcb20bcc73020",
    -23: "c647ac0dd6905cd89f56fecb88aff78300413284366c8bd0e93d288a9c981934",
    -24: "5ae3b71bb92e23f400384bf27882f8cfabd904339a838dd4c6dc21f893b0f841",
    -31: "ce43614fe03ecdc19c45c588313b832e44f4d8f2e2d7ffea4f61ee6fb5795ad6",
    -35: "7487613874490d229258b69ba5027e70fb7008a4daf485912f6049c120e529a1",
    -39: "7c1dc1db3414544a7079b56fa55a34a40eb52b965672c5caefff22fbed036c18",
    -40: "366948b58cab2e4b5547c91c636f4dfb67177b151090f9cb387f1ceb9444ca95",
    -43: "6080bf66f855b0f98ada9ba7c2e164e3e461d63997ddb9f347a7af461102cb96",
    -47: "e1be9287e3ea02176341dec0943cf79067027f9c8f08f108e390b302f07d6b8a",
    -51: "29b0ca7fc9abc8dff39eafa33ec7309a15c8f2e67b99f7c971c580ecd89128be",
    -52: "366948b58cab2e4b5547c91c636f4dfb67177b151090f9cb387f1ceb9444ca95",
    -55: "d50ac851e9cc7a36a55490e06dab688918cd8c3e0ccb1632e55fb48d09e6898b",
    -56: "f174bb707dbcf9eb8275cabbce5e979c393aaf53e56c5d78e639751157558e4a",
    -59: "02a72dbf82f0c588c6d0129d2dcde809cade48bc5964f5aaaf85deb6a346a8ae",
    -67: "66f4e13a0182c3b0206cedbd4ecb0528422c977d6e5f417ef63dfd843c937fe0",
    -68: "b2a023f00749cfb03328dcf84be1309d88c5745c8dfb455be05cb01d24967335",
    -71: "6c573bdc10046de8313c8f53818d23ce7b03743e652c727b0e98014f0dd0066e",
    -79: "a87e0e7adb541a222dfbd79c1c0ab2063a4f38335e18424e0c9d13ed7819f968",
    -83: "ae1a5f5aa08d4a7aa6106f1537bc3663c1e6c06c8014cfdf552f45ec42de459e",
    -84: "0e6b1ef154fc31a08ca610cc334c5d0cd0e0e45f42fc79bd101fc4e2f5c8d7bd",
    -87: "986d4d89d5f5ad3bc76bdefcc873503900aa22d2280764425db61a994532fa81",
    -88: "15a88a4aa5d8d2156b5ba831bc997f572a4edec1832e8ebd70878f4d6db72c99",
    -91: "9748f7b9bfe6af338fb61d912608acbd77cdb1c49a868296fb924dd4616dd497",
    -95: "d05853bdb3d17a61a022240f97a4b814d7b1ce04360bceb710cf03b67f0ba8c3",
}


def test_relation_digests_cover_every_imaginary_quadratic_disc_to_100():
    assert sorted(RELATION_DIGESTS, reverse=True) == [
        d for d in range(-3, -101, -1)
        if d % 4 in (0, 1) and pt.fundamental_discriminant(d) == (d, 1)]


@pytest.mark.parametrize("disc", sorted(RELATION_DIGESTS, reverse=True))
def test_relation_columns_of_imaginary_quadratic_fields(disc):
    m = disc if disc % 4 == 1 else disc // 4
    assert _relation_digest(quadratic_field(m)) == RELATION_DIGESTS[disc]


QUARTIC_RELATION_DIGESTS = {  # K = Q(sqrt d), L = K(zeta_3)
    -2: "66f4e13a0182c3b0206cedbd4ecb0528422c977d6e5f417ef63dfd843c937fe0",
    -14: "068fc16586b5c55d1cf78466750e2e211d3669f0f11575a5e2758ce238eec3b1",
}


@pytest.mark.parametrize("d", sorted(QUARTIC_RELATION_DIGESTS))
def test_relation_columns_of_quartic_fields(d):
    from sl2tate.numberfield import composite_field

    L, _, _ = composite_field(quadratic_field(d), cyclotomic_field(3))
    assert _relation_digest(L) == QUARTIC_RELATION_DIGESTS[d]


def _uncertified_relations(field):
    """The relation search of the field under the stability rule alone, on a
    fresh copy of the field, so that neither its memo nor the field's own
    sees the uncertified result."""
    from sl2tate import sinvariants
    from sl2tate.numberfield import NumberField

    copy = NumberField(field.min_poly, field.basis, field.label)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sinvariants, "certified_class_number", lambda field: None)
        return sinvariants._class_group_relations(copy)


def _index(rel_cols):
    return 1 if rel_cols is None else math.prod(rel_cols[i, i] for i in range(rel_cols.nrows))


def test_dirichlet_class_numbers_match_the_forms_oracle():
    discs = [d for d in range(-3, -3001, -1)
             if d % 4 in (0, 1) and pt.fundamental_discriminant(d) == (d, 1)]
    assert len(discs) == 911
    for d in discs:
        assert quadratic_class_number(d) == forms_class_group_oracle(d).order, d


@pytest.mark.parametrize("d", (-3, -4, -7, -8, -84, -399, -2999))
def test_kronecker_table_is_the_symbol_at_every_argument(d):
    limit = -d // 2
    assert _kronecker_table(d, limit) == [0] + [pt.kronecker(d, a) for a in range(1, limit + 1)]


def test_real_quadratic_class_numbers_count_cycles_of_reduced_forms():
    # Q(sqrt 79): h+ = 6 cycles and eps = 80 + 9 sqrt 79 of norm +1;
    # Q(sqrt 10): h+ = 2 and eps = 3 + sqrt 10 of norm -1
    assert (_reduced_form_cycles(316), quadratic_class_number(316)) == (6, 3)
    assert (_reduced_form_cycles(40), quadratic_class_number(40)) == (2, 2)
    assert [quadratic_class_number(d) for d in (5, 8, 12, 13, 60, 136, 145)] == [
        1, 1, 1, 1, 2, 2, 4]


def test_form_cycles_match_the_stability_rule_up_to_100():
    checked = 0
    for d in range(2, 101):
        if pt.squarefree_decompose(d)[1] != 1:
            continue
        k = quadratic_field(d)
        assert _index(_uncertified_relations(k)[1]) == certified_class_number(k), d
        checked += 1
    assert checked == 60


# h(L) for L = K(zeta_3): the two relation digests above and every analyze
# golden with a quartic L (Cl(L) = (2), (4), (2, 2), (8), (2), 1, 1)
QUARTIC_CLASS_NUMBERS = {-5: 2, -14: 4, -13: 4, -41: 8, 13: 2, -2: 1, -1: 1}


@pytest.mark.parametrize("d", sorted(QUARTIC_CLASS_NUMBERS))
def test_kuroda_class_number_is_the_index_of_the_relation_lattice(d):
    from sl2tate.relative import build_setup, relative_unit_group

    k = quadratic_field(d)
    setup = build_setup(k, PlaceSet.make(k), 3)
    L = setup.rel_field
    _, rel_cols = _uncertified_relations(L)
    if d in QUARTIC_RELATION_DIGESTS:
        digest = hashlib.sha256(repr(rel_cols.transpose().entries).encode()).hexdigest()
        assert digest == QUARTIC_RELATION_DIGESTS[d]
    assert L.class_number is None
    relative_unit_group(setup)  # sets Kuroda's h(L)
    assert certified_class_number(L) == _index(rel_cols) == QUARTIC_CLASS_NUMBERS[d]


def test_relation_search_makes_no_membership_tests(monkeypatch):
    # valuations come from PrimeIdeal.valuation_coords, not from P^k tests
    from sl2tate import sinvariants

    calls = []
    contains = FractionalIdeal.contains_coords
    monkeypatch.setattr(FractionalIdeal, "contains_coords",
                        lambda self, coords: calls.append(coords) or contains(self, coords))
    gen_primes, rel_cols = sinvariants._class_group_relations(quadratic_field(-14))
    assert calls == []
    # a full-rank square HNF, one column per generator prime: more columns
    # than the seeded (p) per rational prime
    k = len(gen_primes)
    assert rel_cols.nrows == rel_cols.ncols == k > len({pr.p for pr in gen_primes})


def test_class_group_takes_no_smith_form_of_a_wide_matrix(monkeypatch):
    # the cokernel runs on the k x k relation HNF, never on the k x R stack
    # of raw relations (8 x 2330 for this L)
    from sl2tate import intlinalg, sinvariants
    from sl2tate.numberfield import composite_field

    L, _, _ = composite_field(quadratic_field(-5), cyclotomic_field(3))
    shapes = []
    snf_with_transforms = intlinalg.snf_with_transforms

    def recorded(m):
        shapes.append((m.nrows, m.ncols))
        return snf_with_transforms(m)

    monkeypatch.setattr(intlinalg, "snf_with_transforms", recorded)
    cl = class_group(L, PlaceSet.make(L))
    assert cl.group == FiniteAbelianGroup((2,))
    assert all(ncols <= nrows for nrows, ncols in shapes)
    assert (8, 8) in shapes


def test_equal_values_compare_and_hash_equal():
    # places, prime ideals and the matrices and groups under them are keys
    # and compared by value: a copy built from scratch is the same value
    k = quadratic_field(-5)
    places = PlaceSet.make(k, [2, 3])

    def rebuilt(pr):
        ideal = FractionalIdeal(make_field([5, 0, 1]),
                                IntMatrix.from_rows(pr.ideal.num.entries), pr.ideal.den)
        return PrimeIdeal(pr.p, ideal, pr.e, pr.f)

    primes = tuple(map(rebuilt, places.prime_ideals))
    p2 = places.prime_ideals[0]
    pairs = [(places, PlaceSet(make_field([5, 0, 1]), (2, 3), primes)),
             (p2.ideal.num, IntMatrix.from_rows([list(r) for r in p2.ideal.num.entries])),
             (FiniteAbelianGroup((2, 6)), FiniteAbelianGroup((2, 6)))]
    pairs += zip(places.prime_ideals, primes)
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert p2 != PrimeIdeal(p2.p, p2.ideal, p2.e + 1, p2.f)
    assert IntMatrix((), 2) != IntMatrix((), 3)
    assert FiniteAbelianGroup((2,)) != FiniteAbelianGroup((4,))


def test_minkowski_bound():
    k = quadratic_field(-5)
    assert minkowski_bound(k) == 2
    q = make_field([0, 1])
    assert minkowski_bound(q) == 1


@pytest.mark.parametrize("d", (-1, -2, -5, -7, -10, -11, -13, -14, -17, -19))
def test_minkowski_bound_exact_matches_float(d):
    # the criterion-7 fields K and their quartic L = K(zeta_3)
    import math

    from sl2tate.numberfield import composite_field

    k = quadratic_field(d)
    for field in (k, composite_field(k, cyclotomic_field(3))[0]):
        n, (_, r2) = field.degree, field.signature
        bound = (math.factorial(n) / n**n * (4 / math.pi) ** r2
                 * math.sqrt(abs(field.discriminant)))
        assert minkowski_bound(field) == math.floor(bound)


MINKOWSKI_FIELDS = {
    "Q": lambda: make_field([0, 1]),
    "sqrt-5": lambda: quadratic_field(-5),
    "sqrt-3": lambda: quadratic_field(-3),
    "sqrt5": lambda: quadratic_field(5),
    "sqrt79": lambda: quadratic_field(79),
    "sqrt-5_zeta3": lambda: composite_field(quadratic_field(-5), cyclotomic_field(3))[0],
    "zeta5": lambda: cyclotomic_field(5),
}


@pytest.mark.parametrize("name", sorted(MINKOWSKI_FIELDS))
def test_minkowski_bound_matches_the_fraction_formula(name):
    # the largest m with m^2 <= (n!)^2 16^r2 |d| / (n^(2n) pi^(2 r2)), pi
    # taken from below as a Fraction
    field = MINKOWSKI_FIELDS[name]()
    n, (_, r2) = field.degree, field.signature
    pi_below = Fraction(314159265358979, 10**14)
    m_sq = (Fraction(math.factorial(n) ** 2 * 16**r2 * abs(field.discriminant), n ** (2 * n))
            / pi_below ** (2 * r2))
    assert minkowski_bound(field) == math.isqrt(math.floor(m_sq))


@pytest.mark.parametrize("primes, factors", [((), (4,)), ((2,), (2,))])
def test_finish_class_group_generators_have_unit_dlogs(monkeypatch, primes, factors):
    # Cl(Q(sqrt -14)) = Z/4, and the ramified prime above 2 has order 2
    from sl2tate import sinvariants

    if not primes:
        def refuse(*args):
            raise AssertionError("a Smith form for the quotient by an empty S")
        monkeypatch.setattr(sinvariants, "presented_hom_cokernel", refuse)
    k = quadratic_field(-14)
    places = PlaceSet.make(k, primes)
    cl = _finish_class_group(k, places, *_class_group_relations(k))
    assert cl.group.invariant_factors == factors
    for i, g in enumerate(cl.generator_ideals):
        assert cl.dlog(g) == tuple(int(i == j) for j in range(len(factors)))
        assert cl.dlog(g ** factors[i]) == (0,) * len(factors)
    assert all(not any(cl.dlog(pr.ideal)) for pr in places.prime_ideals)


def test_degree_over_four_needs_backend():
    k = cyclotomic_field(23)
    with pytest.raises(NeedsBackendData):
        class_group(k, PlaceSet(k, (), ()))


def test_unit_group_rational():
    q = make_field([0, 1])
    u = unit_group(q, PlaceSet.make(q))
    assert u.rank == 0 and u.torsion_order == 2
    us = unit_group(q, PlaceSet.make(q, [2, 3]))
    assert us.rank == 2
    t, e = us.dlog(q.rational(Fraction(-9, 2)))
    assert t == 1
    g = q.rational(-1) ** t
    for gen, k in zip(us.free_gens, e):
        g = g * gen**k
    assert (g - q.rational(Fraction(-9, 2))).is_zero()


def test_unit_group_imaginary_quadratic_torsion():
    for d, w in ((-3, 6), (-1, 4), (-5, 2)):
        k = quadratic_field(d)
        u = unit_group(k, PlaceSet.make(k))
        assert (u.rank, u.torsion_order) == (0, w)


def test_unit_group_real_quadratic():
    k = quadratic_field(2)
    u = unit_group(k, PlaceSet.make(k))
    assert u.rank == 1
    eps = u.free_gens[0]
    # fundamental unit of Q(sqrt 2) is 1 + sqrt 2
    assert eps.coords == (Fraction(1), Fraction(1))
    t, e = u.dlog(eps**3)
    assert (t, e) == (0, (3,))
    t, e = u.dlog(-(eps.inverse() ** 2))
    assert (t, e) == (1, (-2,))
    with pytest.raises(ValueError):
        u.dlog(k.rational(2))


def _sympy_fundamental_unit(k):
    # the least (x + y sqrt(d0))/2 > 1 with x^2 - d0 y^2 = +-4
    from sympy.solvers.diophantine.diophantine import diop_DN

    d0 = k.discriminant
    x, y = min(((abs(x), abs(y)) for n in (-4, 4) for x, y in diop_DN(d0, n) if y),
               key=lambda xy: (xy[1], xy[0]))
    return k.from_basis_coords([Fraction(x - d0 % 2 * y, 2), y])


def test_real_quadratic_fundamental_units_match_sympy():
    # the continued fraction of omega; a search over y <= 10^6 missed m = 83 * 3
    # (disc 249), 139, 151, 163, 166 and 199
    checked = 0
    for m in range(2, 301):
        if pt.squarefree_decompose(m)[1] != 1:
            continue
        k = quadratic_field(m)
        assert _real_quadratic_fundamental_unit(k) == _sympy_fundamental_unit(k), m
        checked += 1
    assert checked == 182
    assert quadratic_field(249).discriminant == 249


def test_unit_dlog_of_a_unit_with_a_cancelling_conjugate():
    # eps of Q(sqrt 151) is about 3.5e9; eps^2 has a conjugate near 1e-19
    # that Horner in floats rounds to 0
    k = quadratic_field(151)
    eps = _sympy_fundamental_unit(k)
    u = UnitGroupData(k, PlaceSet.make(k), 1, 2, k.rational(-1), (eps,), "test")
    assert u.dlog(eps**2) == (0, (2,))
    assert u.dlog(-(eps ** -3)) == (1, (-3,))


def test_unit_dlog_reads_tiny_conjugates_off_the_inverse():
    # (a b)^40 in Q(zeta_7) is tiny at two of its three places, where u^-1
    # is large
    k = cyclotomic_field(7)
    u = unit_group(k, PlaceSet.make(k))
    a, b = u.free_gens
    assert u.dlog((a * b) ** 40) == (0, (40, 40))
    assert u.dlog(-(a ** -40) * b ** 13) == (7, (-40, 13))


def test_unit_dlog_names_the_float_stage_when_it_cannot_decide():
    # cyclotomic units of Q(zeta_11); u has logs about (60, 30, 0, -30, -60)
    # at the five places, so three are lost to cancellation in u and u^-1
    k = cyclotomic_field(11)
    z, one = k.gen(), k.one()
    gens = tuple((one - z**a) / (one - z) for a in range(2, 6))
    units = UnitGroupData(k, PlaceSet.make(k), 4, 22, -z, gens, "test")
    u = one
    for g, e in zip(gens, (-72, 7, 42, 17)):
        u = u * g**e
    with pytest.raises(UnsupportedCase, match="3 conjugates .* float cancellation"):
        units.dlog(u)


def test_unit_group_s_units_quadratic():
    # in Q(i), inverting 5 = (2+i)(2-i) adds two S-unit generators
    k = quadratic_field(-1)
    u = unit_group(k, PlaceSet.make(k, [5]))
    assert u.rank == 2
    el = k.element([2, 1]) * k.element([2, -1])  # = 5
    t, e = u.dlog(el)
    g = u.torsion_gen**t
    for gen, kk in zip(u.free_gens, e):
        g = g * gen**kk
    assert (g - el).is_zero()


def test_unit_group_s_units_nontrivial_class():
    # Q(sqrt(-5)), S = primes above 2: the prime above 2 is nonprincipal of
    # class order 2, so the S-unit generator has valuation 2 there
    k = quadratic_field(-5)
    u = unit_group(k, PlaceSet.make(k, [2]))
    assert u.rank == 1
    g = u.free_gens[0]
    p2 = u.places.prime_ideals[0]
    assert FractionalIdeal.principal(k, g).valuation(p2) == 2


def test_unit_group_cyclotomic_5():
    k = cyclotomic_field(5)
    u = unit_group(k, PlaceSet.make(k))
    assert u.rank == 1 and u.torsion_order == 10
    t, e = u.dlog(u.torsion_gen * u.free_gens[0] ** 2)
    assert (t, e) == (1, (2,))


def test_unit_group_cyclotomic_7():
    k = cyclotomic_field(7)
    u = unit_group(k, PlaceSet.make(k))
    assert u.rank == 2 and u.torsion_order == 14
    a, b = u.free_gens
    t, e = u.dlog(a * b.inverse())
    assert e == (1, -1)


def test_ingest_q23_style_fixture():
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "kind": "s-invariants",
        "trust": "literature",
        # min poly of zeta_23 is 1 + x + ... + x^22
        "field": {"min_poly": [1] * 23, "label": "q23"},
        "places": [23],
        "class_group": {"invariant_factors": [3]},
        "unit_group": {"rank": 11, "torsion_order": 46},
    }
    ingest_backend(store, doc)
    k = cyclotomic_field(23)
    places = PlaceSet.make(k, [23])
    cl = class_group(k, places, store=store)
    assert cl.group.invariant_factors == (3,)
    assert cl.provenance == "ingested:literature"
    u = unit_group(k, places, store=store)
    assert (u.rank, u.torsion_order) == (11, 46)
    assert u.provenance == "ingested:literature"


def test_ingest_wrong_rank_rejected():
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "trust": "literature",
        "field": {"min_poly": [1] * 23},
        "places": [23],
        "unit_group": {"rank": 10, "torsion_order": 46},
    }
    with pytest.raises(ConsistencyFailure):
        ingest_backend(store, doc)


@pytest.mark.parametrize("gen", ([0, 0], [3, 0]))
def test_ingest_rejects_a_free_generator_that_is_not_an_s_unit(gen):
    # norms 0 and 9 over Q(i) with S = {2}; 0 must not hang the stripping of
    # the S-primes
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "trust": "synthetic",
        "field": {"min_poly": [1, 0, 1]},
        "places": [2],
        "unit_group": {"rank": 1, "torsion_order": 4, "free_gens": [gen]},
    }
    with pytest.raises(ConsistencyFailure, match="not an S-unit"):
        ingest_backend(store, doc)


def test_ingest_schema_errors():
    store = BackendStore()
    with pytest.raises(SchemaViolation):
        ingest_backend(store, {"schema": "bogus"})
    with pytest.raises(SchemaViolation):
        ingest_backend(store, {"schema": "sl2tate-fixture-1", "trust": "x"})


def test_ingest_trivial_q_fixture_matches_builtin():
    store = BackendStore()
    doc = {
        "schema": "sl2tate-fixture-1",
        "trust": "synthetic",
        "field": {"min_poly": [0, 1]},
        "places": [],
        "class_group": {"invariant_factors": []},
        "unit_group": {"rank": 0, "torsion_order": 2},
    }
    ingest_backend(store, doc)
    q = make_field([0, 1])
    places = PlaceSet.make(q)
    cl = class_group(q, places, store=store)
    assert cl.group == class_group(q, places).group
    assert cl.provenance == "ingested:synthetic"
