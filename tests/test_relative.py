from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sl2tate import relative
from sl2tate.classify import class_pipeline, element_class_count
from sl2tate.errors import RegularityViolated
from sl2tate.ideals import FractionalIdeal, factor_rational_prime, principal_generator
from sl2tate.intlinalg import IntMatrix, solve_integer, solve_rational
from sl2tate.numberfield import _eval_poly_at, cyclotomic_field, make_field, quadratic_field
from sl2tate.relative import (
    build_setup,
    galois_involution,
    inert_place_count,
    norm_maps,
    oriented_class_group,
    relative_ideal_norm,
    relative_norm,
    relative_unit_group,
)
from sl2tate.sinvariants import BackendStore, ClassGroupData, PlaceSet, computed_unit_group


def _setup(field, primes, ell):
    return build_setup(field, PlaceSet.make(field, primes), ell)


def test_rational_ell3_field_case():
    q = make_field([0, 1])
    s = _setup(q, [], 3)
    assert s.case == "Field" and s.regularity == "R1"
    assert s.t.is_rational_value() == -1
    assert s.rel_field.degree == 2
    # sigma really inverts zeta
    z = s.zeta
    assert (s.sigma.map(z) * z - s.rel_field.one()).is_zero()


def test_rational_ell5_no_torsion():
    q = make_field([0, 1])
    s = _setup(q, [], 5)
    assert s.case == "NoTorsion"


def test_real_quadratic_sqrt3_violates_regularity():
    k = quadratic_field(3)
    s = _setup(k, [], 3)
    assert s.case == "Field" and s.regularity == "Violated"
    assert s.violation_prime == 3
    with pytest.raises(RegularityViolated):
        norm_maps(s)


def test_cyclotomic5_split_case():
    k = cyclotomic_field(5)
    s = _setup(k, [5], 5)
    assert s.case == "Split" and s.regularity == "R2"
    z = s.psi_root
    assert (z**5 - k.one()).is_zero() and not (z - k.one()).is_zero()
    # without inverting 5 the split case is irregular
    s2 = _setup(k, [], 5)
    assert s2.regularity == "Violated"


def test_sqrt5_ell5_field_case_in_cyclotomic():
    # 2cos(2pi/5) lives in Q(sqrt5); 5 ramifies with e = 2 = (5-1)/2, so
    # the setup is regular, with L = Q(zeta_5)
    k = quadratic_field(5)
    s = _setup(k, [], 5)
    assert s.case == "Field" and s.regularity == "R1"
    assert s.rel_field.degree == 4
    assert s.rel_field.root_of_unity_order == 5


def test_imaginary_quadratic_ell3_setup():
    k = quadratic_field(-2)
    s = _setup(k, [], 3)
    assert s.case == "Field" and s.regularity == "R1"
    assert s.rel_field.degree == 4
    assert (s.sigma.map(s.zeta) + s.zeta - s.embed.map(s.t)).is_zero()
    # sigma fixes K
    w = s.embed.map(k.gen())
    assert (s.sigma.map(w) - w).is_zero()


@lru_cache(maxsize=None)
def _setup_at_3(d):
    return _setup(quadratic_field(d), [], 3)


# L = K(zeta_3) for an imaginary K with Cl(K) = Z/2, a real K and Q(i)
L_AT_3 = st.sampled_from((-5, 13, -1))


def _draw_element(field, data):
    coords = data.draw(st.lists(st.integers(-6, 6), min_size=field.degree,
                                max_size=field.degree))
    return field.from_basis_coords(coords, data.draw(st.integers(1, 3)))


@settings(max_examples=30, deadline=None)
@given(d=L_AT_3, data=st.data())
def test_embeddings_act_by_their_stored_rows(d, data):
    s = _setup_at_3(d)
    for emb in (s.embed, s.sigma):
        x = _draw_element(emb.source, data)
        assert emb.map(x) == _eval_poly_at(x.coords, emb.gen_image)


@settings(max_examples=30, deadline=None)
@given(d=L_AT_3, data=st.data())
def test_sigma_is_the_involutive_k_automorphism_sending_zeta_to_t_minus_zeta(d, data):
    s = _setup_at_3(d)
    sigma, a = s.sigma.map, _draw_element(s.field, data)
    x, y = _draw_element(s.rel_field, data), _draw_element(s.rel_field, data)
    assert sigma(s.embed.map(a)) == s.embed.map(a)
    assert sigma(s.zeta) == s.embed.map(s.t) - s.zeta
    assert sigma(x + y) == sigma(x) + sigma(y)
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(sigma(x)) == x


@settings(max_examples=30, deadline=None)
@given(d=L_AT_3, data=st.data())
def test_relative_norm_is_multiplicative_and_squares_k(d, data):
    s = _setup_at_3(d)
    a = _draw_element(s.field, data)
    x, y = _draw_element(s.rel_field, data), _draw_element(s.rel_field, data)
    assert relative_norm(s, x * y) == relative_norm(s, x) * relative_norm(s, y)
    assert relative_norm(s, s.embed.map(a)) == a * a
    assert relative_norm(s, s.zeta) == s.field.one()
    # transitivity: N_{K/Q}(N_{L/K}(x)) = N_{L/Q}(x)
    assert relative_norm(s, x).norm() == x.norm()


def test_norm_maps_rational_ell3():
    q = make_field([0, 1])
    s = _setup(q, [], 3)
    nm = norm_maps(s)
    # R^x = mu_6, all norms are 1: kernel Z/6, cokernel {+-1} = Z/2
    assert nm.ker_nm1.free_rank == 0
    assert nm.ker_nm1.torsion.invariant_factors == (6,)
    assert nm.coker_nm1_group.invariant_factors == (2,)
    assert nm.ker_nm0.invariant_factors == ()
    assert inert_place_count(s) == 1  # the real place becomes complex


@pytest.mark.parametrize("min_poly, primes, cl_l, elements", [
    ([-13, 0, 1], [], (2,), 8),   # Q(sqrt 13)
    ([-29, 0, 1], [], (3,), 12),  # Q(sqrt 29)
    ([-37, 0, 1], [], (4,), 16),  # Q(sqrt 37)
    ([5, 0, 1], [2], (2,), 4),    # Q(sqrt -5), S = {2}
])
def test_ker_nm0_is_all_of_cl_l_when_cl_k_is_trivial(min_poly, primes, cl_l, elements):
    # Cl(K_S) = 1, so Nm0 maps Cl(L_S) to the trivial group: a 0 x k matrix
    # whose kernel is the whole source
    s = _setup(make_field(min_poly), primes, 3)
    pipeline = class_pipeline(s)
    nm = pipeline.norms
    assert nm.class_k.group.is_trivial
    assert nm.class_l.group.invariant_factors == cl_l
    assert nm.ker_nm0.invariant_factors == cl_l
    assert element_class_count(pipeline.classes) == elements


def test_relative_units_quartic_cm():
    k = quadratic_field(-2)
    s = _setup(k, [], 3)
    u = relative_unit_group(s)
    assert u.rank == 1 and u.torsion_order == 6
    eta = u.free_gens[0]
    assert abs(eta.norm()) == 1
    # eta is primitive: neither eta nor any torsion multiple is a square
    from sl2tate.ideals import sqrt_in_field

    t = s.rel_field.one()
    for _ in range(6):
        assert sqrt_in_field(t * eta) is None
        t = t * u.torsion_gen


@pytest.mark.parametrize("min_poly", ([5, 0, 1], [6, 1, 1], [2, 0, 1], [1, 0, 1]))
def test_quartic_cm_units_embed_the_real_subfield_without_a_root_search(
        monkeypatch, min_poly):
    # sqrt(s) of the real quadratic subfield is (2 zeta_3 + 1)(2 theta + b)/t,
    # and i = (2 zeta_3 + 1)/sqrt(3) lies in L exactly when K = Q(i)
    s = _setup(make_field(min_poly), [], 3)
    searched = []
    find_root = relative.find_root

    def recorded(coeffs, field):
        searched.append(tuple(c.is_rational_value() for c in coeffs))
        return find_root(coeffs, field)

    monkeypatch.setattr(relative, "find_root", recorded)
    u = relative_unit_group(s)
    assert searched == []
    assert u.rank == 1 and u.torsion_order == (12 if min_poly == [1, 0, 1] else 6)
    eta = u.free_gens[0]
    assert abs(eta.norm()) == 1 and eta.is_integral()


@pytest.mark.parametrize("min_poly", ([1, 0, 1], [2, 0, 1], [6, 1, 1], [5, 0, 1], [-13, 0, 1]))
def test_cm_fundamental_unit_tries_two_roots_of_unity(monkeypatch, min_poly):
    # zeta^k eps is a square exactly when zeta^(k mod 2) eps is one, so the
    # first of eps, zeta eps has the root that a search over all w powers
    # of zeta finds first (unit index 2 for the first three fields, 1 else)
    s = _setup(make_field(min_poly), [], 3)
    seen, roots = [], []
    cm_unit, sqrt = relative._cm_fundamental_unit, relative.sqrt_in_field
    monkeypatch.setattr(relative, "_cm_fundamental_unit",
                        lambda eps, zeta: seen.append((eps, zeta)) or cm_unit(eps, zeta))
    monkeypatch.setattr(relative, "sqrt_in_field", lambda x: roots.append(x) or sqrt(x))
    u = relative_unit_group(s)
    assert len(roots) <= 2
    (eps, zeta), = seen
    expected, tpow = eps, s.rel_field.one()
    for _ in range(u.torsion_order):
        root = sqrt(tpow * eps)
        if root is not None:
            expected = root
            break
        tpow = tpow * zeta
    assert u.free_gens[0] == expected


def test_relative_units_gaussian_ell3():
    # Q(i, zeta_3) = Q(zeta_12) has torsion of order 12
    k = quadratic_field(-1)
    s = _setup(k, [], 3)
    u = relative_unit_group(s)
    assert u.torsion_order == 12 and u.rank == 1


def test_norm_maps_imaginary_quadratic_ell3():
    k = quadratic_field(-2)
    s = _setup(k, [], 3)
    nm = norm_maps(s)
    assert nm.coker_nm1_group.is_elementary_2()
    # every unit of Q(sqrt(-2), zeta_3) has relative norm 1
    assert nm.coker_nm1_group.invariant_factors == (2,)
    # kernel = full unit group Z/6 x Z
    assert nm.ker_nm1.free_rank == 1
    assert nm.ker_nm1.torsion.invariant_factors == (6,)
    assert nm.ker_nm0.invariant_factors == ()


def test_oriented_class_group_rational():
    q = make_field([0, 1])
    s = _setup(q, [], 3)
    nm = norm_maps(s)
    ocg = oriented_class_group(s, nm)
    assert ocg.order == 2
    inv = galois_involution(ocg)
    # the involution swaps the two orientation classes
    a, b = sorted(inv)
    assert inv[a] == b and inv[b] == a


def test_oriented_class_group_sqrt_minus_2():
    k = quadratic_field(-2)
    s = _setup(k, [], 3)
    nm = norm_maps(s)
    ocg = oriented_class_group(s, nm)
    assert ocg.order == nm.coker_nm1_group.order * nm.ker_nm0.order
    inv = galois_involution(ocg)
    assert all(inv[inv[c]] == c for c in inv)


def test_split_norm_maps_and_ocg():
    k = cyclotomic_field(5)
    s = _setup(k, [5], 5)
    nm = norm_maps(s)
    assert nm.coker_nm1_group.is_trivial
    # ker Nm1 = S-unit group of K: rank r1+r2-1+#S_f = 0+2-1+1 = 2
    assert nm.ker_nm1.free_rank == 2
    assert nm.ker_nm1.torsion.invariant_factors == (10,)
    ocg = oriented_class_group(s, nm)
    assert ocg.order == 1  # Pic of Q(zeta_5) with 5 inverted is trivial
    inv = galois_involution(ocg)
    assert list(inv.values()) == [next(iter(inv))]


def _reference_involution(ocg):
    """The involution element by element: the class of sigma(I) by a discrete
    log in L and an integer solve into ker Nm0, then one generator tau and
    one unit dlog per oriented element, of -d / (N(tau) g') for the
    element's orientation d = u g and the norm generator g' of the target's
    orientation-0 element.  N(tau) = tau sigma(tau) is pulled back to K by a
    rational solve on the Horner images of K's integral basis."""
    setup, norms = ocg.setup, ocg.norms
    cl, uk = norms.class_l, norms.unit_k
    gens, factors = norms.ker_nm0_gens, cl.group.invariant_factors
    into_kernel = IntMatrix.from_cols(gens, len(factors)).augment(IntMatrix.diagonal(factors))
    K = setup.field
    images = [_eval_poly_at(K.basis_element(k).coords, setup.embed.gen_image).basis_coords()
              for k in range(K.degree)]
    invol = {}
    for el in ocg.elements:
        conj = relative._conjugate(setup, el.ideal)
        sol = solve_integer(into_kernel, list(cl.dlog(conj)))
        kc2 = norms.ker_nm0.reduce(sol[:len(gens)])
        target = ocg.element((0,) * len(ocg.sub_factors) + kc2)
        tau = principal_generator(conj * target.ideal.inverse(),
                                  setup.rel_places.rational_primes)
        ntau = K.from_basis_coords(solve_rational(
            list(zip(*images)), (tau * setup.sigma.map(tau)).basis_coords()))
        t, e = uk.dlog(-el.norm_generator * (ntau * target.norm_generator).inverse())
        invol[el.coords] = norms.coker_nm1.project((t,) + tuple(e)) + kc2
    return invol


@lru_cache(maxsize=None)
def _ocg_at_3(min_poly):
    s = _setup(make_field(list(min_poly)), [], 3)
    return oriented_class_group(s, norm_maps(s))


# Q(sqrt 29), Q(sqrt 37): ker Nm0 = Z/3, Z/4; Q(sqrt 7): four orientations
# per class; Q(sqrt -13): Cl(L) = (2, 2) with ker Nm0 = Z/2; Q(sqrt 31): the
# one class whose sigma(I) is not the representative of -[I]
INVOLUTION_FIELDS = ((-29, 0, 1), (-37, 0, 1), (-7, 0, 1), (13, 0, 1), (-31, 0, 1))


@pytest.mark.parametrize("min_poly", INVOLUTION_FIELDS)
def test_involution_matches_the_element_by_element_computation(min_poly):
    ocg = _ocg_at_3(min_poly)
    assert galois_involution(ocg) == _reference_involution(ocg)


@pytest.mark.parametrize("min_poly", INVOLUTION_FIELDS)
def test_involution_searches_once_per_class_and_takes_no_dlog_in_l(monkeypatch, min_poly):
    # one tau per class of ker Nm0 whose sigma(I) is not the representative J
    # of -[I], shared by all its orientations (four on Q(sqrt 7)); tau = 1
    # otherwise, always for the trivial class O_L.  The class part is
    # negated, with no discrete log in L
    ocg = _ocg_at_3(min_poly)
    zero, kernel = (0,) * len(ocg.sub_factors), ocg.norms.ker_nm0
    moved = [kc for kc in kernel.elements()
             if relative._conjugate(ocg.setup, ocg.element(zero + kc).ideal)
             != ocg.element(zero + kernel.neg(kc)).ideal]
    assert (0,) * len(kernel.invariant_factors) not in moved
    searched = []
    monkeypatch.setattr(relative, "principal_generator",
                        lambda ideal, primes: searched.append(ideal)
                        or principal_generator(ideal, primes))
    monkeypatch.setattr(ClassGroupData, "dlog", None)
    galois_involution(ocg)
    assert len(searched) == len(moved) < kernel.order
    assert ocg.order == kernel.order * ocg.norms.coker_nm1_group.order


def test_split_involution_negates_pic_without_a_search(monkeypatch):
    # K = Q(sqrt -31)(zeta_3) holds zeta_3; with 3 inverted, Pic = Z/3.  Its
    # units are those of the quartic CM builder with the S-units appended
    k = quadratic_field(-31)
    L_setup = _setup(k, [], 3)
    K, units = L_setup.rel_field, relative_unit_group(L_setup)
    s = _setup(K, [3], 3)
    store = BackendStore()
    store.register(s.places, None, computed_unit_group(
        s.places, units.torsion_gen, units.torsion_order, units.free_gens))
    ocg = oriented_class_group(s, norm_maps(s, store=store))
    assert s.case == "Split" and ocg.norms.ker_nm0.invariant_factors == (3,)
    monkeypatch.setattr(relative, "principal_generator", None)
    monkeypatch.setattr(ClassGroupData, "dlog", None)
    assert galois_involution(ocg) == {(0,): (0,), (1,): (2,), (2,): (1,)}


def test_relative_ideal_norm_principal():
    # N(alpha R) = (N(alpha)): check on a principal ideal of Q(zeta_3)/Q
    q = make_field([0, 1])
    s = _setup(q, [], 3)
    L = s.rel_field
    alpha = L.one() - L.gen()  # 1 - zeta_3, norm 3
    ideal = FractionalIdeal.principal(L, alpha)
    nm = relative_ideal_norm(s, ideal)
    assert nm == FractionalIdeal.principal(q, q.rational(3))


def _norm_prime_by_prime(setup, ideal, support):
    """N_{L/K}(I) as prod P^(v_Q(I) f(Q|P)) over the primes Q above the
    rational primes in support, each P found by containment of its basis in
    Q."""
    K, L = setup.field, setup.rel_field
    out = FractionalIdeal.unit(K)
    for p in support:
        for qr in factor_rational_prime(L, p):
            v = ideal.valuation(qr)
            if v:
                below, = [pr for pr in factor_rational_prime(K, p)
                          if all(qr.ideal.contains(setup.embed.map(b))
                                 for b in pr.ideal.basis_elements())]
                out = out * below.ideal ** (v * (qr.f // below.f))
    return out


NORM_SETUPS = (
    ((0, 1), [], 3), ((5, 0, 1), [], 3), ((1, 0, 1), [], 3),
    ((-2, 0, 1), [], 3), ((2, 0, 1), [2], 3), ((-5, 0, 1), [], 5),
)


@lru_cache(maxsize=None)
def _norm_setup(i):
    poly, primes, ell = NORM_SETUPS[i]
    return _setup(make_field(poly), primes, ell)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_relative_ideal_norm_by_contraction(data):
    s = _norm_setup(data.draw(st.integers(0, len(NORM_SETUPS) - 1)))
    L = s.rel_field
    support = (2, 3, 5, 7)
    primes = [qr for p in support for qr in factor_rational_prime(L, p)]
    chosen = data.draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3))
    ideal = FractionalIdeal.product(
        L, [(qr.ideal, data.draw(st.integers(-2, 3))) for qr in chosen])
    nm = relative_ideal_norm(s, ideal)
    assert nm == _norm_prime_by_prime(s, ideal, support)
    # N_{K/Q}(N_{L/K}(I)) = N_{L/Q}(I)
    assert nm.norm() == ideal.norm()


def test_relative_norm_of_a_prime_above_a_large_p(monkeypatch):
    # no rational prime is factored in K: the norm of Q above p is P^f(Q|P)
    s = _setup(quadratic_field(-5), [], 3)
    p = 10_000_019
    primes_l = factor_rational_prime(s.rel_field, p)
    primes_k = factor_rational_prime(s.field, p)
    monkeypatch.setattr(relative, "factor_rational_prime", None)
    for qr in primes_l:
        nm = relative_ideal_norm(s, qr.ideal)
        below = relative._prime_below(s, qr, primes_k)
        assert nm == below.ideal ** (qr.f // below.f)
        assert nm.norm() == qr.ideal.norm()


def test_s_unit_norm_maps_rational():
    # Q with S = {2, 3}: 2 is inert, 3 ramifies; cokernel gains the class
    # of 2 next to -1
    q = make_field([0, 1])
    s = _setup(q, [2, 3], 3)
    nm = norm_maps(s)
    assert nm.coker_nm1_group.invariant_factors == (2, 2)
    assert inert_place_count(s) == 2  # real place + the prime 2
    # norms of the S-unit generators (4 and 3) are independent, so the
    # norm-one subgroup is just the torsion
    assert nm.ker_nm1.free_rank == 0
    assert nm.ker_nm1.torsion.invariant_factors == (6,)
