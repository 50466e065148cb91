import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2tate import cohomology
from sl2tate.classify import NormalizerDescriptor, subgroup_classes
from sl2tate.cli import main
from sl2tate.cohomology import (
    DimensionFunction,
    component_ring,
    oracle_cyclic,
    oracle_dihedral_invariants,
    oracle_product,
    total_dimensions,
)
from sl2tate.intlinalg import FinGenAbGroup, FiniteAbelianGroup, rref_mod


def _desc(kind, r, m):
    return NormalizerDescriptor(kind, FinGenAbGroup(r, FiniteAbelianGroup((m,))))


def test_abelian_rank0_dims():
    d = component_ring(_desc("Abelian", 0, 6), 3)
    assert d.kind == "LaurentTimesExterior"
    assert d.dims_over_period() == (1, 1)


def test_dihedral_rank0_matches_closed_form():
    # F_ell[a4, a4^-1](b3): one monomial in degrees 0 and 3 mod 4
    d = component_ring(_desc("Dihedral", 0, 6), 3)
    assert d.kind == "InvariantSubring"
    assert d.dims_over_period() == (1, 0, 0, 1)


def test_dihedral_rank1_dims():
    d = component_ring(_desc("Dihedral", 1, 6), 3)
    assert d.dims_over_period() == (1, 0, 1, 2)


def test_coprime_torsion_gives_zero_descriptor():
    d = component_ring(_desc("Abelian", 2, 4), 3)
    assert d.kind == "Zero"
    assert all(d.dim(x) == 0 for x in range(-6, 6))


def test_oracle_cyclic_values():
    assert all(oracle_cyclic(6, 3, d) == 1 for d in range(-12, 13))
    assert all(oracle_cyclic(4, 3, d) == 0 for d in range(-12, 13))
    assert oracle_cyclic(15, 5, -2) == 1


def test_oracle_product_examples():
    assert oracle_product(3, 1, 3, 1) == 2
    for d in range(-12, 13):
        assert oracle_product(6, 0, 3, d) == oracle_cyclic(6, 3, d)


def test_oracle_dihedral_examples():
    assert oracle_dihedral_invariants(0, 3, 3) == 1
    assert oracle_dihedral_invariants(0, 3, 1) == 0


@pytest.mark.parametrize("r", range(5))
@pytest.mark.parametrize("n", [3, 5, 6, 15])
@pytest.mark.parametrize("ell", [3, 5])
def test_abelian_grid_matches_product_oracle(r, n, ell):
    desc = component_ring(_desc("Abelian", r, n), ell)
    for d in range(-12, 13):
        assert desc.dim(d) == oracle_product(n, r, ell, d)


def _reference_differential(n, r, dd):
    """The differential leaving total degree dd, written down directly: on
    the Koszul summand of degree b (C(r, b) copies) it is the cyclic cochain
    map leaving degree dd - b, 0 from even and n from odd degrees."""
    diag = [n if (dd - b) % 2 else 0 for b in range(r + 1) for _ in range(comb(r, b))]
    return [[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)]


def test_product_oracle_matches_a_reference_on_the_cli_grid(monkeypatch, tmp_path):
    grid = [(ell, n, r) for ell in (3, 5) for n in (3, 5, 6, 15) for r in range(5)]
    ranked = []

    def counting_rref_mod(rows, p):
        ranked.append(p)
        return rref_mod(rows, p)

    monkeypatch.setattr(cohomology, "rref_mod", counting_rref_mod)
    cache = cohomology._product_differential_rank
    cache.cache_clear()
    for ell, n, r in grid:
        for d in range(-12, 13):
            ranks = [len(rref_mod(_reference_differential(n, r, dd), ell)[1])
                     for dd in (d, d - 1)]
            assert oracle_product(n, r, ell, d) == 2**r - sum(ranks)
    # each differential (degrees -13..12) is eliminated once, not once per use
    assert len(ranked) == cache.cache_info().currsize == len(grid) * 26
    # the cache holds ranks, never matrices: a repeat is a hit returning an int
    values = [cache(n, r, ell, dd) for ell, n, r in grid for dd in range(-13, 13)]
    assert all(type(v) is int for v in values)
    assert len(ranked) == len(grid) * 26
    # a warm cache does not hide the injected fault
    out = tmp_path / "r.json"
    assert main(["oracle-check", "--forms-bound", "0", "--inject-fault",
                 "--out", str(out)]) == 1
    failed = [row["check"] for row in json.loads(out.read_text())["oracle_checks"]
              if not row["pass"]]
    assert failed == ["abelian ell=3 n=6 r=0"]


@pytest.mark.parametrize("r", range(5))
def test_dihedral_grid_matches_invariant_oracle(r):
    desc = component_ring(_desc("Dihedral", r, 6), 3)
    for d in range(-12, 13):
        assert desc.dim(d) == oracle_dihedral_invariants(r, 3, d)


@pytest.mark.parametrize("r", range(5))
def test_period4_sums(r):
    # abelian component: 2^(r+2) over four degrees; dihedral: 2^(r+1)
    ab = component_ring(_desc("Abelian", r, 6), 3)
    di = component_ring(_desc("Dihedral", r, 6), 3)
    assert sum(ab.dim(d) for d in range(4)) == 2 ** (r + 2)
    assert sum(di.dim(d) for d in range(4)) == 2 ** (r + 1)


@settings(max_examples=60, deadline=None)
@given(r=st.integers(0, 4), d=st.integers(-12, 12),
       shift=st.integers(-3, 3))
def test_periodicity_property(r, d, shift):
    ab = component_ring(_desc("Abelian", r, 6), 3)
    di = component_ring(_desc("Dihedral", r, 6), 3)
    assert ab.dim(d) == ab.dim(d + 2 * shift)
    assert di.dim(d) == di.dim(d + 4 * shift)
    assert oracle_product(6, r, 3, d) == ab.dim(d)


def test_total_dimensions_rational_ell3():
    from sl2tate.numberfield import make_field
    from sl2tate.relative import build_setup, norm_maps, oriented_class_group
    from sl2tate.sinvariants import PlaceSet

    q = make_field([0, 1])
    s = build_setup(q, PlaceSet.make(q), 3)
    nm = norm_maps(s)
    classes = subgroup_classes(oriented_class_group(s, nm))
    dims = total_dimensions(classes, 3)
    assert dims.table(-8, 8) == {d: 1 for d in range(-8, 9)}


def test_total_dimensions_mixed_components():
    classes = [
        type("C", (), {"normalizer": _desc("Dihedral", 1, 6)})(),
        type("C", (), {"normalizer": _desc("Abelian", 1, 6)})(),
    ]
    dims = total_dimensions(classes, 3)
    assert dims.dims == (1 + 2, 0 + 2, 1 + 2, 2 + 2)


def test_dimension_function_table():
    f = DimensionFunction(2, (1, 0))
    assert f.table(-2, 2) == {-2: 1, -1: 0, 0: 1, 1: 0, 2: 1}
