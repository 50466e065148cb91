"""Fixture and scenario documents are the program's trust boundary: the
class and unit groups of Q(zeta_23), and the restriction to its Hilbert
class field, are read from them.  Every value is read through
sinvariants.schema_entry, which checks its shape, so a malformed document
ends in one of the package's errors and never in a traceback."""
import ast
import copy
import json
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2tate.applications import restriction_scenario
from sl2tate.errors import (
    ConsistencyFailure,
    InvalidInput,
    NeedsBackendData,
    RegularityViolated,
    SchemaViolation,
    UnsupportedCase,
)
from sl2tate.numberfield import make_field
from sl2tate.sinvariants import BackendStore, PlaceSet, class_group, ingest_backend, unit_group

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sl2tate"
READERS = ("sinvariants.py", "applications.py", "cli.py")
DOCUMENT_PARAMS = {"doc", "document"}


def _is_document(value) -> bool:
    """Whether an assigned value is a document or a section of one: a JSON
    file read by _read_json, or a schema_entry(..., dict) section."""
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)):
        return False
    return value.func.id == "_read_json" or (
        value.func.id == "schema_entry" and len(value.args) == 3
        and isinstance(value.args[2], ast.Name) and value.args[2].id == "dict")


def document_reads(source: str) -> list[str]:
    """function:line of each subscript or .get( on a document or a section
    outside schema_entry.  Documents are the parameters doc and document and
    the names bound by _is_document; membership tests ("class_group" in
    document) are not reads."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or \
                fn.name == "schema_entry":
            continue
        names = {a.arg for a in fn.args.args if a.arg in DOCUMENT_PARAMS}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    names.update(t.id for t, v in pairs
                                 if isinstance(t, ast.Name) and _is_document(v))
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript):
                read = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get":
                read = node.func.value
            else:
                continue
            if isinstance(read, ast.Name) and read.id in names:
                out.add(f"{fn.name}:{node.lineno}")
    return sorted(out)


def test_document_reads_detects_reads_outside_schema_entry():
    source = (
        "def ingest(store, document):\n"
        "    fdoc = document['field']\n"                            # 2
        "    udoc = schema_entry(document, 'unit_group', dict)\n"
        "    gens = udoc.get('free_gens', [])\n"                    # 4
        "    if 'torsion_gen' in udoc:\n"
        "        return len(gens), fdoc\n"
        "def restrict(args):\n"
        "    scenario = _read_json(args.scenario)\n"
        "    src, tgt = schema_entry(scenario, 'source', dict), 5\n"
        "    return src['label'], tgt[0], scenario.get('kind')\n")  # 10
    assert document_reads(source) == ["ingest:2", "ingest:4", "restrict:10"]


def test_documents_are_read_only_through_schema_entry():
    reads = {name: document_reads((SRC / name).read_text()) for name in READERS}
    assert {name: found for name, found in reads.items() if found} == {}


# a fixture with every section, on Q(sqrt -5): Cl = Z/2, generated by
# (2, 1 + sqrt -5), and units +-1 (-1 written as the pair -2/2)
FIXTURE = {
    "schema": "sl2tate-fixture-1", "kind": "s-invariants", "trust": "test",
    "field": {"min_poly": [5, 0, 1], "basis": [[1, 0], [0, 1]], "label": "Q(sqrt-5)"},
    "places": [],
    "class_group": {"invariant_factors": [2], "generator_ideals": [[[2], [1, 1]]]},
    "unit_group": {"rank": 0, "torsion_order": 2, "torsion_gen": [[-2, 2]], "free_gens": []},
    "norm_images": {"nm1": [[0]]},
}
QSQRT_5 = make_field([5, 0, 1])
QSQRT_5_PLACES = PlaceSet.make(QSQRT_5)
with open(SRC / "fixtures" / "q23.json") as f:
    Q23 = json.load(f)
with open(SRC / "fixtures" / "q23_hilbert.json") as f:
    HILBERT = json.load(f)


def _paths(value, prefix=()):
    """Every key path into a document, the root included; of the items of a
    list only the first, as they all have one shape."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value[:1]) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-99, 99) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)
READ_ERRORS = (SchemaViolation, ConsistencyFailure, InvalidInput, NeedsBackendData)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_paths(FIXTURE), key=str)), JSON_VALUES)
@example(("class_group", "invariant_factors"), [2.0])
@example(("class_group", "invariant_factors", 0), 2.0)
def test_a_fixture_value_of_another_shape_is_rejected(path, value):
    store = BackendStore()
    try:
        ingest_backend(store, _replaced(FIXTURE, path, value))
    except READ_ERRORS:
        return
    # the ingested groups where the field and places are still Q(sqrt -5),
    # else the built-in ones
    cl = class_group(QSQRT_5, QSQRT_5_PLACES, store=store)
    assert all(type(d) is int for d in cl.group.invariant_factors)
    units = unit_group(QSQRT_5, QSQRT_5_PLACES, store=store)
    assert type(units.rank) is int and type(units.torsion_order) is int


@pytest.fixture(scope="module")
def q23_store():
    store = BackendStore()
    ingest_backend(store, Q23)
    return store


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_paths(HILBERT), key=str)), JSON_VALUES)
@example(("target", "class_group", "invariant_factors"), [2.0])
@example(("source", "ell"), 3)
def test_a_scenario_value_of_another_shape_is_rejected(q23_store, path, value):
    # ell = 3 asks for the class group of Q(zeta_23)(zeta_3), of degree 44,
    # which the store lacks: NeedsBackendData before that field is built
    try:
        report = restriction_scenario(_replaced(HILBERT, path, value), store=q23_store)
    except READ_ERRORS + (RegularityViolated, UnsupportedCase):
        # a well-formed scenario of another setup may be irregular or have
        # no ell-torsion
        return
    assert type(report.degree) is int
