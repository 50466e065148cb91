"""The traced benchmark patches sl2tate functions by name: bench/tracer.py
through TARGETS and _install_counters, bench/case.py through its own
`patch` calls.  A refactor that renames or reshapes one of them must fail
here instead of silently breaking the traced benchmark."""
import importlib
import inspect
import os
import re
import types

import sl2tate.cli  # noqa: F401  (loads every module the tracer patches)
from sl2tate import sinvariants
from sl2tate.numberfield import quadratic_field

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
PATCH_CALL = re.compile(r'patch\("(\w+)", "([\w.]+)"')


def _source(name):
    with open(os.path.join(BENCH, name)) as f:
        return f.read()


def _tracer():
    # executed from its source text, so no bytecode cache lands in bench/
    module = types.ModuleType("bench_tracer")
    exec(compile(_source("tracer.py"), "tracer.py", "exec"), module.__dict__)
    return module


def _resolve(module, attr_path):
    obj = importlib.import_module(f"sl2tate.{module}")
    for part in attr_path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_targets_resolve():
    targets = _tracer().TARGETS
    assert targets
    for module, attr_path, _, _ in targets:
        assert callable(_resolve(module, attr_path)), (module, attr_path)


def test_counter_and_case_patches_resolve():
    patched = set(PATCH_CALL.findall(_source("tracer.py")))
    patched |= set(PATCH_CALL.findall(_source("case.py")))
    assert patched >= {
        ("numberfield", "NumberField.norm_of_int_coords"),
        ("ideals", "search_elements"),
        ("sinvariants", "_finish_class_group"),
        ("sinvariants", "class_group"),
        ("sinvariants", "ingest_backend"),
    }
    for module, attr_path in patched:
        assert callable(_resolve(module, attr_path)), (module, attr_path)


def test_finish_class_group_takes_four_positional_arguments(monkeypatch):
    # the relation counter wraps it as (field, places, gen_primes, rel_cols)
    inspect.signature(sinvariants._finish_class_group).bind(1, 2, 3, 4)
    finish = sinvariants._finish_class_group
    seen = []

    def wrapper(field, places, gen_primes, rel_cols):
        seen.append(len(gen_primes))
        return finish(field, places, gen_primes, rel_cols)

    monkeypatch.setattr(sinvariants, "_finish_class_group", wrapper)
    k = quadratic_field(-5)
    cl = sinvariants.class_group(k, sinvariants.PlaceSet.make(k))
    assert seen and cl.group.order == 2
