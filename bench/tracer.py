"""In-process layer tracer for one benchmark case.

The tracer wraps public functions of the `sl2tate` modules from outside the
package: the module attribute, every `from .x import y` binding of the same
object in other `sl2tate` modules, and methods on their class.  Each wrapped
call is a span (name, start, end, parent).  Self time is computed on the fly
as the span's duration minus the time its child spans cover; calls run on
one thread and nest, so that coverage is the sum of the child durations.

Layer functions called thousands of times per case ("hot" targets) are not
kept as individual spans: their calls are folded into one summary span per
(name, parent span), which keeps the in-memory trace small.  Stage functions
are kept as individual spans.  Everything stays in memory until `dump()`.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute path, reported name, hot)
TARGETS = (
    ("intlinalg", "snf_with_transforms", "intlinalg.snf_with_transforms", True),
    ("intlinalg", "snf", "intlinalg.snf", True),
    ("intlinalg", "hnf", "intlinalg.hnf", True),
    ("intlinalg", "hnf_canonical", "intlinalg.hnf", True),
    ("intlinalg", "rank", "intlinalg.rank", True),
    ("intlinalg", "cokernel", "intlinalg.cokernel", False),
    ("intlinalg", "solve_integer", "intlinalg.solve_integer", True),
    ("numberfield", "make_field", "numberfield.make_field", False),
    ("numberfield", "NFElement.__mul__", "numberfield.NFElement.mul", True),
    ("ideals", "FractionalIdeal.contains", "ideals.FractionalIdeal.contains", True),
    ("ideals", "FractionalIdeal.valuation", "ideals.FractionalIdeal.valuation", True),
    ("ideals", "FractionalIdeal.__mul__", "ideals.FractionalIdeal.mul", True),
    ("ideals", "factor_rational_prime", "ideals.factor_rational_prime", False),
    ("ideals", "principal_generator", "ideals.principal_generator", False),
    ("ideals", "find_root", "ideals.find_root", False),
    ("sinvariants", "class_group", "sinvariants.class_group", False),
    ("sinvariants", "unit_group", "sinvariants.unit_group", False),
    ("sinvariants", "ingest_backend", "sinvariants.ingest_backend", False),
    ("sinvariants", "forms_class_group_oracle",
     "sinvariants.forms_class_group_oracle", False),
    ("relative", "build_setup", "relative.build_setup", False),
    ("relative", "relative_unit_group", "relative.relative_unit_group", False),
    ("relative", "norm_maps", "relative.norm_maps", False),
    ("relative", "oriented_class_group", "relative.oriented_class_group", False),
    ("relative", "galois_involution", "relative.galois_involution", False),
    ("classify", "subgroup_classes", "classify.subgroup_classes", False),
    ("classify", "representative_matrix", "classify.representative_matrix", False),
    ("cohomology", "component_ring", "cohomology.component_ring", False),
    ("cohomology", "total_dimensions", "cohomology.total_dimensions", False),
    ("cohomology", "oracle_cyclic", "cohomology.oracles", True),
    ("cohomology", "oracle_product", "cohomology.oracles", True),
    ("cohomology", "oracle_dihedral_invariants", "cohomology.oracles", True),
    ("applications", "restriction_scenario", "applications.restriction_scenario",
     False),
    ("applications", "quillen_report", "applications.quillen_report", False),
    ("applications", "detection_report", "applications.detection_report", False),
    ("applications", "colimit_case", "applications.colimit_case", False),
)


def patch(module_name: str, attr_path: str, make_wrapper) -> None:
    """Replace `sl2tate.<module_name>.<attr_path>` by `make_wrapper(orig)`
    wherever the same object is bound: module attributes of every loaded
    `sl2tate` module, or class attributes (`Class.method`, including aliases
    such as `__rmul__ = __mul__`)."""
    owner = sys.modules[f"sl2tate.{module_name}"]
    *cls_path, attr = attr_path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    orig = getattr(owner, attr)
    wrapper = make_wrapper(orig)
    if cls_path:
        for name, value in list(vars(owner).items()):
            if value is orig:
                setattr(owner, name, wrapper)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sl2tate" or mod_name.startswith("sl2tate.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, wrapper)


def field_key(field) -> tuple:
    """Identity of a number field for the waste counters: min poly and
    integral basis, never the place set."""
    return (tuple(field.min_poly), tuple(tuple(str(x) for x in row) for row in field.basis))


class Tracer:
    """Span stack, per-name call counts and self times, and waste counters."""

    def __init__(self, start: float):
        # time.monotonic, so stamps compare with the parent process's clock
        self._clock = time.monotonic
        # frame: [span id, time covered by child spans]; the root span "case"
        # starts at `start`, the first statement of the case runner
        self._start = start
        self._stack = [[0, 0.0]]
        self._next_id = 1
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.self_s_in_class_group = Counter()
        self.counters = Counter()
        self.spans = []        # (id, name, start, end, parent, self_s)
        self._folded = {}      # (name, parent) -> [first start, last end, calls, total, self]
        self._fields_built = set()
        self._class_group_fields = set()
        self._class_group_depth = 0

    # -- generic span wrapper ------------------------------------------------

    def _span(self, name, fn, hot, on_exit=None):
        stack, clock = self._stack, self._clock
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            # a hot call is folded under the nearest stage span, so it takes
            # that span's id as its own and its hot children fold there too
            if hot:
                frame = [stack[-1][0], 0.0]
            else:
                frame = [self._next_id, 0.0]
                self._next_id += 1
            stack.append(frame)
            exc = result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1]
                dur = end - start
                own = dur - frame[1]
                parent[1] += dur
                calls[name] += 1
                self_s[name] += own
                self.total_s[name] += dur
                if self._class_group_depth:
                    self.self_s_in_class_group[name] += own
                if hot:
                    key = (name, frame[0])
                    agg = self._folded.get(key)
                    if agg is None:
                        self._folded[key] = [start, end, 1, dur, own]
                    else:
                        agg[1] = end
                        agg[2] += 1
                        agg[3] += dur
                        agg[4] += own
                else:
                    self.spans.append((frame[0], name, start, end, parent[0], own))
                if on_exit is not None:
                    on_exit(args, result, exc)

        return wrapper

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "numberfield.make_field": self._on_make_field,
            "intlinalg.snf_with_transforms": self._on_snf_with_transforms,
            "ideals.principal_generator": self._on_principal_generator,
            "classify.representative_matrix": self._on_representative_matrix,
            "sinvariants.class_group": self._on_class_group,
        }
        self._search_exhausted = sys.modules["sl2tate.errors"].SearchExhausted
        for module, attr, name, hot in TARGETS:
            patch(module, attr, lambda fn, name=name, hot=hot:
                  self._span(name, fn, hot, hooks.get(name)))
        self._install_counters()

    def _install_counters(self) -> None:
        counters = self.counters

        def count_norms(fn):
            def wrapper(*args, **kwargs):
                counters["numberfield.norm_of_int_coords.calls"] += 1
                if self._class_group_depth:
                    counters["sinvariants.class_group.norm_calls"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def count_yields(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters["ideals.search_elements.yielded"] += 1
                    yield item
            return wrapper

        def count_relations(fn):
            # relation columns handed to the class-group finish step, less the
            # one seeded relation (p) per rational prime under the generators
            def wrapper(field, places, gen_primes, rel_cols):
                if rel_cols is not None:
                    seeded = len({pr.p for pr in gen_primes})
                    counters["sinvariants.class_group.relations"] += rel_cols.ncols - seeded
                return fn(field, places, gen_primes, rel_cols)
            return wrapper

        def depth(fn):
            def wrapper(*args, **kwargs):
                self._class_group_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._class_group_depth -= 1
            return wrapper

        patch("numberfield", "NumberField.norm_of_int_coords", count_norms)
        patch("ideals", "search_elements", count_yields)
        patch("sinvariants", "_finish_class_group", count_relations)
        patch("sinvariants", "class_group", depth)

    # -- waste counters --------------------------------------------------------

    def _on_make_field(self, args, result, exc):
        if exc is not None:
            return
        key = field_key(result)
        if key in self._fields_built:
            self.counters["numberfield.make_field.repeat_calls"] += 1
        self._fields_built.add(key)

    def _on_class_group(self, args, result, exc):
        key = field_key(args[0])
        if key in self._class_group_fields:
            self.counters["sinvariants.class_group.repeat_calls"] += 1
        self._class_group_fields.add(key)

    def _on_snf_with_transforms(self, args, result, exc):
        m = args[0]
        cells = m.nrows * m.ncols
        if cells > self.counters["intlinalg.snf_with_transforms.max_cells"]:
            self.counters["intlinalg.snf_with_transforms.max_cells"] = cells

    def _on_principal_generator(self, args, result, exc):
        if isinstance(exc, self._search_exhausted):
            self.counters["ideals.principal_generator.exhausted"] += 1
        elif exc is None:
            self.counters["ideals.principal_generator.found"] += 1

    def _on_representative_matrix(self, args, result, exc):
        if isinstance(exc, self._search_exhausted):
            self.counters["classify.representative_matrix.exhausted"] += 1

    # -- output ----------------------------------------------------------------

    def dump(self) -> dict:
        """Per-name calls and self times, counters, and the span list."""
        root = self._stack[0]
        end = self._clock()
        root_self = (end - self._start) - root[1]
        spans = [list(s) for s in self.spans]
        spans.extend([name, parent, start, last, calls, total, own]
                     for (name, parent), (start, last, calls, total, own)
                     in self._folded.items())
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "self_s_in_class_group": dict(self.self_s_in_class_group),
            "counters": dict(self.counters),
            "root": {"name": "case", "start": self._start, "end": end,
                     "self_s": root_self},
            "spans": spans,
            "span_format": {
                "stage": ["id", "name", "start", "end", "parent", "self_s"],
                "folded": ["name", "parent", "first_start", "last_end", "calls",
                           "total_s", "self_s"],
            },
        }
