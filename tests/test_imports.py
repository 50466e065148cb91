"""Every module under src/sl2tate uses each name it imports and reads each
local it assigns; a refactor that moves the last use of an import or a local
elsewhere must drop it too.  The package needs nothing beyond the standard
library at run time: sympy is a test oracle only."""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sl2tate"
ORACLES = {"sympy", "mpmath"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements (anywhere in the module) that no
    Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _own_nodes(fn):
    """The nodes of a function body, not descending into nested functions,
    lambdas or classes (they have their own locals)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(source: str) -> list[str]:
    """function.name for each single name a function assigns that nothing in
    the function (nested closures included) reads.  Tuple-unpacking targets,
    `_` and names declared global or nonlocal are exempt."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, FUNCTIONS):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exempt = {"_"}
        assigned = []
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
            elif isinstance(node, ast.Assign):
                assigned.extend(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                assigned.append(node.target)
        out.update(f"{fn.name}.{t.id}" for t in assigned
                   if isinstance(t, ast.Name) and t.id not in read | exempt)
    return sorted(out)


def test_unused_imports_detects_a_leftover():
    assert unused_imports("import itertools\nimport math\nmath.gcd(2, 4)\n") == ["itertools"]


def test_unread_locals_detects_a_leftover():
    source = (
        "def f(xs):\n"
        "    n = len(xs)\n"          # read by the closure below
        "    out = []\n"             # never read
        "    a, b = xs\n"            # tuple unpacking is exempt
        "    total = 0\n"
        "    total += a\n"           # only rebound, never read
        "    def g():\n"
        "        nonlocal n\n"
        "        n = n + 1\n"
        "    return g, [n * x for x in xs]\n")
    assert unread_locals(source) == ["f.out", "f.total"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_no_function_assigns_a_local_it_never_reads():
    unread = {path.name: unread_locals(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unread.items() if names} == {}


def oracle_imports(source: str) -> list[str]:
    """Top-level names of the test-only packages that any import statement
    of the module binds, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found & ORACLES)


def test_oracle_imports_detects_a_local_import():
    source = "def f():\n    from sympy.ntheory import isprime\n    import mpmath as mp\n"
    assert oracle_imports(source) == ["mpmath", "sympy"]


def test_no_module_imports_sympy_or_mpmath():
    found = {path.name: oracle_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


Q23 = ",".join(["1"] * 23)


@pytest.mark.parametrize("argv", [
    ["analyze", "--field=5,0,1", "--ell", "3"],
    ["analyze", "--field", Q23, "--places", "23", "--ell", "23",
     "--fixtures", str(SRC / "fixtures" / "q23.json")],
])
def test_cli_run_loads_no_oracle_package(argv):
    # nor the class-generating modules: start-up time is most of a CLI run
    unwanted = ORACLES | {"dataclasses", "inspect"}
    code = ("import sys\n"
            "from sl2tate.cli import main\n"
            f"status = main({argv!r})\n"
            f"print(status, sorted(m for m in sys.modules if m.split('.')[0] in {unwanted!r}))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
