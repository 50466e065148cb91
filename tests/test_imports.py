"""Every module under src/sl2tate uses each name it imports; a refactor that
moves the last use of an import elsewhere must drop the import too."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sl2tate"


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


def test_unused_imports_detects_a_leftover():
    assert unused_imports("import itertools\nimport math\nmath.gcd(2, 4)\n") == ["itertools"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
