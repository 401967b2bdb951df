"""No module of `src/subtiling` imports a name it does not use.

A stdlib `ast` check in place of a linter: every name an `import` or
`from ... import` binds must be read somewhere in the module.  Re-exports
in `__init__.py` and `from __future__` imports are exempt; the names in
`KEPT` are the only other exceptions, each with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subtiling"

# (module, name) -> why it is imported but not used
KEPT = {
    ("spectrum", "return_vectors"):
        "perfbench/tests/test_perfbench.py asserts that the tracer wraps "
        "spectrum.return_vectors",
    ("coincidence", "reference_point_sets"):
        "perfbench/tests/test_perfbench.py asserts that the tracer wraps "
        "coincidence.reference_point_sets",
}


def unused_imports(source):
    """Names bound by the imports of a module's source that no other
    node of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports_in_src():
    found = {(path.stem, name)
             for path in SRC.glob("*.py") if path.name != "__init__.py"
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert sorted(found - KEPT.keys()) == []
    # an exception that is no longer needed goes from KEPT too
    assert sorted(KEPT.keys() - found) == []


def test_guard_catches_a_leftover_import():
    source = ("from .algebraic import FieldElem, scaled_coords\n"
              "import math\n"
              "x = scaled_coords((1,), 1)\n")
    assert unused_imports(source) == ["FieldElem", "math"]
