"""No module of `src/subtiling` imports a name it does not use, and no
function, dataclass field or module-level constant of it goes unread.

Stdlib `ast` checks in place of a linter.  Every name an `import` or
`from ... import` binds must be read somewhere in the module.  Re-exports
in `__init__.py` and `from __future__` imports are exempt; the names in
`KEPT` are the only other exceptions, each with its reason.  Every
function and method, every field of a `@dataclass` and every name a
module-level assignment binds in `src/subtiling` must be read somewhere
in it, as a name or an attribute, or be exported in `__all__`.  Dunders
are exempt; the names in `KEPT_UNREAD` are the only other exceptions.
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


# (module, name) -> why it is defined but read nowhere in src/subtiling
KEPT_UNREAD = {}


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


def _is_dataclass(node):
    """Whether a class has a `dataclass` decorator, called or not."""
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def definitions(tree):
    """Names of the functions and methods, dataclass fields and
    module-level assignments of a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            yield from (item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign))
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from (t.id for t in targets if isinstance(t, ast.Name))


def unread_definitions(sources):
    """(module, name) of every function, method, dataclass field or
    module-level constant defined in the sources, a dict of module name
    to source text, that is neither read by a node of any of them nor in
    the `__all__` of the module "__init__"; dunders are exempt."""
    defined, read, exported = set(), set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined.update((module, name) for name in definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and \
                    not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif module == "__init__" and isinstance(node, ast.Assign) and \
                    [t.id for t in node.targets] == ["__all__"]:
                exported.update(ast.literal_eval(node.value))
    return sorted((module, name) for module, name in defined
                  if name not in read | exported
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_in_src_is_read():
    found = set(unread_definitions({
        path.stem: path.read_text(encoding="utf-8")
        for path in SRC.glob("*.py")}))
    assert sorted(found - KEPT_UNREAD.keys()) == []
    assert sorted(KEPT_UNREAD.keys() - found) == []


def test_guard_catches_an_unread_function():
    sources = {
        "__init__": "__all__ = ['exported']\n",
        "mod": ("class A:\n"
                "    def __eq__(self, other): return True\n"
                "    def method(self): return helper()\n"
                "    def unread(self): pass\n"
                "def helper(): return A().method\n"
                "def exported(): pass\n"
                "def dead(): pass\n"),
    }
    assert unread_definitions(sources) == [("mod", "dead"), ("mod", "unread")]


def test_guard_catches_an_unread_field_and_constant():
    sources = {
        "__init__": "__all__ = ['run']\n",
        "mod": ("from dataclasses import dataclass\n"
                "LIMIT = 3\n"
                "UNUSED = 4\n"
                "@dataclass(frozen=True)\n"
                "class Result:\n"
                "    status: str\n"
                "    name: str = ''\n"
                "class Plain:\n"
                "    note: str = ''\n"
                "def run():\n"
                "    r = Result('HOLDS')\n"
                "    r.name = 'set, never read'\n"
                "    return r.status, LIMIT\n"),
    }
    assert unread_definitions(sources) == [("mod", "UNUSED"), ("mod", "name")]


def imported_modules(source):
    """Top-level names of the modules a source imports from."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_polys_imports_no_fractions():
    # every polys routine runs on ints, interval ends included
    source = (SRC / "polys.py").read_text(encoding="utf-8")
    assert "fractions" not in imported_modules(source)


def test_guard_catches_an_import_of_fractions():
    assert "fractions" in imported_modules("from fractions import Fraction\n")
    assert "fractions" in imported_modules("import fractions as fr\n")


def fraction_attributes(source):
    """The `.numerator` and `.denominator` attributes the source reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and node.attr in ("numerator", "denominator")}


def test_polys_reads_no_fraction_attributes():
    # a rational point is a pair of ints, never a Fraction-like object
    source = (SRC / "polys.py").read_text(encoding="utf-8")
    assert not fraction_attributes(source)


def test_guard_catches_a_fraction_attribute():
    assert fraction_attributes("def f(x):\n    return x.numerator\n") == \
        {"numerator"}
    assert fraction_attributes("n, d = 1, r.denominator\n") == \
        {"denominator"}
    assert not fraction_attributes("numerator = 1  # .denominator\n")
