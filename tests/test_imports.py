"""No module of `src/subtiling` imports a name it does not use, no
function, dataclass field or module-level constant of it goes unread, and
no default of it goes unset.

Stdlib `ast` checks in place of a linter.  Every name an `import` or
`from ... import` binds must be read somewhere in the module.  Re-exports
in `__init__.py` and `from __future__` imports are exempt; the names in
`KEPT` are the only other exceptions, each with its reason.  Every
function and method, every field of a `@dataclass` and every name a
module-level assignment binds in `src/subtiling` must be read somewhere
in it, as a name or an attribute, or be exported in `__all__`.  Dunders
are exempt; the names in `KEPT_UNREAD` are the only other exceptions.
Every defaulted parameter of a function or method in `src/subtiling`
must be set by a call in it, by keyword or by position; the parameters
in `KEPT_DEFAULTS` are the only exceptions.
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
KEPT_UNREAD = {
    ("algebraic", "beta"):
        "NumberField.beta builds beta as a FieldElem for the tests, which "
        "use FieldElem as the reference field; the program keeps its "
        "lengths and shifts as integer vectors and never needs beta as one",
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


# (module, function, parameter) -> why no call in src/subtiling sets it
KEPT_DEFAULTS = {
    ("cli", "main", "argv"):
        "the console script calls main() with no argument, which reads "
        "sys.argv; the tests pass argv",
}


def _defaults(node, method):
    """{name: position} of a function's parameters that have defaults,
    position None for a keyword-only one; a method's first parameter is
    left out of the positions."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    offset = 1 if method else 0
    return {**{a.arg: i - offset for i, a in enumerate(positional)
               if i >= first},
            **{a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None}}


def unset_defaults(sources):
    """(module, function, parameter) of every defaulted parameter of a
    function or method in the sources, a dict of module name to source
    text, that no call in them sets, by keyword or by position.  A call
    `f(...)` or `x.f(...)` is matched to every definition named f, and a
    call of a class name to the class's `__init__`.  A `*` argument sets
    every positional parameter, and a `**` argument every parameter."""
    defined, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = [(node.name if item.name == "__init__" else item.name,
                    item) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef)]
        in_class = {id(item) for _, item in methods}
        defined += [(module, name, item, True) for name, item in methods]
        defined += [(module, node.name, node, False)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and id(node) not in in_class]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(getattr(func, "id", None)
                                 or getattr(func, "attr", None),
                                 []).append(node)
    found = []
    for module, name, node, method in defined:
        unset = _defaults(node, method)
        for call in calls.get(name, ()):
            given = {k.arg for k in call.keywords}
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            unset = {p: i for p, i in unset.items()
                     if None not in given and p not in given
                     and (i is None or not starred and i >= len(call.args))}
        found += [(module, name, p) for p in unset]
    return sorted(found)


def test_every_default_in_src_is_set_by_a_call():
    found = set(unset_defaults({
        path.stem: path.read_text(encoding="utf-8")
        for path in SRC.glob("*.py")}))
    assert sorted(found - KEPT_DEFAULTS.keys()) == []
    assert sorted(KEPT_DEFAULTS.keys() - found) == []


def test_guard_catches_a_default_no_call_sets():
    sources = {"mod": (
        "class Box:\n"
        "    def __init__(self, size, label=''):\n"
        "        self.size = size\n"
        "    def grow(self, by=1, *, twice=False):\n"
        "        return by\n"
        "def run(x, scale=1, offset=0, *, loud=False, quiet=False):\n"
        "    return x\n"
        "class Tag:\n"
        "    def __init__(self, text, bold=False):\n"
        "        self.text = text\n"
        "def spread(args, options):\n"
        "    Box(3).grow(2), Tag('x')\n"
        "    run(1, 2, quiet=True)\n"
        "    return run(*args), Box(**options)\n")}
    assert unset_defaults(sources) == [
        ("mod", "Tag", "bold"), ("mod", "grow", "twice"),
        ("mod", "run", "loud")]
