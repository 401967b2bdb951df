"""Every function of `src/subtiling` is reached by one fixed set of inputs.

The set runs under `sys.setprofile`, which records the code object of
every Python call: `analyze` on the corpus and on the benchmark's specs,
`verify` on the benchmark's fixtures, the three ways an input is turned
away (a substitution that is not primitive, a malformed spec, a report
with a rejected fact), and `cli.main` for each command.  A `def` that no
call reaches is code that only the tests use; it fails the guard unless
it is in `ALLOWED`, each entry with the reason it stays.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from subtiling import cli
from subtiling.errors import SpecSyntaxError

import workloads

SRC = Path(__file__).resolve().parents[1] / "src" / "subtiling"

# qualified name in its module -> why it stays although no input reaches it
ALLOWED = {
    "suspension.Patch.__len__":
        "the benchmark's tracer counts suspension.patch_tiles by len() of "
        "each patch; deleting it fails two perfbench tests",
    "suspension.return_vectors":
        "the benchmark's tracer test asserts that spectrum.return_vectors "
        "is wrapped",
    "suspension._differences": "the helper of return_vectors",
    **{f"algebraic.{name}": "tests use FieldElem as their reference field"
       for name in ("NumberField.zero", "NumberField.rational",
                    "NumberField.beta", "NumberField.__eq__",
                    "NumberField.__hash__", "FieldElem.__add__",
                    "FieldElem.__neg__", "FieldElem.__sub__",
                    "FieldElem.__rsub__", "FieldElem.is_rational",
                    "FieldElem.__eq__", "FieldElem.__hash__")},
}


def definitions(path):
    """(qualified name, first line) of every def in a source file, the
    first line being that of its first decorator, as in its code
    object; a def inside a function is named through it."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    lines = [d.lineno for d in child.decorator_list]
                    yield name, min(lines + [child.lineno])
                yield from walk(child, name + ".")
            else:
                yield from walk(child, prefix)

    module = path.stem
    yield from walk(ast.parse(path.read_text(encoding="utf-8")),
                    module + ".")


def unreached(paths, codes):
    """Qualified names of the defs in the source files that no code
    object in `codes` belongs to, sorted."""
    called = {(code.co_filename, code.co_firstlineno) for code in codes}
    return sorted(name for path in paths
                  for name, line in definitions(path)
                  if (str(path), line) not in called)


def calls_of(fn, *args):
    """The code objects of every Python call made while fn(*args) runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return codes


def _input_set(tmp_path):
    for spec in cli.corpus():
        cli.run_analysis(spec)
    for name in workloads.CONSTANT_LENGTH_SPECS + workloads.OFF_CORPUS_SPECS:
        bounds = ({} if name in workloads.CONSTANT_LENGTH_SPECS
                  else workloads.OFF_CORPUS_BOUNDS)
        text = (workloads.SPECS / f"{name}.spec").read_text(encoding="utf-8")
        cli.run_analysis(cli.parse_spec(text, name=name), overrides=bounds)
    fixtures = sorted(workloads.FIXTURES.glob("*.json"))
    for path in fixtures:
        assert cli.verify_report(json.loads(path.read_text()))["passed"]
    # turned away: not primitive, malformed, a rejected fact of either
    # check of from_facts
    report = cli.run_analysis(cli.parse_spec(
        "letters a b\nrule a = a\nrule b = a b\n", name="reducible"))
    assert "error" in report["checks"]
    with pytest.raises(SpecSyntaxError):
        cli.parse_spec("letters a b\nrule a =\n")
    for key in ("minimal_polynomial", "prototile_lengths"):
        report = json.loads(
            (workloads.FIXTURES / "fibonacci.json").read_text())
        report["facts"][key].reverse()
        assert cli.verify_report(report)["replayed"] == {"facts": False}
    out = tmp_path / "report.json"
    for argv in (["corpus", "list"], ["patch", "fibonacci", "--n", "2"],
                 ["analyze", "thue-morse", "--verify", "-o", str(out)],
                 ["verify", str(out)]):
        cli.main(argv)


def test_every_def_in_src_is_reached(tmp_path, capsys):
    # a cache filled by an earlier test would answer without a call
    modules = [module for name, module in sys.modules.items()
               if name.startswith("subtiling.")]
    for value in [v for module in modules for v in vars(module).values()]:
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    codes = calls_of(_input_set, tmp_path)
    capsys.readouterr()
    found = unreached(sorted(SRC.glob("*.py")), codes)
    assert sorted(set(found) - ALLOWED.keys()) == []
    # an entry that a call now reaches goes from ALLOWED too
    assert sorted(ALLOWED.keys() - set(found)) == []


def test_guard_catches_a_planted_unreached_function(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text("class A:\n"
                    "    @property\n"
                    "    def size(self):\n"
                    "        return helper()\n"
                    "    def unreached(self):\n"
                    "        pass\n"
                    "def helper():\n"
                    "    def inner():\n"
                    "        return 1\n"
                    "    return inner()\n"
                    "def planted():\n"
                    "    pass\n", encoding="utf-8")
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    codes = calls_of(lambda: namespace["A"]().size)
    assert unreached([path], codes) == ["planted.A.unreached",
                                        "planted.planted"]
