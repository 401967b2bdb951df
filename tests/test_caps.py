"""Every cap has one home.

The settable bounds are `node_cap` and `pair_cap` (flags and `cli.BOUNDS`
rows) and the symbol cap of `Substitution.apply`/`iterate`, where the
word cap is enforced.  Every other cap is a module constant, so no public
function, method or dataclass may take one as a parameter or field.
"""

import dataclasses
import inspect

import pytest

from subtiling import (algebraic, cli, coincidence, lattices, polys,
                       spectrum, suspension, words)

MODULES = (algebraic, cli, coincidence, lattices, polys, spectrum,
           suspension, words)

ALLOWED = {
    ("BOUNDS", "node_cap"), ("BOUNDS", "pair_cap"),
    ("overlap_coincidence", "node_cap"), ("balanced_pairs", "pair_cap"),
    ("geometric_strong", "node_cap"), ("simultaneous", "node_cap"),
    ("Substitution.apply", "cap"), ("Substitution.iterate", "cap"),
}


def _public_callables(module):
    """(name, callable) for the module's own public functions and the
    public methods of its own public classes; a constructor goes by the
    class name."""
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and attr == "__init__":
                    yield name, member
                elif inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def _cap_names(module):
    found = set()
    for name, fn in _public_callables(module):
        for param in inspect.signature(fn).parameters:
            if "cap" in param:
                found.add((name, param))
    for name, value in vars(module).items():
        if inspect.isclass(value) and dataclasses.is_dataclass(value) \
                and value.__module__ == module.__name__:
            found.update((name, f.name) for f in dataclasses.fields(value)
                         if "cap" in f.name)
    found.update(("BOUNDS", bound.override)
                 for bound in getattr(module, "BOUNDS", ())
                 if "cap" in bound.override)
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_pass_through_cap_parameters(module):
    assert _cap_names(module) <= ALLOWED


def test_the_settable_caps_are_still_there():
    found = set().union(*map(_cap_names, MODULES))
    assert found == ALLOWED


def test_suspension_system_holds_no_word_cap():
    fib = words.Substitution([b"\x01\x02", b"\x01"])
    assert not hasattr(suspension.SuspensionSystem(fib), "word_cap")
