"""Every cap has one home.

The settable bounds are `L`, `window` and `node_cap`: the rows of
`cli.BOUNDS` with a flag, and the parameters that carry them to the
checks.  Every other cap is a module constant, so no public function,
method or dataclass may take one as a parameter or field.  A name reads
as a cap when it holds `cap` or `max` or ends in `_bound`, so that
`kmax` or `level_bound` is caught as `pair_cap` is; a verdict's `bound`
and `bound_hit` report the cap a run met and are not caps.
"""

import dataclasses
import inspect

import pytest

from subtiling import (algebraic, cli, coincidence, lattices, polys,
                       spectrum, suspension, words)

MODULES = (algebraic, cli, coincidence, lattices, polys, spectrum,
           suspension, words)

# the window reaches overlap_coincidence as a parameter named `window`,
# which reads as no cap
ALLOWED = {
    # L, the level bound of the word searches and of the walks
    ("BOUNDS", "level_bound"), ("prefix_strong", "level_bound"),
    ("prefix_simultaneous", "level_bound"),
    ("geometric_strong", "level_bound"), ("simultaneous", "level_bound"),
    ("Walk.search", "level_bound"),
    # node_cap, of the overlap closure and of the walks
    ("BOUNDS", "node_cap"), ("overlap_coincidence", "node_cap"),
    ("geometric_strong", "node_cap"), ("simultaneous", "node_cap"),
    ("Walk.search", "node_cap"),
}


def _names_a_cap(name):
    return "cap" in name or "max" in name or name.endswith("_bound")


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
            if _names_a_cap(param):
                found.add((name, param))
    for name, value in vars(module).items():
        if inspect.isclass(value) and dataclasses.is_dataclass(value) \
                and value.__module__ == module.__name__:
            found.update((name, f.name) for f in dataclasses.fields(value)
                         if _names_a_cap(f.name))
    found.update(("BOUNDS", bound.override)
                 for bound in getattr(module, "BOUNDS", ())
                 if bound.override and _names_a_cap(bound.override))
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


def test_only_the_settable_bounds_have_a_flag():
    # k, pair_cap and iter_cap are reported, fixed at their constants
    assert [(b.key, b.flag) for b in cli.BOUNDS
            if b.flag or b.override or b.spec_line] == [
        ("L", "--Lmax"), ("window", "--window"), ("node_cap", "--node-cap")]
    assert [(b.key, b.default) for b in cli.BOUNDS if not b.flag] == [
        ("k", lattices.POWER_BOUND), ("pair_cap", spectrum.PAIR_CAP),
        ("iter_cap", spectrum.ITER_CAP)]
