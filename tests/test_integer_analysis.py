"""After setup, the checks on Q(beta) run on integer vectors.

Setup makes the field elements: the prototile lengths, beta and one
inverse per cycle of the control points.  Once a system and its
reference points are built, no check makes another.
"""

import pytest

from subtiling import algebraic, cli
from subtiling import coincidence as C
from subtiling import lattices as L
from subtiling import spectrum as SP
from subtiling import suspension as S

from conftest import CORPUS_IDS


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_checks_make_no_field_element_after_setup(monkeypatch, name):
    spec = cli.corpus_lookup(name)
    system = S.SuspensionSystem(spec.substitution())
    refs, _ = cli._reference_points(system, spec)
    window = system.window(64)
    made = []
    init = algebraic.FieldElem.__init__
    monkeypatch.setattr(
        algebraic.FieldElem, "__init__",
        lambda self, field, coords: made.append(1) or
        init(self, field, coords))
    counts = {}

    def count(fn, *args):
        before = len(made)
        result = fn(*args)
        counts[fn.__name__] = len(made) - before
        return result

    walk = count(C.Walk, system, refs)
    count(S.is_admissible, system, refs)
    height = count(L.height_group, system, refs)
    count(L.differences_in_return_module, system, height)
    pairs = count(C.geometric_strong, walk)
    sim = count(C.simultaneous, walk)
    count(SP.overlap_coincidence, walk, window)
    witnesses = [v.witness for v in (*pairs.values(), sim)
                 if v.status == "HOLDS"]

    def verify_witness():
        return [C.verify_witness(walk, w) for w in witnesses]

    assert all(count(verify_witness))
    assert counts == dict.fromkeys(counts, 0)
    assert len(counts) == 8
