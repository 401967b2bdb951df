import math
import random

import pytest

from subtiling import cli
from subtiling import spectrum as SP
from subtiling import words as W
from subtiling.algebraic import (FieldElem, common_denominator, scaled_coords,
                                 unscaled_coords)
from subtiling.suspension import SuspensionSystem


def _sub(name):
    return cli.corpus_lookup(name).substitution()


_SYSTEMS = {}

# The base K of the letter weights 1 + K^(c-1) of words.walk_zeros: the
# largest K with K^(m-2) <= 126.  A zero of the weighted walk where the
# letter counts differ needs a count gap of at least K in some letter.
WALK_BASE = {4: 11, 6: 3, 12: 1, 40: 1}


def false_zero_pairs(m, count=30, seed=41):
    """Balanced word pairs over 1..m, m a key of WALK_BASE, whose weighted
    count walk vanishes at prefixes with different letter counts.

    The first pair holds the least such gap: K ones against one two, made
    up in the last letter.  The others shuffle runs of one letter up to
    K + 2 long between the two words."""
    k = WALK_BASE[m]
    head, tail = bytes([1] * k + [m]), bytes([2] + [m] * k)
    pairs = [(head + tail, tail + head)]
    rng = random.Random(seed + m)
    for _ in range(count - 1):
        runs = [bytes([rng.randint(1, m)]) * rng.randint(1, k + 2)
                for _ in range(rng.randint(1, 12))]
        u = b"".join(runs)
        rng.shuffle(runs)
        pairs.append((u, b"".join(runs)))
    return pairs


def involutions_by_matching(sub):
    """Reference: every perfect matching of the letters, in the order of
    the least unmatched letter's partner, kept when its swap commutes with
    the rules."""
    m = sub.size
    if m % 2:
        return []
    out = []

    def pairings(remaining, mapping):
        if not remaining:
            out.append(dict(mapping))
            return
        a = remaining[0]
        for b in remaining[1:]:
            mapping[a], mapping[b] = b, a
            pairings([c for c in remaining[1:] if c != b], mapping)
            del mapping[a], mapping[b]

    pairings(list(range(1, m + 1)), {})
    return [tau for tau in out
            if all(bytes(tau[c] for c in sub.rule(x)) == sub.rule(tau[x])
                   for x in range(1, m + 1))]


def swap_commuting_substitution(rng, tau, max_len=3):
    """A primitive substitution that commutes with the letter involution
    tau (a dict): a random rule for the least letter of each swapped
    pair, its swap for the other, drawn until the matrix is primitive."""
    m = len(tau)
    while True:
        rules = [None] * m
        for x in sorted(tau):
            if rules[x - 1] is None:
                word = bytes(rng.randint(1, m)
                             for _ in range(rng.randint(1, max_len)))
                rules[x - 1] = word
                rules[tau[x] - 1] = bytes(tau[c] for c in word)
        sub = W.Substitution(rules)
        if W.is_primitive(W.substitution_matrix(sub)):
            return sub


def exact_tiles(patch):
    """Reference: the tiles of a patch as (FieldElem position, color)."""
    return [(patch.position(k), c) for k, c in enumerate(patch.colors)]


def fieldelem_point_sets(patch, refpoints, window):
    """Reference: per color, the FieldElem points p + c_color of the
    patch tiles in the window, by the exact test on every tile."""
    lo, hi = window
    assert patch.covers(lo, hi)
    per_color = [[] for _ in refpoints]
    for pos, c in exact_tiles(patch):
        x = pos + refpoints[c - 1]
        if (x - lo).sign() >= 0 and (x - hi).sign() <= 0:
            per_color[c - 1].append(x)
    return per_color


def fieldelem_differences(pts):
    """Reference: the differences y - x of FieldElem points, both signs,
    first seen first, as `suspension.return_vectors` orders them."""
    seen = {}
    for i, x in enumerate(pts):
        for y in pts[i:]:
            d = y - x
            seen[d.coords] = d
            seen[(-d).coords] = -d
    return list(seen.values())


def elements(field, vectors, denom):
    """Integer vectors over a denominator as FieldElems."""
    return [FieldElem(field, unscaled_coords(v, denom)) for v in vectors]


def inflated_prototile(system, letter, level):
    """sigma^level(letter) laid out from 0 by `patch_from_word`."""
    return system.patch_from_word(system.sub.iterate(letter, level),
                                  (0,) * system.field.degree)


def key_coords(keys, denom):
    """Overlap class keys over a denominator as (moved, anchor, shift
    coordinates), in order."""
    return [(m, a, unscaled_coords(shift, denom)) for m, a, shift in keys]


def sweep_translation(patch, y):
    """The classes `spectrum._sweep` finds for one FieldElem translation
    y, whose denominators divide the patch's, as `key_coords`."""
    assert patch.denom % common_denominator(y.coords) == 0
    shift = scaled_coords(y.coords, patch.denom)
    largest = max(abs(a) for v in patch.points for a in v)
    packing = SP._Packing(patch.field.degree,
                          2 * largest + max(map(abs, shift)))
    keys = SP._sweep(patch, packing, [packing.pack(shift)])
    return key_coords(keys, patch.denom)


def successors(system, moved, anchor, shift):
    """`spectrum._Inflation.successors` of the class of a FieldElem shift,
    over the lcm of the lengths' and the shift's denominators, as
    `key_coords`."""
    denom = math.lcm(system._length_denom, common_denominator(shift.coords))
    step = SP._Inflation(system, denom)
    key = (moved, anchor, scaled_coords(shift.coords, denom))
    return key_coords(step.successors(key), denom)


def system_for(name):
    """Session-wide SuspensionSystem cache keyed by corpus id."""
    if name not in _SYSTEMS:
        _SYSTEMS[name] = SuspensionSystem(_sub(name))
    return _SYSTEMS[name]


@pytest.fixture(scope="session")
def fib():
    return _sub("fibonacci")


@pytest.fixture(scope="session")
def tm():
    return _sub("thue-morse")


@pytest.fixture(scope="session")
def aba():
    return _sub("aba-left")


@pytest.fixture(scope="session")
def fib2():
    return _sub("fib2")


@pytest.fixture(scope="session")
def rauzy():
    return _sub("rauzy")


@pytest.fixture(scope="session")
def rauzy2():
    return _sub("rauzy2-left")


@pytest.fixture(scope="session")
def sys_fib():
    return system_for("fibonacci")


@pytest.fixture(scope="session")
def sys_tm():
    return system_for("thue-morse")


@pytest.fixture(scope="session")
def sys_aba():
    return system_for("aba-left")


@pytest.fixture(scope="session")
def sys_fib2():
    return system_for("fib2")


@pytest.fixture(scope="session")
def sys_rauzy():
    return system_for("rauzy")


@pytest.fixture(scope="session")
def sys_rauzy2():
    return system_for("rauzy2-left")


_REPORTS = {}

CORPUS_IDS = (
    "thue-morse", "fibonacci", "aba-left", "aba-gamma",
    "fib2", "rauzy", "rauzy2-left", "rauzy2-gamma",
)


def report_for(name):
    """Full analysis report per corpus id, computed once per session."""
    if name not in _REPORTS:
        spec = cli.corpus_lookup(name)
        _REPORTS[name] = cli.run_analysis(spec)
    return _REPORTS[name]


@pytest.fixture(scope="session")
def corpus_reports():
    return {name: report_for(name) for name in CORPUS_IDS}
