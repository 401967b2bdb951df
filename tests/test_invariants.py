"""Cross-cutting property tests: canonical forms, merge algorithms, and
frozen values for the worked examples."""

import random
from fractions import Fraction
from math import gcd

from subtiling import lattices as L
from subtiling import spectrum as SP
from subtiling import suspension as S
from subtiling.coincidence import _common_tile


def test_point_sets_with_exact_irrational_window(sys_fib):
    # window [0, phi + 1] on the twice-inflated 'a' prototile
    patch = sys_fib.prototile_patch(1, 2)
    lo = sys_fib.field.zero()
    hi = sys_fib.beta + 1
    pts = S.reference_point_sets(
        patch, S.left_endpoint_points(sys_fib), (lo, hi)
    )
    assert [p.coords for p in pts.color(1)] == \
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    assert [p.coords for p in pts.color(2)] == [(Fraction(0), Fraction(1))]


def test_fibonacci_overlap_classes_for_golden_shift(sys_fib):
    patch = sys_fib.patch_covering(*sys_fib.window(24))
    y = sys_fib.beta + 1
    classes = SP.overlap_classes_for_translation(sys_fib, patch, y)
    keys = {k for k in classes}
    assert (1, 1, (Fraction(0), Fraction(0))) in keys
    # the displaced classes sit at exactly phi - 1 and -1
    assert (2, 1, (Fraction(-1), Fraction(1))) in keys
    assert (1, 1, (Fraction(-1), Fraction(0))) in keys
    for moved, anchor, shift in keys:
        elem = sys_fib.field.element(list(shift))
        assert (elem + sys_fib.length_of(moved)).sign() > 0
        assert (sys_fib.length_of(anchor) - elem).sign() > 0


def test_hnf_is_canonical_under_row_operations():
    rng = random.Random(31)
    for _ in range(40):
        rows = [[rng.randint(-6, 6) for _ in range(3)]
                for _ in range(rng.randint(1, 4))]
        base = L.hermite_normal_form([r[:] for r in rows], 3)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert L.hermite_normal_form(shuffled, 3) == base
        if len(rows) >= 2:
            mixed = [r[:] for r in rows]
            c = rng.randint(-3, 3)
            mixed[0] = [a + c * b for a, b in zip(mixed[0], mixed[1])]
            assert L.hermite_normal_form(mixed, 3) == base
            negated = [[-v for v in r] for r in rows]
            assert L.hermite_normal_form(negated, 3) == base


def test_hnf_shape():
    rng = random.Random(37)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(4)]
                for _ in range(rng.randint(1, 5))]
        basis = L.hermite_normal_form(rows, 4)
        pivots = []
        for r in basis:
            j = next(i for i, v in enumerate(r) if v)
            assert r[j] > 0
            pivots.append(j)
            for upper in basis[: basis.index(r)]:
                assert 0 <= upper[j] < r[j]
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)


def _brute_force_common(tile_lists):
    sets = [
        {(t[0].coords, t[1]) for t in tiles} for tiles in tile_lists
    ]
    common = set.intersection(*sets)
    if not common:
        return None
    return min(common)


def test_merge_intersection_matches_brute_force(sys_rauzy2):
    rng = random.Random(41)
    field = sys_rauzy2.field
    base = sys_rauzy2.prototile_patch(1, 4).tiles
    for _ in range(30):
        lists = []
        for _ in range(rng.randint(2, 4)):
            chosen = sorted(rng.sample(range(len(base)),
                                       rng.randint(1, len(base))))
            lists.append([base[i] for i in chosen])
        got = _common_tile(lists)
        expected = _brute_force_common(lists)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert (got[0].coords, got[1]) in \
                set.intersection(*[
                    {(t[0].coords, t[1]) for t in tiles} for tiles in lists
                ])


def test_merge_pairwise_finds_first_shared_position(sys_fib):
    a = sys_fib.prototile_patch(1, 3).tiles
    b = sys_fib.prototile_patch(2, 3).tiles
    hit = _common_tile([a, b])
    assert hit is not None
    # no shared tile sits strictly left of the reported one
    shared = {(t[0].coords, t[1]) for t in a} & \
             {(t[0].coords, t[1]) for t in b}
    lowest = min(shared)
    assert (hit[0].coords, hit[1]) == lowest


def test_module_canonical_form_unique():
    rng = random.Random(43)
    for _ in range(30):
        vecs = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
             for _ in range(2)]
            for _ in range(rng.randint(1, 4))
        ]
        mod = L.module_from_vectors(vecs, 2)
        # rewriting the generators by sums and swaps lands on the same form
        mixed = [v[:] for v in vecs]
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            mixed[0] = [a + b for a, b in zip(mixed[0], mixed[1])]
        assert L.module_from_vectors(mixed, 2) == mod
        if not mod.is_zero():
            # canonical pair: the denominator shares no factor with the
            # basis entries
            g = mod.denom
            for row in mod.basis:
                for v in row:
                    g = gcd(g, abs(v))
            assert g == 1
