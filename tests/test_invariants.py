"""Cross-cutting property tests: canonical forms, merge algorithms, and
frozen values for the worked examples."""

import random
from fractions import Fraction
from math import gcd

from subtiling import lattices as L
from subtiling import suspension as S

from conftest import (elements, inflated_prototile, module_from_vectors,
                      sweep_translation)


def test_point_sets_with_a_rational_window_end_on_a_point(sys_fib):
    # the twice-inflated 'a' prototile aba has points 0, phi and phi + 1;
    # the window's lower end lies on the first one
    patch = inflated_prototile(sys_fib, 1, 2)
    refpoints = S.left_endpoint_points(sys_fib)
    pts = S.reference_point_sets(patch, refpoints, (Fraction(0), 3))
    assert [p.coords for p in elements(sys_fib.field, pts.points[0],
                                       pts.denom)] == \
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    assert [p.coords for p in elements(sys_fib.field, pts.points[1],
                                       pts.denom)] == \
        [(Fraction(0), Fraction(1))]
    # 13/5 lies just below phi + 1 = 2.618...
    pts = S.reference_point_sets(patch, refpoints,
                                 (Fraction(0), Fraction(13, 5)))
    assert [p.coords for p in elements(sys_fib.field, pts.points[0],
                                       pts.denom)] == \
        [(Fraction(0), Fraction(0))]


def test_fibonacci_overlap_classes_for_golden_shift(sys_fib):
    patch = sys_fib.patch_covering(*sys_fib.window(24))
    y = sys_fib.beta + 1
    keys = set(sweep_translation(patch, y))
    assert (1, 1, (Fraction(0), Fraction(0))) in keys
    # the displaced classes sit at exactly phi - 1 and -1
    assert (2, 1, (Fraction(-1), Fraction(1))) in keys
    assert (1, 1, (Fraction(-1), Fraction(0))) in keys
    for moved, anchor, shift in keys:
        elem = sys_fib.field.element(list(shift))
        assert (elem + sys_fib.lengths[moved - 1]).sign() > 0
        assert (sys_fib.lengths[anchor - 1] - elem).sign() > 0


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


def test_module_canonical_form_unique():
    rng = random.Random(43)
    for _ in range(30):
        vecs = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
             for _ in range(2)]
            for _ in range(rng.randint(1, 4))
        ]
        mod = module_from_vectors(vecs, 2)
        # rewriting the generators by sums and swaps lands on the same form
        mixed = [v[:] for v in vecs]
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            mixed[0] = [a + b for a, b in zip(mixed[0], mixed[1])]
        assert module_from_vectors(mixed, 2) == mod
        if not mod.is_zero():
            # canonical pair: the denominator shares no factor with the
            # basis entries
            g = mod.denom
            for row in mod.basis:
                for v in row:
                    g = gcd(g, abs(v))
            assert g == 1
