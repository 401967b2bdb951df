import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtiling import algebraic as A
from subtiling import polys as P
from subtiling import words as W

from conftest import (beta_interval, interval_ends, ref_inverse,
                      ref_perron_factor)


def field_from(minpoly):
    if P.degree(minpoly) == 1:
        r = -minpoly[0]
        return A.NumberField(minpoly, r, r)
    num_lo, num_hi, den = P.isolate_largest_real_root(minpoly)
    return A.NumberField(minpoly, Fraction(num_lo, den),
                         Fraction(num_hi, den))


PHI = field_from([-1, -1, 1])
# Lehmer's polynomial, whose Salem root 1.17628... has eight conjugates
# on the unit circle
LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]


def scaled(x):
    """The coordinates of a field element times their common
    denominator: the integer vector filter_sign takes."""
    return A.scaled_coords(x.coords, A.common_denominator(x.coords))


def test_char_poly_examples():
    assert A.char_poly([[1, 1], [1, 1]]) == [0, -2, 1]
    assert A.char_poly([[1, 1], [1, 0]]) == [-1, -1, 1]
    assert A.char_poly([[2, 1], [1, 2]]) == [3, -4, 1]


def _fraction_char_poly(matrix):
    """The Faddeev-LeVerrier recurrence in Fractions, as a reference."""
    m = len(matrix)
    rows = [[Fraction(c) for c in row] for row in matrix]
    coeffs = [Fraction(1)]
    work = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        for i in range(m):
            work[i][i] += coeffs[-1]
        work = [[sum(rows[i][t] * work[t][j] for t in range(m))
                 for j in range(m)] for i in range(m)]
        coeffs.append(-sum(work[i][i] for i in range(m)) / k)
    return coeffs[::-1]


def test_char_poly_cayley_hamilton():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(2, 6)
        mat = [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
        cp = A.char_poly(mat)
        assert all(type(c) is int for c in cp)
        assert cp == _fraction_char_poly(mat)
        # evaluate p(S) = 0 exactly
        acc = [[0] * m for _ in range(m)]
        power = [[int(i == j) for j in range(m)] for i in range(m)]
        for c in cp:
            for i in range(m):
                for j in range(m):
                    acc[i][j] += c * power[i][j]
            power = [[sum(mat[i][t] * power[t][j] for t in range(m))
                      for j in range(m)] for i in range(m)]
        assert all(all(v == 0 for v in row) for row in acc)


def test_perron_factor_examples():
    assert list(A.perron_factor([0, -2, 1]).minpoly) == [-2, 1]
    assert list(A.perron_factor([3, -4, 1]).minpoly) == [-3, 1]
    f = A.perron_factor([-1, -1, 1])
    assert list(f.minpoly) == [-1, -1, 1]
    lo, hi = beta_interval(f)
    # the dominant root lies in the stored interval and above 1
    assert lo > 1
    assert P.eval_at([-1, -1, 1], lo) * P.eval_at([-1, -1, 1], hi) < 0
    f.ensure_width(Fraction(1, 64))
    lo, hi = beta_interval(f)
    assert Fraction(3, 2) < lo < hi < Fraction(17, 10)


def test_perron_factor_matches_the_tournament_on_primitive_matrices():
    # the dominance test picks the field the pairwise tournament picked:
    # the same minimal polynomial, interval and refinements of it
    def state(field):
        return (field.minpoly, field.num_lo, field.num_hi, field.den,
                field.generation)

    rng = random.Random(29)
    drawn = reducible = later = 0
    while drawn < 300:
        m = rng.randint(2, 6)
        matrix = [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
        if not W.is_primitive(matrix):
            continue
        cp = A.char_poly(matrix)
        field = A.perron_factor(cp)
        assert state(field) == state(ref_perron_factor(cp)), matrix
        drawn += 1
        factors = sorted(set(map(tuple, P.factor_monic(cp))))
        reducible += len(factors) > 1
        later += factors[0] != field.minpoly
    # some draws reach the Perron factor after another factor
    assert reducible > 40 and later > 10


def test_number_field_rejects_an_interval_without_a_root():
    # phi = 1.618... lies in neither interval
    with pytest.raises(ValueError):
        A.NumberField([-1, -1, 1], 2, 3)
    with pytest.raises(ValueError):
        A.NumberField([-1, -1, 1], 2, 1)
    with pytest.raises(ValueError):
        A.NumberField([-1, -1, 1], 1, 1)
    assert beta_interval(A.NumberField([-1, -1, 1], 1, 2))[1] == 2


def test_minpoly_changes_sign_across_interval():
    for cp in ([0, -2, 1], [-1, -1, 1], [-1, -1, -1, 1]):
        f = A.perron_factor(cp)
        lo, hi = beta_interval(f)
        if lo == hi:
            assert P.eval_at(list(f.minpoly), lo) == 0
        else:
            s1 = P.eval_at(list(f.minpoly), lo)
            s2 = P.eval_at(list(f.minpoly), hi)
            assert s1 * s2 < 0


def test_field_arithmetic_golden_ratio():
    b = PHI.beta()
    assert b * b == b + 1
    assert b.inverse() == b - 1
    assert (1 + b) + (2 - b) == 3
    assert (b * b - b - 1).is_zero()


def test_sign_examples():
    b = PHI.beta()
    assert (b * b - b - 1).sign() == 0
    assert (10 * b - 16).sign() == 1
    assert (1 - b).sign() == -1


coord = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


@given(st.tuples(coord, coord))
@settings(max_examples=60, deadline=None)
def test_sign_antisymmetry_and_squares(coords):
    a = PHI.element(list(coords))
    if a.is_zero():
        assert a.sign() == 0
    else:
        assert a.sign() * (-a).sign() == -1
        assert (a * a).sign() == 1


@given(st.tuples(coord, coord), st.tuples(coord, coord))
@settings(max_examples=60, deadline=None)
def test_division_inverts_multiplication(ca, cb):
    a = PHI.element(list(ca))
    b = PHI.element(list(cb))
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a * b) / b == a


INVERSE_FIELDS = ((-2, 1), (-1, -1, 1), (-3, -1, 1), (2, -4, 1),
                  (-1, -1, 0, 1), (-1, -1, -1, 1), (-1, -1, -1, -1, -1, 1))


@pytest.mark.parametrize("minpoly", INVERSE_FIELDS)
def test_inverse_matches_the_euclidean_one(minpoly):
    # the adjugate column over the norm against Euclid over Q
    field = field_from(list(minpoly))
    rng = random.Random(sum(minpoly) + 31 * len(minpoly))
    for _ in range(200):
        coords = [Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7]))
                  if rng.random() < 0.8 else 0 for _ in range(field.degree)]
        x = field.element(coords)
        if x.is_zero():
            continue
        got = x.inverse()
        assert got.coords == ref_inverse(x).coords, coords
        assert [type(c) for c in got.coords] == \
            [int if c.denominator == 1 else Fraction for c in got.coords]
        assert x * got == 1


def test_degree_one_field_is_rational_arithmetic():
    f = field_from([-2, 1])
    x = f.rational(Fraction(3, 4))
    assert x * f.beta() == Fraction(3, 2)
    assert x.sign() == 1
    assert f.beta().sign() == 1


def test_is_pisot_examples():
    assert A.is_pisot(field_from([-2, 1]))
    assert A.is_pisot(PHI)
    assert not A.is_pisot(field_from([-3, -1, 1]))       # conj -1.30
    assert A.is_pisot(field_from([1, -3, 1]))            # phi^2, palindromic
    assert A.is_pisot(field_from([-1, -1, 0, 1]))        # plastic number
    for k in range(2, 13):                               # k-bonacci
        assert A.is_pisot(field_from([-1] * k + [1]))
    # Salem polynomials: conjugates on the unit circle
    assert not A.is_pisot(field_from([1, -1, -1, -1, 1]))
    assert not A.is_pisot(field_from(LEHMER))


def test_is_pisot_against_numpy_oracle():
    """Random monic irreducible polynomials, every other one palindromic,
    with a real root beyond 1; draws with a root within 1e-6 of the
    circle are skipped."""
    rng = random.Random(25)
    checked = pisot = 0
    while checked < 60:
        if checked % 2:
            # an odd palindromic polynomial has the root -1
            deg = 2 * rng.randint(1, 3)
            half = [1] + [rng.randint(-3, 3) for _ in range(deg // 2)]
            coeffs = [half[min(i, deg - i)] for i in range(deg + 1)]
        else:
            deg = rng.randint(2, 6)
            coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [1]
        roots = np.roots(list(reversed(coeffs)))
        real = roots[np.abs(roots.imag) < 1e-9].real
        if np.abs(np.abs(roots) - 1.0).min() < 1e-6 or \
                not len(real) or real.max() <= 1.0 or \
                len(P.factor_monic(coeffs)) != 1:
            continue
        expected = int(np.sum(np.abs(roots) < 1.0)) == deg - 1
        assert A.is_pisot(field_from(coeffs)) == expected, coeffs
        checked += 1
        pisot += expected
    assert pisot > 0


def test_unit_circle_detection():
    # the disk count is None exactly when a root lies on the circle
    assert A.count_roots_in_open_unit_disk([1, -1, -1, -1, 1]) is None
    assert A.count_roots_in_open_unit_disk([1, -3, 1]) == 1
    assert A.count_roots_in_open_unit_disk([-1, -1, 1]) == 1
    assert A.count_roots_in_open_unit_disk([1, 1]) is None       # x + 1
    assert A.count_roots_in_open_unit_disk([-2, 1]) == 0
    assert A.count_roots_in_open_unit_disk(LEHMER) is None


def test_disk_count_hand_values():
    assert A.count_roots_in_open_unit_disk([0, 1]) == 1       # x
    assert A.count_roots_in_open_unit_disk([-2, 1]) == 0      # x - 2
    assert A.count_roots_in_open_unit_disk([-1, -1, 1]) == 1
    assert A.count_roots_in_open_unit_disk([-1, -1, 0, 1]) == 2
    for constant in ([], [1], [-3], [7]):         # zero and constants
        assert A.count_roots_in_open_unit_disk(constant) == 0


def _numpy_disk_count(coeffs):
    """Roots of coeffs inside the unit circle by numpy.roots, or None when
    one comes within 1e-6 of the circle."""
    roots = np.roots(list(reversed(coeffs)))
    if len(roots) and np.abs(np.abs(roots) - 1.0).min() < 1e-6:
        return None
    return int(np.sum(np.abs(roots) < 1.0))


def _random_coeffs(rng, max_degree):
    """Degree 1..max_degree, a leading coefficient that is often not 1."""
    deg = rng.randint(1, max_degree)
    lead = rng.choice([1, -1, 2, -3, 5, 7])
    return [rng.randint(-5, 5) for _ in range(deg)] + [lead]


def test_disk_count_against_numpy_oracle():
    """Numerical root finding as an independent oracle, up to degree 12
    and with non-monic leading coefficients; draws with a root within
    1e-6 of the circle are skipped."""
    rng = random.Random(2024)
    checked = 0
    while checked < 300:
        coeffs = _random_coeffs(rng, 12)
        expected = _numpy_disk_count(coeffs)
        if expected is None:
            continue
        assert A.count_roots_in_open_unit_disk(coeffs) == expected, coeffs
        checked += 1


def _cyclotomic(m):
    """The m-th cyclotomic polynomial: x^m - 1 over the others of m."""
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            p = P.exact_int_divide(p, _cyclotomic(d))
    return p


@pytest.mark.parametrize("m", range(1, 13))
def test_disk_count_is_none_with_a_cyclotomic_factor(m):
    phi = _cyclotomic(m)
    assert A.count_roots_in_open_unit_disk(phi) is None
    assert A.count_roots_in_open_unit_disk(P.mul(phi, phi)) is None
    rng = random.Random(m)
    for _ in range(20):
        f = _random_coeffs(rng, max(1, (12 - 2 * P.degree(phi)) // 2))
        for p in (P.mul(f, phi), P.mul(P.mul(f, f), P.mul(phi, phi))):
            if P.degree(p) <= 12:
                assert A.count_roots_in_open_unit_disk(p) is None, p


def test_disk_count_adds_over_repeated_factors():
    """f^k g counts k times the roots of f and those of g, each factor's
    count from numpy."""
    rng = random.Random(49)
    checked = 0
    while checked < 100:
        f, g = _random_coeffs(rng, 3), _random_coeffs(rng, 4)
        nf, ng = _numpy_disk_count(f), _numpy_disk_count(g)
        if nf is None or ng is None:
            continue
        k = rng.randint(2, 3)
        p = g
        for _ in range(k):
            p = P.mul(p, f)
        assert A.count_roots_in_open_unit_disk(p) == k * nf + ng, p
        checked += 1


# polys.pseudo_remainder calls of is_pisot: one per step of the (R, S)
# chain, whose n + 1 entries run down to a constant gcd for these
# minimal polynomials of degree n; a degree-1 field counts no roots
GOLDEN_PISOT_REMAINDERS = {
    "aba-gamma": 0, "aba-left": 0, "fib2": 2, "fibonacci": 2,
    "nonpisot": 2, "nonunimodular": 2, "pentanacci": 5, "plastic": 3,
    "rauzy": 3, "rauzy2-gamma": 3, "rauzy2-left": 3, "thue-morse": 0,
}


def test_is_pisot_builds_one_remainder_sequence(monkeypatch):
    # a work guard: it counts calls and times nothing
    calls = []
    remainder = P.pseudo_remainder
    monkeypatch.setattr(P, "pseudo_remainder",
                        lambda p, q: calls.append(1) or remainder(p, q))

    def count(minpoly):
        field = field_from(minpoly)
        calls.clear()
        A.is_pisot(field)
        return len(calls)

    golden = Path(__file__).resolve().parent / "golden"
    assert {path.stem: count(json.loads(path.read_text(encoding="utf-8"))
                             ["facts"]["minimal_polynomial"])
            for path in sorted(golden.glob("*.json"))} == \
        GOLDEN_PISOT_REMAINDERS
    for k in range(7, 13):
        assert count([-1] * k + [1]) == k


RAUZY_MINPOLY = [-1, -1, -1, 1]

filter_coord = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-64, max_value=64, max_denominator=16),
)


def beta_near(minpoly):
    field = field_from(minpoly)
    field.ensure_width(Fraction(1, 1 << 80))
    return beta_interval(field)[0]


@pytest.mark.parametrize("minpoly", [[-1, -1, 1], RAUZY_MINPOLY],
                         ids=["golden", "rauzy"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_filter_sign_agrees_with_interval_route(minpoly, data):
    field = field_from(minpoly)
    n = field.degree
    coords = data.draw(st.lists(filter_coord, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # shift the value to within about 1/2 of zero, where the filter
        # often has to defer
        beta = beta_near(minpoly)
        coords[0] -= round(sum(c * beta ** k for k, c in enumerate(coords)))
    field.ensure_width(Fraction(1, 2 ** data.draw(st.integers(0, 40))))
    x = field.element(coords)
    assume(not x.is_zero())
    decided = field.filter_sign(scaled(x))
    if decided:
        assert decided == field._refined_sign(scaled(x))


int_coord = st.integers(min_value=-10**6, max_value=10**6)


@pytest.mark.parametrize("minpoly", [[-1, -1, 1], RAUZY_MINPOLY],
                         ids=["golden", "rauzy"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_summed_bounds_decide_only_what_the_filter_decides(minpoly, data):
    # bounds of a and of -b, taken at one refinement generation and added,
    # decide a - b only when the filter at any later generation does, and
    # then with the true sign
    field = field_from(minpoly)
    n = field.degree
    a = data.draw(st.lists(int_coord, min_size=n, max_size=n))
    b = data.draw(st.lists(int_coord, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        beta = beta_near(minpoly)
        a[0] -= round(sum((x - y) * beta ** k
                          for k, (x, y) in enumerate(zip(a, b))))
    field.ensure_width(Fraction(1, 2 ** data.draw(st.integers(0, 30))))
    lo_a, hi_a = field.fixed_point_bounds(a)
    lo_b, hi_b = field.fixed_point_bounds(b)
    field.ensure_width(Fraction(1, 2 ** data.draw(st.integers(0, 40))))
    diff = field.element(a) - field.element(b)
    if lo_a - hi_b > 0:
        assert field.filter_sign(scaled(diff)) == 1 == diff.sign()
    if hi_a - lo_b < 0:
        assert field.filter_sign(scaled(diff)) == -1 == diff.sign()


def test_filter_decides_without_refining():
    field = field_from([-1, -1, 1])
    field.ensure_width(Fraction(1, 1 << 20))
    before = field.generation
    for coords, expected in (([-16, 10], 1), ([1, -1], -1),
                             ([Fraction(-1, 3), Fraction(1, 5)], -1)):
        assert field.filter_sign(scaled(field.element(coords))) == expected
        assert field.element(coords).sign() == expected
    assert field.generation == before


def test_filter_defers_below_its_resolution():
    # F31 - F30*beta = psi^30, about 5.4e-7: far inside the filter's error
    # at width 2^-20, so only the refining route can decide it.
    field = field_from([-1, -1, 1])
    field.ensure_width(Fraction(1, 1 << 20))
    x = field.element([1346269, -832040])
    assert field.filter_sign(scaled(x)) == 0
    before = field.generation
    assert x.sign() == 1
    assert field.generation > before


def test_integral_coordinates_are_ints():
    a, b = PHI.element([Fraction(3)]), PHI.element([3])
    assert a == b and hash(a) == hash(b)
    assert type(a.coords[0]) is int
    half = PHI.element([Fraction(1, 2), Fraction(3, 2)])
    other = PHI.element([Fraction(-1, 2), Fraction(1, 2)])
    for value in (half + half, half - other, half * 2,
                  half * PHI.element([2]), half * half * 16):
        assert all(type(c) is int for c in value.coords), value
    assert (half * half).coords == (Fraction(5, 2), Fraction(15, 4))


# -- the integer interval route against the Fraction route it replaced --------

# golden, rauzy, plastic, pentanacci, non-Pisot, non-unit
ROUTE_MINPOLYS = {
    "golden": (-1, -1, 1),
    "rauzy": (-1, -1, -1, 1),
    "plastic": (-1, -1, 0, 1),
    "pentanacci": (-1, -1, -1, -1, -1, 1),
    "nonpisot": (-3, -1, 1),
    "nonunit": (2, -4, 1),
}
_REF_ENDS = {}


def _ref_ends(minpoly, generation):
    """The ends (lo, hi) of the Fraction bisection at a generation, from
    the isolating interval the field starts from."""
    ends = _REF_ENDS.setdefault(
        minpoly, [interval_ends(P.isolate_largest_real_root(list(minpoly)))])
    while len(ends) <= generation:
        lo, hi = ends[-1]
        mid = (lo + hi) / 2
        if (P.eval_at(minpoly, mid) > 0) == (P.eval_at(minpoly, lo) > 0):
            ends.append((mid, hi))
        else:
            ends.append((lo, mid))
    return ends[generation]


def _ref_horner(coords, lo, hi):
    """The rational interval Horner enclosure (lo, hi) of
    sum coords[k] beta^k on [lo, hi], in Fractions."""
    acc_lo = acc_hi = Fraction(0)
    for c in reversed(coords):
        ends = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(ends) + c, max(ends) + c
    return acc_lo, acc_hi


def _ref_table(minpoly, generation, degree):
    lo, hi = _ref_ends(minpoly, generation)
    scale = 1 << A.FILTER_BITS
    return (tuple(math.floor(scale * lo ** k) for k in range(degree)),
            tuple(math.ceil(scale * hi ** k) for k in range(degree)))


def _ref_sign(minpoly, coords, generation):
    """(sign, refinements) of the filter-then-Fraction route from a
    generation on, for a nonzero element."""
    lows, highs = _ref_table(minpoly, generation, len(coords))
    denom = A.common_denominator(coords)
    lower = upper = 0
    for c, low, high in zip(coords, lows, highs):
        a = c * denom
        lower += a * (low if a > 0 else high)
        upper += a * (high if a > 0 else low)
    if lower > 0 or upper < 0:
        return (1 if lower > 0 else -1), 0
    start = generation
    while True:
        lo, hi = _ref_horner(coords, *_ref_ends(minpoly, generation))
        if lo > 0 or hi < 0:
            return (1 if lo > 0 else -1), generation - start
        generation += 1


route_coord = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-64, max_value=64, max_denominator=16),
    st.integers(min_value=-2**200, max_value=2**200),
    st.sampled_from([2**200, -2**200]),
)


def _draw_coords(data, minpoly):
    n = len(minpoly) - 1
    coords = data.draw(st.lists(route_coord, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # shift the value to within about 1/2 of zero, where the filter
        # defers and the exact route refines
        beta = _ref_ends(minpoly, 400)[0]
        coords[0] -= round(sum(c * beta ** k for k, c in enumerate(coords)))
    return coords


@pytest.mark.parametrize("minpoly", ROUTE_MINPOLYS.values(),
                         ids=ROUTE_MINPOLYS.keys())
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_integer_enclosure_equals_the_fraction_horner(minpoly, data):
    field = field_from(list(minpoly))
    coords = _draw_coords(data, minpoly)
    generation = data.draw(st.integers(field.generation, 80))
    while field.generation < generation:
        field._refine_once()
    denom = A.common_denominator(coords)
    lower, upper, scale = field._horner_enclosure(
        A.scaled_coords(coords, denom))
    assert (Fraction(lower, denom * scale), Fraction(upper, denom * scale)) \
        == _ref_horner(coords, *_ref_ends(minpoly, generation))


@pytest.mark.parametrize("minpoly", ROUTE_MINPOLYS.values(),
                         ids=ROUTE_MINPOLYS.keys())
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_integer_sign_refines_as_the_fraction_route(minpoly, data):
    field = field_from(list(minpoly))
    x = field.element(_draw_coords(data, minpoly))
    assume(not x.is_rational())
    before = field.generation
    expected = _ref_sign(minpoly, x.coords, before)
    assert (x.sign(), field.generation - before) == expected


@pytest.mark.parametrize("minpoly", ROUTE_MINPOLYS.values(),
                         ids=ROUTE_MINPOLYS.keys())
@given(data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_int_sign_of_any_multiple_refines_as_the_element_sign(minpoly, data):
    # each side on a fresh field: the same sign after the same bisections
    coords = _draw_coords(data, minpoly)
    multiple = data.draw(st.integers(1, 12))
    element_field = field_from(list(minpoly))
    x = element_field.element(coords)
    want = (x.sign(), element_field.generation)
    field = field_from(list(minpoly))
    ints = A.scaled_coords(x.coords, A.common_denominator(x.coords) * multiple)
    assert (field.int_sign(ints), field.generation) == want


@pytest.mark.parametrize("minpoly", ROUTE_MINPOLYS.values(),
                         ids=ROUTE_MINPOLYS.keys())
def test_integer_bisection_and_table_equal_the_fraction_ones(minpoly):
    field = field_from(list(minpoly))
    while field.generation < 300:
        ends = _ref_ends(minpoly, field.generation)
        assert beta_interval(field) == ends
        assert field._table() == _ref_table(
            minpoly, field.generation, field.degree)
        field._refine_once()
    assert beta_interval(field) == _ref_ends(minpoly, 300)


def test_filter_decides_deep_in_the_refinement():
    # at width 2^-200 the value of a1 beta + a0, with both coordinates
    # above 2^80, is far above the width the interval induces but far
    # below the 2^-64 rounding of a coordinate that large: the fixed-point
    # enclosure straddles zero, and the Horner enclosure on the current
    # interval decides the sign with no refinement
    minpoly = (-3, -1, 1)
    field = field_from(list(minpoly))
    field.ensure_width(Fraction(1, 1 << 200))
    lo, hi = _ref_ends(minpoly, field.generation)
    a1 = 3 ** 60
    ints = (-math.floor(a1 * lo), a1)
    assert min(map(abs, ints)) > 1 << 80
    width = a1 * (hi - lo)
    value_lo = ints[0] + a1 * lo
    assert value_lo >= (1 << 10) * width
    before = field.generation
    for vector, expected in ((ints, 1), (tuple(-a for a in ints), -1)):
        lower, upper = field.fixed_point_bounds(vector)
        assert lower <= 0 <= upper
        assert field.int_sign(vector) == expected
    assert field.generation == before
