"""Suspension tilings of the line for a primitive substitution.

Prototile i is the interval [0, len_i) where the lengths form the left
eigenvector of the substitution matrix for the dominant eigenvalue beta,
normalized so the last letter has unit length; a system is built from
them found (`SuspensionSystem(sub)`) or from a report's, checked
(`SuspensionSystem.from_facts`).  A two-sided fixed point
of sigma^k realizes the tiling; fixed_point_seed reads k and the seed
pair off the cycles of the first- and last-letter maps.  A patch
holds its tile boundaries in one integer form only: prefix sums of the
integer length vectors over their common denominator, as are the
subtile offsets.  A system caches its fixed-point patches per (seed,
level), and each patch builds its fixed-point enclosures once.  Reference
points leave this module as (vectors, D), integer vectors over their
least common denominator, and turn a patch into a colored point set over
one denominator; a system holds its lengths in the same form.  FieldElems
are made only in setup: the solved eigenvector of `prototile_lengths`,
and one inverse per cycle of control points.  All values are immutable
and all comparisons certified.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import algebraic, polys, words
from .errors import (EigenvectorDefect, FactRejected, SubtilingError,
                     WindowNotCovered)
from .words import Substitution


def prototile_lengths(sub: Substitution, field: algebraic.NumberField):
    """Left beta-eigenvector of the substitution matrix M, entries in
    Q(beta), last entry normalized to 1, every entry certified positive.

    adj(beta I - M) (beta I - M) = chi(beta) I = 0, so every row of the
    adjugate is a left eigenvector.  beta is a simple root of chi
    (Perron-Frobenius), so the adjugate has rank one: it is a positive
    multiple of the right eigenvector times the left one, and its row 0
    is not zero.  That row is sum N_k beta^(m-1-k) with the integer
    Faddeev-LeVerrier matrices N_k, reduced mod the minimal polynomial in
    integer coordinates; one inverse normalizes it."""
    matrix = words.substitution_matrix(sub)
    m = sub.size
    coeffs, adjugate = algebraic._faddeev_leverrier(matrix)
    minpoly = list(field.minpoly)
    if polys.exact_int_divide(coeffs[::-1], minpoly) is None:
        raise EigenvectorDefect("beta is not an eigenvalue")
    vec = [field.element(polys.pseudo_remainder(
               [adjugate[m - 1 - d][0][j] for d in range(m)], minpoly))
           for j in range(m)]
    last = vec[-1]
    if last.is_zero():
        raise EigenvectorDefect("eigenvector has zero final entry")
    inv = last.inverse()
    lengths = [v * inv for v in vec]
    for length in lengths:
        if length.sign() <= 0:
            raise EigenvectorDefect("eigenvector is not strictly positive")
    return tuple(lengths)


class SuspensionSystem:
    """A substitution together with its exact geometric realization.

    `SuspensionSystem(sub)` finds beta and the lengths:
    `algebraic.perron_factor` factors the characteristic polynomial and
    `prototile_lengths` solves for the eigenvector.
    `SuspensionSystem.from_facts(sub, facts)` checks a report's instead.
    Both end in `_realize`, which lays out the length columns, the seed
    and the subtile offsets."""

    def __init__(self, sub: Substitution):
        matrix, char_poly = _primitive_matrix(sub)
        field = algebraic.perron_factor(char_poly)
        lengths = prototile_lengths(sub, field)
        denom = algebraic.common_denominator(
            c for length in lengths for c in length.coords)
        self._realize(sub, matrix, char_poly, field, (tuple(
            algebraic.scaled_coords(length.coords, denom)
            for length in lengths), denom))

    @classmethod
    def from_facts(cls, sub: Substitution, facts):
        """The system of a report's setup facts, each checked, none found
        by factoring or solving.  A fact that is missing or fails raises
        FactRejected naming it.

        Recomputed: the matrix and the characteristic polynomial chi,
        which must equal `characteristic_polynomial`.  Checked:
        - `minimal_polynomial` is monic with integer coefficients, divides
          chi exactly, and `polys.factor_monic` of it alone finds one
          factor.
        - its largest real root beta exceeds every real root of the
          cofactor (`algebraic.dominant_field`, as in `perron_factor`), so
          beta is the Perron root and the field starts from its interval.
        - `prototile_lengths` are m vectors of rationals with the last
          one 1, sum_i M_ij len_i = beta len_j for each j, and each
          len_i > 0 by `int_sign`, in the order and with the refinements
          of `prototile_lengths`' signs.  beta is a simple root of chi, so
          these are the lengths it would solve for.
        """
        matrix, char_poly = _primitive_matrix(sub)
        facts = facts if isinstance(facts, dict) else {}
        for key in ("characteristic_polynomial", "minimal_polynomial",
                    "prototile_lengths"):
            if key not in facts:
                raise FactRejected(key, "missing")
        stated = facts["characteristic_polynomial"]
        if not _int_list(stated) or stated != char_poly:
            raise FactRejected("characteristic_polynomial",
                               "not that of the substitution matrix")
        field = _perron_field(facts["minimal_polynomial"], char_poly)
        lengths = _eigenvector(facts["prototile_lengths"], field, matrix)
        system = cls.__new__(cls)
        system._realize(sub, matrix, char_poly, field, lengths)
        return system

    def _realize(self, sub, matrix, char_poly, field, lengths):
        self.sub = sub
        self.matrix = matrix
        self.char_poly = char_poly
        self.field = field
        # (vectors, D): each letter's length is its vector over D, the
        # least common denominator
        self.lengths = lengths
        vectors, self._length_denom = lengths
        # by coordinate: column k holds coordinate k of each letter's
        # length, indexed by letter
        self._length_columns = tuple((0,) + column
                                     for column in zip(*vectors))
        self.seed = words.fixed_point_seed(sub)
        # fixed-point patches keyed (seed, level)
        self._patch_cache = {}
        # lattices.return_lattices results, keyed on the exact window and
        # the reference points
        self.lattice_samples = {}
        # exact left offsets of each subtile within the inflated prototile
        # over the lengths' denominator: the first |sigma(j)| boundaries of
        # the level-one prototile patch, laid out by _layout so that
        # patch_from_word sees only the patches an analysis asks for
        zero = (0,) * self.field.degree
        self.subtile_offsets = tuple(
            tuple(self._layout(rule, zero).points[:len(rule)])
            for rule in sub.rules)

    @property
    def size(self):
        return self.sub.size

    def max_length_bound(self):
        """Deterministic rational upper bound on the prototile lengths:
        the largest upper end once every length's enclosure is at most
        1/16 wide.  Enclosures only shrink under refinement, so this is
        the generation a length-by-length refinement would reach."""
        vectors, denom = self.lengths
        while True:
            # the enclosures of the vectors over D, each over the same
            # scale den^(degree-1)
            ends = list(map(self.field._horner_enclosure, vectors))
            scale = denom * ends[0][2]
            if all((hi - lo) * 16 <= scale for lo, hi, _ in ends):
                return Fraction(max(hi for _, hi, _ in ends), scale)
            self.field._refine_once()

    def window(self, size_in_tiles):
        """Symmetric window of the given total width in tile-length units."""
        half = Fraction(size_in_tiles, 2) * self.max_length_bound()
        return (-half, half)

    # -- patches ---------------------------------------------------------

    def patch_from_word(self, word, start):
        """Tiles of a word laid out left to right from a start given as
        an integer vector over the lengths' common denominator."""
        return self._layout(word, start)

    def _layout(self, word, start):
        """The patch of patch_from_word.  Its boundaries are prefix sums
        of the integer length vectors, one accumulate per coordinate."""
        columns = [accumulate(map(steps.__getitem__, word), initial=s)
                   for steps, s in zip(self._length_columns, start)]
        return Patch(self.field, self._length_denom, list(zip(*columns)),
                     word)

    def two_sided_patch(self, steps):
        """Inflate the fixed-point seed `steps` times by sigma^k; the
        junction of the two seed tiles sits at 0."""
        k, left, right = self.seed
        return generate_patch(self, (left, right), k * steps)

    def patch_covering(self, lo, hi):
        """Smallest fixed-point patch whose support contains [lo, hi]."""
        steps = 1
        while True:
            patch = self.two_sided_patch(steps)
            if patch.covers(lo, hi):
                return patch
            steps += 1


def _primitive_matrix(sub: Substitution):
    """The substitution matrix and its characteristic polynomial; a
    matrix that is not primitive raises ValueError."""
    matrix = words.substitution_matrix(sub)
    if not words.is_primitive(matrix):
        raise ValueError("substitution is not primitive")
    return matrix, algebraic.char_poly(matrix)


def _int_list(value) -> bool:
    """Whether a report value is a list of ints (a bool or 1.0 is not)."""
    return type(value) is list and all(type(c) is int for c in value)


def _perron_field(minpoly, char_poly):
    """The field of `SuspensionSystem.from_facts`: a minimal polynomial
    fact checked against chi, and its largest root against the cofactor
    by `algebraic.dominant_field`, as `perron_factor` checks it."""

    def reject(message):
        raise FactRejected("minimal_polynomial", message)

    if not (_int_list(minpoly) and len(minpoly) >= 2 and minpoly[-1] == 1):
        reject("not a monic integer polynomial")
    cofactor = polys.exact_int_divide(char_poly, minpoly)
    if cofactor is None:
        reject("does not divide the characteristic polynomial")
    try:
        factors = polys.factor_monic(minpoly)
    except SubtilingError as exc:
        reject(str(exc))
    if len(factors) != 1:
        reject("reducible")
    field = algebraic.dominant_field(minpoly, cofactor)
    if field is None:
        reject("its largest root is not the Perron root"
               if polys.count_real_roots(minpoly) else "no real root")
    return field


def _eigenvector(lengths, field, matrix):
    """The lengths of `SuspensionSystem.from_facts`: a prototile lengths
    fact checked to be the left beta-eigenvector of the matrix with last
    entry 1, each entry certified positive."""

    def reject(message):
        raise FactRejected("prototile_lengths", message)

    if type(lengths) is not list or len(lengths) != len(matrix):
        reject(f"not {len(matrix)} lengths")
    try:
        vectors, denom = algebraic.parse_shifts(lengths, field.degree)
    except (ValueError, ZeroDivisionError) as exc:
        reject(str(exc))
    if vectors[-1] != (denom,) + (0,) * (field.degree - 1):
        reject("the last is not 1")
    for column, vector in zip(zip(*matrix), vectors):
        image = tuple(sum(n * v[k] for n, v in zip(column, vectors))
                      for k in range(field.degree))
        if image != field.times_beta(vector):
            reject("not a beta-eigenvector")
    if any(field.int_sign(v) <= 0 for v in vectors):
        reject("not all positive")
    return tuple(vectors), denom


class Patch:
    """Tiles of a word laid end to end, as integer vectors.

    Tile k has color `colors[k]` and runs from boundary k to boundary
    k + 1; boundary 0 is the start of the support and boundary len(patch)
    its end.  `points[k]` is `denom` times the power-basis coordinates of
    boundary k, so equal boundaries have equal vectors.  The patch refers
    to its field but to no system, so a system's patch cache holds no
    reference cycle and is freed with the system."""

    def __init__(self, field, denom, points, colors):
        self.field = field
        self.denom = denom
        self.points = points
        self.colors = colors
        self.junction_index = None
        self._enclosures = None

    def __len__(self):
        return len(self.colors)

    def covers(self, lo, hi):
        return (_sign_minus(self.field, self.points[0], self.denom, lo) <= 0
                and _sign_minus(self.field, self.points[-1], self.denom,
                                hi) >= 0)

    def enclosures(self):
        """(lows, highs) with lows[k] <= 2^FILTER_BITS * denom * boundary
        k <= highs[k], the certified fixed-point sums of each boundary
        (`NumberField.fixed_point_bounds`), built on first use.  An
        enclosure of a sum of boundaries is the sum of their enclosures."""
        if self._enclosures is None:
            bounds = list(map(self.field.fixed_point_bounds, self.points))
            self._enclosures = ([lo for lo, _ in bounds],
                                [hi for _, hi in bounds])
        return self._enclosures


def generate_patch(system: SuspensionSystem, seed, n):
    """Inflate a two-sided seed, a (left, right) letter pair, n times; the
    junction sits at 0.  Cached on the system."""
    key = (seed, n)
    patch = system._patch_cache.get(key)
    if patch is None:
        left, right = seed
        left_word = system.sub.iterate(left, n)
        right_word = system.sub.iterate(right, n)
        # the left length, -start, is the letter counts dotted with the
        # length vectors
        counts = words.abelianization(left_word, system.size)
        start = [-sum(map(operator.mul, counts, column[1:]))
                 for column in system._length_columns]
        patch = system.patch_from_word(left_word + right_word, start)
        patch.junction_index = len(left_word)
        system._patch_cache[key] = patch
    return patch


# ---------------------------------------------------------------------------
# Tile maps, control points, admissibility
# ---------------------------------------------------------------------------


def validate_tile_map(sub: Substitution, tile_map):
    if len(tile_map) != sub.size:
        raise ValueError("tile map must choose one subtile per letter")
    for letter, idx in enumerate(tile_map, start=1):
        if not 1 <= idx <= len(sub.rule(letter)):
            raise ValueError(
                f"tile map index {idx} outside rule of letter {letter}"
            )


def control_points(system: SuspensionSystem, tile_map):
    """Fixed point of the subtile-selection contraction, as integer
    vectors over their least common denominator D: (vectors, D).

    With o_j the exact left offset of the chosen subtile of the inflated
    prototile j and g(j) its color, the reference points solve
    c_j = beta^-1 (o_j + c_g(j)), in integer vectors over multiples of
    the lengths' denominator.  A cycle j_0 -> ... -> j_(k-1) of g gives
    c_(j_0) = sum_i beta^(k-1-i) o_(j_i) / (beta^k - 1) by one inverse
    (beta > 1), then c_g(j) = beta c_j - o_j the rest of the cycle, and
    the trees hanging off it follow outward.
    """
    validate_tile_map(system.sub, tile_map)
    field, denom = system.field, system._length_denom
    a0, tail, zero = field.minpoly[0], field.minpoly[1:], (0,) * field.degree
    rule, chosen = system.sub.rule, system.subtile_offsets
    targets = [rule(x)[i - 1] - 1 for x, i in enumerate(tile_map, 1)]
    offsets = [chosen[x - 1][i - 1] for x, i in enumerate(tile_map, 1)]
    points = [None] * system.size       # (ints, denominator) per letter
    for j in range(system.size):
        path = []       # to a solved letter, or around a cycle of its own
        while points[j] is None and j not in path:
            path.append(j)
            j = targets[j]
        if points[j] is None:
            k = path.index(j)
            path, cycle = path[:k], path[k:]
            total, power = zero, (1,) + zero[1:]
            for i in cycle:
                total = tuple(map(operator.add, field.times_beta(total),
                                  offsets[i]))
                power = field.times_beta(power)
            first = (field.element([Fraction(a, denom) for a in total])
                     / field.element((power[0] - 1,) + power[1:]))
            d = math.lcm(denom, algebraic.common_denominator(first.coords))
            points[j] = (algebraic.scaled_coords(first.coords, d), d)
            for i in cycle[:-1]:
                v, d = points[i]
                points[targets[i]] = (tuple([a - b * (d // denom) for a, b in
                                             zip(field.times_beta(v),
                                                 offsets[i])]), d)
        for i in reversed(path):
            v, d = points[targets[i]]
            v = [a * (d // denom) + b for a, b in zip(offsets[i], v)]
            # beta^-1 v = (v_0 (a_1, ..., 1) - a_0 (v_1, ..., 0)) / -a_0
            points[i] = (tuple([(v[0] * c - a0 * b) * (-1 if a0 > 0 else 1)
                                for c, b in zip(tail, v[1:] + [0])]),
                         d * abs(a0))
    # v / d in lowest terms has denominator d / gcd(d, v)
    least = math.lcm(*(d // math.gcd(d, *v) for v, d in points))
    return tuple(tuple([a * least // d for a in v]) for v, d in points), least


def left_endpoint_points(system: SuspensionSystem):
    """Reference points at the left endpoints: all zero, over 1."""
    return ((0,) * system.field.degree,) * system.size, 1


def is_admissible(system: SuspensionSystem, refpoints) -> bool:
    """True iff the prototiles shifted by their reference points still
    share an interval of positive length: max(-c_i) < min(len_i - c_i),
    each extreme taken left to right by `int_sign` of differences."""
    vectors, denom = refpoints
    lengths, length_denom = system.lengths
    wide = math.lcm(denom, length_denom)
    s, t = wide // denom, wide // length_denom
    sign = system.field.int_sign

    def extreme(candidates, beyond):
        kept, *rest = candidates
        for x in rest:
            if sign(tuple(map(operator.sub, x, kept))) == beyond:
                kept = x
        return kept

    lower = extreme([[-a * s for a in c] for c in vectors], 1)
    upper = extreme([[b * t - a * s for a, b in zip(c, length)]
                     for c, length in zip(vectors, lengths)], -1)
    return sign(tuple(map(operator.sub, upper, lower))) > 0


# ---------------------------------------------------------------------------
# Point sets and return vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointSets:
    """Reference points of a patch within a window, per color in patch
    order: `indices[c - 1]` are the patch indices of the kept tiles of
    color c, and `points[c - 1]` their points p + c_c as `denom` times
    power-basis coordinates, one denominator for every color."""

    denom: int
    indices: tuple
    points: tuple


def reference_point_sets(patch: Patch, refpoints, window) -> PointSets:
    """Points p + c_color for patch tiles, filtered to the window.

    The window must lie inside the patch support (reference shifts are
    allowed to move points slightly past the edge tiles, so coverage is
    checked on tile supports).  The window ends are rationals, as
    `SuspensionSystem.window` gives them, and the reference points the
    (vectors, denominator) pair of `control_points`.  The points are integer vectors over the lcm of the
    patch denominator and the reference points' denominator.

    Each tile is first placed on integers alone: the enclosure of its
    position in the patch plus the enclosure of its reference point is
    compared with enclosures of the window ends.  A tile whose point lies
    certainly below the lower end, or above both ends, is skipped, and
    one whose point lies certainly between them is kept; only the others
    get the exact test, `NumberField.int_sign` of the point minus a
    window end.  Enclosures of summands add up to an enclosure no
    tighter than the fixed-point filter's for the sum, so every tile
    placed this way is one whose signs the filter would have decided:
    placing it changes no refinement.
    """
    lo, hi = window
    if not patch.covers(lo, hi):
        raise WindowNotCovered("window exceeds the computed patch")
    field, denom = patch.field, patch.denom
    lows, highs = patch.enclosures()
    lo_low, lo_high = _enclosure(field, *_ints(field, lo), denom)
    hi_low, hi_high = _enclosure(field, *_ints(field, hi), denom)
    top = max(lo_high, hi_high)
    vectors, ref_denom = refpoints
    sample = math.lcm(denom, ref_denom)
    scale, ref_scale = sample // denom, sample // ref_denom
    # per color, indexed by letter, bounds on a position enclosure
    # (low, high) and the reference point over the sample's denominator:
    # high < out_lo or low > out_hi puts the point certainly outside the
    # window, low > in_lo and high < in_hi certainly inside
    bands = [None]
    for c in vectors:
        c_low, c_high = _enclosure(field, c, ref_denom, denom)
        bands.append((lo_low - c_high, top - c_low, lo_high - c_low,
                      hi_low - c_high, tuple([a * ref_scale for a in c])))
    indices = [[] for _ in vectors]
    points = [[] for _ in vectors]
    for k, (c, low, high) in enumerate(zip(patch.colors, lows, highs)):
        out_lo, out_hi, in_lo, in_hi, ref = bands[c]
        if high < out_lo or low > out_hi:
            continue
        x = tuple([a * scale + r for a, r in zip(patch.points[k], ref)])
        if (low > in_lo and high < in_hi) or \
                (_sign_minus(field, x, sample, lo) >= 0 and
                 _sign_minus(field, x, sample, hi) <= 0):
            indices[c - 1].append(k)
            points[c - 1].append(x)
    return PointSets(sample, tuple(map(tuple, indices)),
                     tuple(map(tuple, points)))


def _ints(field, value):
    """(ints, d): a rational as an integer vector over its denominator d."""
    return ((value.numerator,) + (0,) * (field.degree - 1),
            value.denominator)


def _sign_minus(field, ints, denom, value):
    """Certified sign of ints / denom - value for a rational:
    `NumberField.int_sign` of the difference over the lcm of the
    denominators.  That vector is a positive multiple of the scaled
    coordinates FieldElem.sign() takes, so the decision and the
    refinements are those of the field-element difference."""
    other, d = _ints(field, value)
    wide = math.lcm(denom, d)
    factor, other_factor = wide // denom, wide // d
    return field.int_sign(tuple([
        a * factor - b * other_factor for a, b in zip(ints, other)]))


def _enclosure(field, ints, d, denom):
    """Integers (lower, upper) enclosing 2^FILTER_BITS * denom * ints / d,
    rounded outward, from the fixed-point sums of ints / d in lowest
    terms."""
    g = math.gcd(d, *ints)
    lower, upper = field.fixed_point_bounds([a // g for a in ints])
    d //= g
    return lower * denom // d, -(-upper * denom // d)


def return_vectors(points: PointSets, *, cross=True):
    """Per-color difference sets and the cross difference set, deduplicated,
    as integer vectors over `points.denom`.

    Same-color differences sample the translation vectors between equal
    tiles; the cross set samples differences across all colors.  With
    cross=False the cross set is not built and comes back empty.
    """
    union = [x for pts in points.points for x in pts]
    return (tuple(map(_differences, points.points)),
            _differences(union) if cross else ())


def _differences(pts):
    """All differences y - x of the points, both signs, first seen first."""
    seen = {}
    for i, x in enumerate(pts):
        for y in pts[i:]:
            d = tuple(map(operator.sub, y, x))
            seen[d] = None
            seen[tuple([-a for a in d])] = None
    return tuple(seen)
