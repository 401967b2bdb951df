"""Coincidence checks for suspension tilings.

Two code paths decide whether iterated prototiles share a tile: a
combinatorial one on rule words (equal prefix abelianizations followed by
the same letter) and a geometric one matching exact positions in Q(beta).
Both search levels up to a bound and return HOLDS with a witness,
FAILS with a finite certificate (a commuting fixed-point-free letter
involution), or UNKNOWN at the bound.  A found witness is additionally
lifted to a level divisible by the fixed-point power of the tiling, where
the point-set containment it asserts can be replayed verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebraic, words as words_mod
from .suspension import SuspensionSystem, reference_point_sets
from .words import Substitution


@dataclass
class CoincidenceWitness:
    level: int                  # least number of inflation steps
    color: int                  # color of the shared tile
    shift: object               # FieldElem: shared tile is T_color - c_color + shift
    scope: tuple | None         # letter pair, or None for all prototiles
    replay_level: int = 0      # least multiple of the seed power >= level
    replay_color: int = 0
    replay_shift: object = None


@dataclass
class BoundedVerdict:
    status: str                 # "HOLDS" | "FAILS" | "UNKNOWN"
    witness: object = None
    certificate: object = None
    bound: int | None = None

    def holds(self):
        return self.status == "HOLDS"


@dataclass
class PrefixWitness:
    level: int
    color: int
    prefix_lengths: tuple       # one prefix length per word, shared counts
    counts: tuple


DEFAULT_LEVEL_BOUND = 12

# Geometric searches stop early once a single inflated prototile would
# carry more tiles than this; the verdict then reports the level bound
# that was actually exhausted.
SUPERTILE_CAP = 65_536


# ---------------------------------------------------------------------------
# Combinatorial (word-level) checks
# ---------------------------------------------------------------------------


def _least_balanced_prefix(word_list, m):
    """Least t such that the length-t prefixes of all words have the same
    letter counts and every word has the same letter at position t, or
    None.  The scan is position-minimal for every word at once.

    The weighted count walk of the first two words then vanishes at t
    and t + 1, so only such consecutive zeros are confirmed, on the
    letters at t and the letter counts of every word.
    """
    n = min(map(len, word_list))
    first, *rest = word_list
    gaps = [words_mod.CountGap(first, w, m) for w in rest]
    prev = None
    for t in words_mod.walk_zeros(first, rest[0], m):
        if t > n:
            break
        if (prev == t - 1 and all(w[prev] == first[prev] for w in rest)
                and all(gap.balanced_at(prev) for gap in gaps)):
            return prev
        prev = t
    return None


def _balanced_prefix_search(sub: Substitution, letters, level_bound):
    """Least level L <= level_bound at which the words sigma^L(c), c in
    `letters`, have a common balanced prefix followed by one common
    letter: (L, t, sigma^L(letters[0])) with t the prefix length, or None
    when every level up to the bound was searched without one."""
    for level in range(1, level_bound + 1):
        images = [sub.iterate(c, level) for c in letters]
        t = _least_balanced_prefix(images, sub.size)
        if t is not None:
            return level, t, images[0]
    return None


def prefix_strong(sub: Substitution, level_bound=DEFAULT_LEVEL_BOUND,
                  suffixes=False):
    """Word-level strong coincidence for every unordered letter pair.

    With reference points at the left endpoints, a shared tile of the
    inflated prototiles of i and j amounts to prefixes of sigma^L(i) and
    sigma^L(j) with the same letter counts, followed by one common letter.
    The suffix variant runs the same check on reversed rule words.

    FAILS carries a certificate: a fixed-point-free letter involution
    commuting with the substitution forces the paired letters apart at
    every level (equal counts force equal prefix lengths, and the common
    letter would have to be its own swap).
    """
    working = sub.reversed() if suffixes else sub
    m = sub.size
    involutions = words_mod.commuting_fixed_point_free_involutions(working)
    results = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if i == j:
                results[(i, j)] = BoundedVerdict(
                    "HOLDS",
                    witness=PrefixWitness(0, i, (0, 0), tuple([0] * m)),
                )
                continue
            tau = next((t for t in involutions if t[i] == j), None)
            if tau is not None:
                results[(i, j)] = BoundedVerdict(
                    "FAILS",
                    certificate={"involution": dict(sorted(tau.items()))},
                    bound=level_bound,
                )
                continue
            hit = _balanced_prefix_search(working, (i, j), level_bound)
            if hit is None:
                results[(i, j)] = BoundedVerdict("UNKNOWN", bound=level_bound)
                continue
            level, t, u = hit
            results[(i, j)] = BoundedVerdict(
                "HOLDS",
                witness=PrefixWitness(level, u[t], (t, t),
                                      words_mod.abelianization(u[:t], m)),
            )
    return results


def aggregate_status(per_pair):
    statuses = [v.status for v in per_pair.values()]
    if any(s == "FAILS" for s in statuses):
        return "FAILS"
    if any(s == "UNKNOWN" for s in statuses):
        return "UNKNOWN"
    return "HOLDS"


def prefix_simultaneous(sub: Substitution, level_bound=DEFAULT_LEVEL_BOUND):
    """Least (L, M) in lexicographic order such that the length-M prefixes
    of all iterated letters share their letter counts and final letter."""
    m = sub.size
    hit = _balanced_prefix_search(sub, range(1, m + 1), level_bound)
    if hit is None:
        return BoundedVerdict("UNKNOWN", bound=level_bound)
    level, t, word = hit
    return BoundedVerdict(
        "HOLDS",
        witness={
            "level": level,
            "prefix_length": t + 1,
            "final_letter": word[t],
            "counts": words_mod.abelianization(word[:t + 1], m),
        },
    )


# ---------------------------------------------------------------------------
# Geometric (exact position) checks
# ---------------------------------------------------------------------------


class _SupertileCache:
    """Prototile tile lists per (letter, level), translated by -beta^L c.

    A tile is a (vector, color) pair on one denominator: the lcm of the
    length denominator and the reference points' denominators.  It also
    clears every beta^L * c, since beta is an algebraic integer."""

    def __init__(self, system: SuspensionSystem, refpoints):
        self.system = system
        self.refpoints = refpoints
        self.denom = math.lcm(system._length_denom, *(
            algebraic.common_denominator(c.coords) for c in refpoints))
        self._shifts = [refpoints]      # per level, beta^L * c per color
        self._shifted = {}

    def shifted_tiles(self, letter, level):
        key = (letter, level)
        if key not in self._shifted:
            shifts = self._shifts
            while len(shifts) <= level:
                shifts.append([s if s.is_zero() else self.system.beta * s
                               for s in shifts[-1]])
            shift = algebraic.scaled_coords(shifts[level][letter - 1].coords,
                                            self.denom)
            patch = self.system.prototile_patch(letter, level)
            scale = self.denom // patch.denom
            if scale == 1 and not any(shift):
                points = patch.points
            else:
                points = [tuple(scale * a - b for a, b in zip(v, shift))
                          for v in patch.points]
            self._shifted[key] = list(zip(points, patch.colors))
        return self._shifted[key]

    def position(self, vector):
        """A tile vector as an exact field element."""
        return algebraic.FieldElem(
            self.system.field, algebraic.unscaled_coords(vector, self.denom))


def _common_tile(tile_lists):
    """First tile (vector, color) of the first list that every other list
    also holds; None when there is none."""
    first, *rest = tile_lists
    common = set.intersection(*map(set, rest))
    return next((tile for tile in first if tile in common), None)


def _replay_level(system, level):
    """Least multiple of the seed power that is at least `level`."""
    k = system.seed[0]
    return k * ((level + k - 1) // k)


def _witness_from_hit(cache, level, hit, letters, scope):
    refpoints = cache.refpoints
    vector, color = hit
    shift = cache.position(vector) + refpoints[color - 1]
    replay_level = _replay_level(cache.system, level)
    if replay_level == level:
        replay_color, replay_shift = color, shift
    else:
        rehit = _common_tile(
            [cache.shifted_tiles(c, replay_level) for c in letters])
        if rehit is None:
            raise AssertionError("coincidence did not persist under inflation")
        replay_color = rehit[1]
        replay_shift = cache.position(rehit[0]) + refpoints[replay_color - 1]
    return CoincidenceWitness(
        level=level, color=color, shift=shift, scope=scope,
        replay_level=replay_level, replay_color=replay_color,
        replay_shift=replay_shift,
    )


def _reachable_levels(system, letters, level_bound):
    """Levels whose inflated prototiles all stay below the tile cap."""
    top = 0
    for level in range(1, level_bound + 1):
        if any(system.sub.image_length(c, level) > SUPERTILE_CAP
               for c in letters):
            break
        top = level
    return top


def _shared_tile_search(cache, letters, scope, level_bound):
    """Least level with a tile shared by the translated inflated
    prototiles of `letters`: HOLDS with a witness of the given scope, or
    UNKNOWN at the deepest level searched.  Levels whose supertiles would
    exceed the tile cap are not searched."""
    top = _reachable_levels(cache.system, letters, level_bound)
    for level in range(1, top + 1):
        hit = _common_tile([cache.shifted_tiles(c, level) for c in letters])
        if hit is not None:
            return BoundedVerdict("HOLDS", witness=_witness_from_hit(
                cache, level, hit, letters, scope))
    return BoundedVerdict("UNKNOWN", bound=top)


def geometric_strong(system: SuspensionSystem, refpoints,
                     level_bound=DEFAULT_LEVEL_BOUND):
    """Exact shared-tile search for every unordered prototile pair.

    The inflated prototiles are translated by beta^L times their
    reference points; a shared tile is an exact coincidence of position
    and color.  Identical pairs hold trivially at level 0.  Levels whose
    supertiles would exceed the tile cap are not searched; the UNKNOWN
    bound reports the deepest level actually exhausted."""
    cache = _SupertileCache(system, refpoints)
    m = system.size
    results = {}
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if i == j:
                zero = system.field.zero()
                results[(i, j)] = BoundedVerdict(
                    "HOLDS",
                    witness=CoincidenceWitness(
                        level=0, color=i, shift=zero, scope=(i, j),
                        replay_level=0, replay_color=i, replay_shift=zero,
                    ),
                )
                continue
            results[(i, j)] = _shared_tile_search(cache, (i, j), (i, j),
                                                  level_bound)
    return results


def simultaneous(system: SuspensionSystem, refpoints,
                 level_bound=DEFAULT_LEVEL_BOUND):
    """Shared tile of all m translated inflated prototiles at one level."""
    letters = tuple(range(1, system.size + 1))
    return _shared_tile_search(_SupertileCache(system, refpoints), letters,
                               None, level_bound)


# ---------------------------------------------------------------------------
# Witness replay on point sets
# ---------------------------------------------------------------------------


def verify_witness(system: SuspensionSystem, refpoints,
                   witness: CoincidenceWitness, window) -> bool:
    """Replay a coincidence witness on the fixed tiling, point by point.

    Checks beta^L * x + shift in Lambda_color for every reference point x
    of the witness scope inside the window, using the replay level (a
    multiple of the seed power, so that inflated tiles are tiles of the
    same tiling).  Exact membership, no tolerance: each image point is one
    lookup in the patch's position index.  A window that holds no
    reference point checks nothing, and the replay fails.

    A witness that analysis cannot have produced fails before any patch
    is built: its level must be one the search reaches under the
    supertile cap, its replay level the least multiple of the seed power
    at or above that level, and its replay shift within reach of a
    supertile of that level.  This bounds the work of a replay.
    """
    letters = (range(1, system.size + 1) if witness.scope is None
               else witness.scope)
    if (witness.level < 0 or
            witness.replay_level != _replay_level(system, witness.level) or
            _reachable_levels(system, letters, witness.level) < witness.level):
        return False
    level = witness.replay_level
    color = witness.replay_color
    shift = witness.replay_shift
    lo, hi = window
    factor = system.beta ** level
    t_lo = factor * system.field.rational(lo) + shift
    t_hi = factor * system.field.rational(hi) + shift
    pad = system.max_length_bound()
    for c in refpoints:
        ivl = c.interval()
        pad = max(pad, abs(ivl.lo), abs(ivl.hi))
    pad = 2 * pad
    # the shared tile lies inside a translated supertile of the replay
    # level, so |shift| <= beta^L * (max length + max |c|) + max |c|
    reach = (factor.interval().hi + 1) * pad
    shift_ivl = shift.interval()
    if shift_ivl.lo > reach or shift_ivl.hi < -reach:
        return False
    span_lo = min(t_lo.interval().lo, Fraction(lo)) - pad
    span_hi = max(t_hi.interval().hi, Fraction(hi)) + pad
    patch = system.patch_covering(
        system.field.rational(span_lo), system.field.rational(span_hi)
    )
    source_pts = reference_point_sets(patch, refpoints, (lo, hi))
    if source_pts.count() == 0:
        return False
    colors = patch.position_index()
    # y = beta^L x + shift is a point of Lambda_color exactly when
    # y - c_color is the start of a tile of that color; a start whose
    # denominator does not divide the patch's is no tile's
    offset = shift - refpoints[color - 1]
    for letter in set(letters):
        for x in source_pts.color(letter):
            start = (factor * x + offset).coords
            if (patch.denom % algebraic.common_denominator(start) or
                    colors.get(algebraic.scaled_coords(start, patch.denom))
                    != color):
                return False
    return True
