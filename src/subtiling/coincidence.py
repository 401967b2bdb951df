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

from dataclasses import dataclass
from fractions import Fraction

from . import words as words_mod
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
DEFAULT_SUPERTILE_CAP = 65_536


# ---------------------------------------------------------------------------
# Combinatorial (word-level) checks
# ---------------------------------------------------------------------------


def _prefix_match(u, v, m):
    """Least pair of prefixes with equal abelianization followed by the
    same letter; scanning u in order makes the match position-minimal."""
    table = {}
    counts = [0] * m
    for t in range(len(v)):
        key = tuple(counts)
        if key not in table:
            table[key] = (t, v[t])
        counts[v[t] - 1] += 1
    counts = [0] * m
    for t in range(len(u)):
        key = tuple(counts)
        hit = table.get(key)
        if hit is not None and hit[1] == u[t]:
            return t, hit[0], u[t], key
        counts[u[t] - 1] += 1
    return None


def prefix_strong(sub: Substitution, level_bound=DEFAULT_LEVEL_BOUND,
                  suffixes=False, word_cap=None):
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
    cap = word_cap or words_mod.DEFAULT_WORD_CAP
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
            found = BoundedVerdict("UNKNOWN", bound=level_bound)
            for level in range(1, level_bound + 1):
                u = working.iterate(i, level, cap)
                v = working.iterate(j, level, cap)
                hit = _prefix_match(u, v, m)
                if hit is not None:
                    tu, tv, letter, counts = hit
                    found = BoundedVerdict(
                        "HOLDS",
                        witness=PrefixWitness(level, letter, (tu, tv), counts),
                    )
                    break
            results[(i, j)] = found
    return results


def aggregate_status(per_pair):
    statuses = [v.status for v in per_pair.values()]
    if any(s == "FAILS" for s in statuses):
        return "FAILS"
    if any(s == "UNKNOWN" for s in statuses):
        return "UNKNOWN"
    return "HOLDS"


def prefix_simultaneous(sub: Substitution, level_bound=DEFAULT_LEVEL_BOUND,
                        word_cap=None):
    """Least (L, M) in lexicographic order such that the length-M prefixes
    of all iterated letters share their letter counts and final letter."""
    cap = word_cap or words_mod.DEFAULT_WORD_CAP
    m = sub.size
    for level in range(1, level_bound + 1):
        images = [sub.iterate(c, level, cap) for c in range(1, m + 1)]
        shortest = min(len(w) for w in images)
        counts = [[0] * m for _ in range(m)]
        for length in range(1, shortest + 1):
            letters = {w[length - 1] for w in images}
            for idx, w in enumerate(images):
                counts[idx][w[length - 1] - 1] += 1
            if len(letters) != 1:
                continue
            first = counts[0]
            if all(c == first for c in counts[1:]):
                return BoundedVerdict(
                    "HOLDS",
                    witness={
                        "level": level,
                        "prefix_length": length,
                        "final_letter": images[0][length - 1],
                        "counts": tuple(first),
                    },
                )
    return BoundedVerdict("UNKNOWN", bound=level_bound)


# ---------------------------------------------------------------------------
# Geometric (exact position) checks
# ---------------------------------------------------------------------------


class _SupertileCache:
    """Per-level prototile tile lists shifted by their reference points."""

    def __init__(self, system: SuspensionSystem, refpoints, word_cap=None):
        self.system = system
        self.refpoints = refpoints
        self.cap = word_cap or system.word_cap
        self._shifted = {}

    def shifted_tiles(self, letter, level):
        """Tiles of the inflated prototile, translated by -beta^L * c."""
        key = (letter, level)
        if key not in self._shifted:
            ref = self.refpoints[letter - 1]
            patch = self.system.prototile_patch(letter, level, self.cap)
            if ref.is_zero():
                tiles = patch.tiles
            else:
                shift = (self.system.beta ** level) * ref
                tiles = [(pos - shift, c) for pos, c in patch]
            self._shifted[key] = tiles
        return self._shifted[key]


def _common_tile(tile_lists):
    """First tile (position, color) of the first list that every other
    list also holds; None when there is none."""
    first, *rest = tile_lists
    common = set.intersection(
        *({(pos.coords, c) for pos, c in tiles} for tiles in rest))
    return next(((pos, c) for pos, c in first if (pos.coords, c) in common),
                None)


def _witness_from_hit(system, refpoints, level, hit, scope, cache):
    position, color = hit
    shift = position + refpoints[color - 1]
    k = system.seed[0]
    if level % k == 0:
        replay_level = level
        replay_color, replay_shift = color, shift
    else:
        replay_level = k * ((level + k - 1) // k)
        letters = scope if scope is not None else tuple(
            range(1, system.size + 1)
        )
        lists = [cache.shifted_tiles(c, replay_level) for c in letters]
        rehit = _common_tile(lists)
        if rehit is None:
            raise AssertionError("coincidence did not persist under inflation")
        replay_color = rehit[1]
        replay_shift = rehit[0] + refpoints[rehit[1] - 1]
    return CoincidenceWitness(
        level=level, color=color, shift=shift, scope=scope,
        replay_level=replay_level, replay_color=replay_color,
        replay_shift=replay_shift,
    )


def _reachable_levels(system, letters, level_bound, supertile_cap):
    """Levels whose inflated prototiles all stay below the tile cap."""
    top = 0
    for level in range(1, level_bound + 1):
        if any(system.sub.image_length(c, level) > supertile_cap
               for c in letters):
            break
        top = level
    return top


def geometric_strong(system: SuspensionSystem, refpoints,
                     level_bound=DEFAULT_LEVEL_BOUND, word_cap=None,
                     supertile_cap=DEFAULT_SUPERTILE_CAP):
    """Exact shared-tile search for every unordered prototile pair.

    The inflated prototiles are translated by beta^L times their
    reference points; a shared tile is an exact coincidence of position
    and color.  Identical pairs hold trivially at level 0.  Levels whose
    supertiles would exceed the tile cap are not searched; the UNKNOWN
    bound reports the deepest level actually exhausted."""
    cache = _SupertileCache(system, refpoints, word_cap)
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
            top = _reachable_levels(system, (i, j), level_bound,
                                    supertile_cap)
            found = None
            for level in range(1, top + 1):
                hit = _common_tile([
                    cache.shifted_tiles(i, level),
                    cache.shifted_tiles(j, level),
                ])
                if hit is not None:
                    found = BoundedVerdict(
                        "HOLDS",
                        witness=_witness_from_hit(
                            system, refpoints, level, hit, (i, j), cache
                        ),
                    )
                    break
            if found is None:
                found = BoundedVerdict("UNKNOWN", bound=top)
            results[(i, j)] = found
    return results


def simultaneous(system: SuspensionSystem, refpoints,
                 level_bound=DEFAULT_LEVEL_BOUND, word_cap=None,
                 supertile_cap=DEFAULT_SUPERTILE_CAP):
    """Shared tile of all m translated inflated prototiles at one level."""
    cache = _SupertileCache(system, refpoints, word_cap)
    letters = tuple(range(1, system.size + 1))
    top = _reachable_levels(system, letters, level_bound, supertile_cap)
    for level in range(1, top + 1):
        lists = [cache.shifted_tiles(c, level) for c in letters]
        hit = _common_tile(lists)
        if hit is not None:
            return BoundedVerdict(
                "HOLDS",
                witness=_witness_from_hit(
                    system, refpoints, level, hit, None, cache
                ),
            )
    return BoundedVerdict("UNKNOWN", bound=top)


# ---------------------------------------------------------------------------
# Witness replay on point sets
# ---------------------------------------------------------------------------


def verify_witness(system: SuspensionSystem, refpoints,
                   witness: CoincidenceWitness, window) -> bool:
    """Replay a coincidence witness on the fixed tiling, point by point.

    Checks beta^L * x + shift in Lambda_color for every reference point x
    of the witness scope inside the window, using the replay level (a
    multiple of the seed power, so that inflated tiles are tiles of the
    same tiling).  Exact membership, no tolerance.
    """
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
    span_lo = min(t_lo.interval().lo, Fraction(lo)) - pad
    span_hi = max(t_hi.interval().hi, Fraction(hi)) + pad
    patch = system.patch_covering(
        system.field.rational(span_lo), system.field.rational(span_hi)
    )
    source_pts = reference_point_sets(patch, refpoints, (lo, hi))
    targets = set()
    for pos, c in patch.tiles:
        if c == color:
            targets.add((pos + refpoints[c - 1]).coords)
    if witness.scope is None:
        scope_letters = range(1, system.size + 1)
    else:
        scope_letters = witness.scope
    for letter in set(scope_letters):
        for x in source_pts.color(letter):
            y = factor * x + shift
            if y.coords not in targets:
                return False
    return True
