"""Coincidence checks for suspension tilings.

Two routines decide whether iterated prototiles share a tile, one call
per claim: `_word_claim`, a combinatorial one on rule words (equal prefix
abelianizations followed by the same letter), and `Walk.search`, a
geometric one, a level-by-level walk of tuples of overlap classes under
the inflation of `Walk` on integer vectors of Q(beta).  Both search levels
up to a bound and return HOLDS with a witness, FAILS with a finite
certificate (a commuting fixed-point-free letter involution, or the
walk's closed states), or UNKNOWN at a bound.  A geometric witness is
the leftmost shared tile, also at a level divisible by the fixed-point
power of the tiling, and `verify_witness` replays it by a descent of the
inflation tree.  A report's geometric checks, overlap closure and
replays all take its one `Walk`.

An involution certificate rests on one lemma.  If a fixed-point-free
letter involution tau commutes with sigma, sigma^L(tau c) = tau(sigma^L(c))
for every letter c and level L, so at every position t the letters of
the two words are swapped by tau, and differ, as tau fixes no letter.
No level then holds a common letter at one position of the words of c
and tau c: their pair fails, and so does every search over a set of
letters holding both, such as `prefix_simultaneous` over all of them.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from . import algebraic, spectrum, words as words_mod
# reference_point_sets is unused here; perfbench's tracer test wraps it here
from .suspension import SuspensionSystem, reference_point_sets  # noqa: F401
from .words import Substitution


@dataclass
class CoincidenceWitness:
    level: int                  # least number of inflation steps
    color: int                  # color of the shared tile
    shift: tuple                # ints: tile is T_color - c_color + shift/denom
    scope: tuple | None         # letter pair, or None for all prototiles
    replay_level: int = 0      # least multiple of the seed power >= level
    replay_color: int = 0
    replay_shift: tuple = ()
    denom: int = 1              # of both shifts


@dataclass
class BoundedVerdict:
    status: str                 # "HOLDS" | "FAILS" | "UNKNOWN"
    witness: object = None
    certificate: object = None
    bound: int | None = None
    bound_hit: str | None = None    # the cap an UNKNOWN ran into, if any


@dataclass
class PrefixWitness:
    level: int
    color: int
    prefix_length: int          # of every word, which share their counts
    counts: tuple


DEFAULT_LEVEL_BOUND = 12


# ---------------------------------------------------------------------------
# Combinatorial (word-level) checks
# ---------------------------------------------------------------------------


def _least_balanced_prefix(word_list, m):
    """Least t such that the length-t prefixes of all words have the same
    letter counts and every word has the same letter at position t, or
    None.  The scan is position-minimal for every word at once.

    The weighted count walk of the first two words then vanishes at t
    and t + 1, so only such consecutive zeros are confirmed, on the
    letters at t and the letter counts of every word.  No walk backs the
    words after the second, so letters 1..m-1 are counted for each (m is
    implied by the length), not the m-2 of `words.balanced_cuts`.
    """
    n = min(map(len, word_list))
    first, *rest = word_list
    counted = [(c, c) for c in range(1, m)]
    gaps = [words_mod.CountGap(first, w, counted) for w in rest]
    prev = None
    for t in words_mod.walk_zeros(first, rest[0], m):
        if t > n:
            break
        if (prev == t - 1 and all(w[prev] == first[prev] for w in rest)
                and all(gap.balanced_at(prev) for gap in gaps)):
            return prev
        prev = t
    return None


def _word_claim(working: Substitution, letters, involutions, level_bound):
    """The word form of strong coincidence for `letters`, on the rule
    words of `working`: FAILS by the first of `involutions` that maps
    letters[0] into `letters` (the module's lemma); HOLDS at level 0, with
    no word built, when the letters are one letter; else HOLDS at the
    least level L <= level_bound at which the words sigma^L(c) have a
    common balanced prefix followed by one common letter.  Else UNKNOWN
    at the level bound, or at the last level before a word would pass
    the word cap, with a `bound_hit` naming the cap it ran into."""
    m = working.size
    tau = next((t for t in involutions if t[letters[0]] in letters), None)
    if tau is not None:
        return BoundedVerdict("FAILS", certificate={"involution": dict(tau)})
    if len(set(letters)) == 1:
        return BoundedVerdict("HOLDS", witness=PrefixWitness(
            0, letters[0], 0, (0,) * m))
    cap = words_mod.WORD_CAP
    for level in range(1, level_bound + 1):
        if any(working.image_length(c, level) > cap for c in letters):
            return BoundedVerdict("UNKNOWN", bound=level - 1,
                                  bound_hit=f"word cap {cap}")
        images = [working.iterate(c, level) for c in letters]
        t = _least_balanced_prefix(images, m)
        if t is not None:
            return BoundedVerdict("HOLDS", witness=PrefixWitness(
                level, images[0][t], t,
                words_mod.abelianization(images[0][:t], m)))
    return BoundedVerdict("UNKNOWN", bound=level_bound,
                          bound_hit=f"level bound {level_bound}")


def prefix_strong(sub: Substitution, level_bound=DEFAULT_LEVEL_BOUND,
                  suffixes=False):
    """Word-level strong coincidence for every unordered letter pair.

    With reference points at the left endpoints, a shared tile of the
    inflated prototiles of i and j amounts to prefixes of sigma^L(i) and
    sigma^L(j) with the same letter counts, followed by one common letter.
    The suffix variant runs the same check on reversed rule words.

    Each pair is one `_word_claim`.  An identical pair holds at level 0.
    A fixed-point-free letter involution commuting with the substitution
    that swaps i and j fails the pair: it forces them apart at every
    level (equal counts force equal prefix lengths, and the common letter
    would have to be its own swap).
    """
    working = sub.reversed() if suffixes else sub
    m = sub.size
    involutions = words_mod.commuting_fixed_point_free_involutions(working)
    return {(i, j): _word_claim(working, (i, j), involutions, level_bound)
            for i in range(1, m + 1) for j in range(i, m + 1)}


def replay_involution_certificate(sub: Substitution, certificate, claimed):
    """True iff a word FAILS certificate names a letter map tau, keyed by
    letter index (an int, or its string after JSON), that covers 1..m,
    has no fixed point, is an involution, maps each rule letter by letter
    onto the rule of tau(x), and maps the first `claimed` letter to
    another: the other letter of a pair, or tau(1) among all letters.

    Such a tau proves them apart at every level by the module's lemma,
    for prefixes and suffixes alike: reversing the rules keeps every
    condition."""
    if not isinstance(certificate, dict):
        return False
    given = certificate.get("involution")
    if not isinstance(given, dict):
        return False
    given = {str(key): value for key, value in given.items()}
    m = sub.size
    letters = range(1, m + 1)
    if given.keys() != {str(x) for x in letters}:
        return False
    tau = [0] + [given[str(x)] for x in letters]
    if any(type(y) is not int or not 1 <= y <= m for y in tau[1:]):
        return False
    return tau[claimed[0]] in claimed and all(
        tau[x] != x and tau[tau[x]] == x
        and bytes(tau[c] for c in sub.rule(x)) == sub.rule(tau[x])
        for x in letters)


def prefix_simultaneous(sub: Substitution, level_bound=DEFAULT_LEVEL_BOUND):
    """Least (L, M) in lexicographic order such that the length-M prefixes
    of all iterated letters share their letter counts and final letter:
    the `_word_claim` of all letters, with the letter after its prefix.

    When a fixed-point-free letter involution tau commutes with the
    substitution, no level has one: the words of c and tau c differ at
    every position (the module's lemma).  The check then FAILS with the
    first such tau as its certificate, and no word is built."""
    letters = tuple(range(1, sub.size + 1))
    verdict = _word_claim(
        sub, letters, words_mod.commuting_fixed_point_free_involutions(sub),
        level_bound)
    if (w := verdict.witness) is not None:
        verdict.witness = {
            "level": w.level,
            "prefix_length": w.prefix_length + 1,
            "final_letter": w.color,
            "counts": tuple(n + (c == w.color)
                            for c, n in enumerate(w.counts, 1)),
        }
    return verdict


# ---------------------------------------------------------------------------
# Geometric (exact position) checks
# ---------------------------------------------------------------------------


def _replay_level(system, level):
    """Least multiple of the seed power that is at least `level`."""
    k = system.seed[0]
    return k * ((level + k - 1) // k)


def _least_shared(states):
    """(path, color) of the first state of coincidences only, or None."""
    return next(((path, state[0][0]) for state, path in states.items()
                 if all(map(spectrum._is_coincidence_key, state))), None)


class Walk:
    """The integer setting of a report and its one inflation graph, over
    the lcm D of the denominators of the lengths and of the reference
    points (beta is an algebraic integer, so D clears beta times them
    too): the lengths, subtile offsets and reference points as vectors
    over D, the subtile pairs per (moved, anchor) and the children kept
    per class.  Every tile and overlap class lies over D, and `int_sign`
    decides a positive multiple of a vector as the vector, so every walk,
    overlap closure and replay of a report runs on one Walk.

    An overlap class is (moved, anchor, shift), shift a vector over D.
    Multiplying by beta is `NumberField.times_beta`.  The overlap test
    of a child first adds the fixed-point enclosure of beta * shift, taken
    once per parent, to an enclosure of its offset difference plus the
    tile length, taken once at its first use (`fixed_point_bounds`).
    Tables only tighten, so a kept enclosure contains a fresh one, and a
    sum of enclosures is no tighter than the enclosure of the sum:
    whatever the sums decide `int_sign` would have decided by its filter,
    with no refinement, and the rest goes to `int_sign` in the order of
    `overlaps`.

    A state is a tile of the first letter's inflated prototile with one
    overlapping tile of each other letter's: the tuple of their overlap
    classes, which share the moved color.  The root is the prototiles,
    shift c_j - c_i.  A level with a state of coincidences only holds a
    shared tile.  A state keeps the least moved-subtile path to it, which
    is its leftmost tile."""

    def __init__(self, system: SuspensionSystem, refpoints):
        vectors, ref_denom = refpoints
        self.system = system
        self.refpoints = refpoints
        self.denom = math.lcm(system._length_denom, ref_denom)

        def over_denom(rows, denom):
            scale = self.denom // denom
            return tuple(tuple([a * scale for a in v]) for v in rows)

        # indexed by letter, after a zero vector at index 0
        self.lengths = over_denom(zip(*system._length_columns),
                                  system._length_denom)
        self.offsets = tuple(over_denom(offsets, system._length_denom)
                             for offsets in system.subtile_offsets)
        self.refs = over_denom(vectors, ref_denom)
        # per scale and letter, beta^scale times each subtile end with its
        # enclosure, which stays valid after a refinement
        self._ends = []
        # the subtile pairs per (moved, anchor)
        self._pairs = {}
        # per class, its children per moved subtile
        self._children = {}

    def ends(self, letter, scale):
        field_, table = self.system.field, self._ends
        while len(table) <= scale:
            rows = ([[field_.times_beta(end) for end, _, _ in row]
                     for row in table[-1]] if table else
                    [[tuple(map(operator.add, start, self.lengths[c]))
                      for c, start in zip(self.system.sub.rule(x), offsets)]
                     for x, offsets in enumerate(self.offsets, 1)])
            table.append([[(end, *field_.fixed_point_bounds(end))
                           for end in row] for row in rows])
        return table[scale][letter - 1]

    def holds(self, letter, level, color, shift):
        """True when T_color - c_color + shift / denom is a tile of
        beta^level (T_letter - c_letter): the descent from its start into
        the first subtile ending beyond it ends at offset 0 on `color`."""
        field_, rule = self.system.field, self.system.sub.rule
        sub = operator.sub
        target = self.refs[letter - 1]
        for _ in range(level):
            target = field_.times_beta(target)
        target = tuple([a + b - c for a, b, c in
                        zip(shift, target, self.refs[color - 1])])
        tile = letter
        for scale in range(level - 1, -1, -1):
            t_lo, t_hi = field_.fixed_point_bounds(target)
            start = (0,) * len(target)
            for k, (end, lo, hi) in enumerate(self.ends(tile, scale)):
                if t_hi < lo or (t_lo <= hi and field_.int_sign(
                        tuple(map(sub, target, end))) < 0):
                    break
                start = end
            else:
                return False
            target = tuple(map(sub, target, start))
            tile = rule(tile)[k]
        return tile == color and not any(target)

    def overlaps(self, moved, anchor, shift):
        """True when the open supports of the class's tiles intersect:
        -len_moved < shift < len_anchor."""
        sign = self.system.field.int_sign
        return (sign(tuple(map(operator.add, shift,
                               self.lengths[moved]))) > 0 and
                sign(tuple(map(operator.sub, self.lengths[anchor],
                               shift))) > 0)

    def _subtile_pairs(self, moved, anchor):
        """Build and keep the subtile pairs of the two inflated tiles of
        (moved, anchor), moved subtile first, each as (moved subtile index
        and color, anchor subtile color, offset difference delta,
        enclosure of delta + len_moved, enclosure of len_anchor - delta)."""
        bounds = self.system.field.fixed_point_bounds
        rules, lengths = self.system.sub.rule, self.lengths
        add, sub = operator.add, operator.sub
        pairs = []
        for k, (mc, m_off) in enumerate(zip(rules(moved),
                                            self.offsets[moved - 1])):
            for ac, a_off in zip(rules(anchor), self.offsets[anchor - 1]):
                delta = tuple(map(sub, m_off, a_off))
                pairs.append(
                    (k, mc, ac, delta,
                     *bounds(tuple(map(add, delta, lengths[mc]))),
                     *bounds(tuple(map(sub, lengths[ac], delta)))))
        self._pairs[(moved, anchor)] = pairs
        return pairs

    def children(self, key):
        """The overlapping subtile pairs of a class after one inflation,
        kept, per moved subtile k: the class (color of subtile k, anchor,
        shift) of each pair."""
        kids = self._children.get(key)
        if kids is not None:
            return kids
        moved, anchor, shift = key
        pairs = (self._pairs.get((moved, anchor)) or
                 self._subtile_pairs(moved, anchor))
        field_, lengths = self.system.field, self.lengths
        base = field_.times_beta(shift)
        base_lo, base_hi = field_.fixed_point_bounds(base)
        sign, add, sub = field_.int_sign, operator.add, operator.sub
        kids = self._children[key] = [[] for _ in self.offsets[moved - 1]]
        for k, mc, ac, delta, m_lo, m_hi, a_lo, a_hi in pairs:
            child = None
            # -len_mc < child, then child < len_ac
            if base_lo + m_lo <= 0:
                if base_hi + m_hi < 0:
                    continue
                child = tuple(map(add, base, delta))
                if sign(tuple(map(add, child, lengths[mc]))) <= 0:
                    continue
            if a_lo - base_hi <= 0:
                if a_hi - base_lo < 0:
                    continue
                child = child or tuple(map(add, base, delta))
                if sign(tuple(map(sub, lengths[ac], child))) <= 0:
                    continue
            kids[k].append((mc, ac, child or tuple(map(add, base, delta))))
        return kids

    def successors(self, key):
        """The children of a class, each once, in the order of their
        first moved subtile."""
        return list(dict.fromkeys(itertools.chain(*self.children(key))))

    def inflate(self, states):
        """The states one inflation further, in the order of their least
        paths: parents come in that order, and their children in the order
        of their moved subtiles, so a state is first met on that path."""
        out = {}
        for state, path in states.items():
            per_subtile = zip(*map(self.children, state))
            for k, kids in enumerate(per_subtile):
                for combo in itertools.product(*kids):
                    out.setdefault(combo, path + (k,))
        return out

    def witness_shift(self, first, path, color):
        """start + c_color, over denom, for the tile at the end of a path of
        the inflated prototile of `first` translated by -beta^L c_first."""
        add, times_beta = operator.add, self.system.field.times_beta
        vector = tuple(-a for a in self.refs[first - 1])
        for k in path:
            vector = tuple(map(add, times_beta(vector),
                               self.offsets[first - 1][k]))
            first = self.system.sub.rule(first)[k]
        return tuple(map(add, vector, self.refs[color - 1]))

    def root(self, letters):
        """The state of the prototiles of `letters` at level 0."""
        first = self.refs[letters[0] - 1]
        return tuple((letters[0], c,
                      tuple(map(operator.sub, self.refs[c - 1], first)))
                     for c in letters[1:])

    def search(self, letters, scope, level_bound, node_cap):
        """Least level with a tile shared by the translated inflated
        prototiles of `letters`: HOLDS with a witness of the given scope,
        FAILS with the states met, closed, once a level meets no new one,
        or UNKNOWN at the level bound or past node_cap states met through
        the replay level, `bound` the last level without a shared tile."""
        states = {self.root(letters): ()}
        seen, level, stop, hit = set(states), 0, level_bound, None
        while True:
            if hit is None and (hit := _least_shared(states)):
                found, stop = level, _replay_level(self.system, level)
            if level == stop:
                break
            states = self.inflate(states)
            level += 1
            if hit is None and seen.issuperset(states):
                return BoundedVerdict("FAILS", certificate={"closed_states": [
                    {"color": state[0][0], "classes": [
                        {"anchor": anchor,
                         "shift": spectrum.format_shift(shift, self.denom)}
                        for _, anchor, shift in state]}
                    for state in sorted(seen)]})
            seen.update(states)
            if len(seen) > node_cap:
                return BoundedVerdict(
                    "UNKNOWN", bound=(found if hit else level) - 1,
                    bound_hit=f"node cap {node_cap}")
        if hit is None:
            return BoundedVerdict("UNKNOWN", bound=level,
                                  bound_hit=f"level bound {level}")
        if (rehit := _least_shared(states)) is None:
            raise AssertionError("coincidence did not persist under inflation")
        return BoundedVerdict("HOLDS", witness=CoincidenceWitness(
            level=found, color=hit[1], scope=scope,
            shift=self.witness_shift(letters[0], *hit),
            replay_level=level, replay_color=rehit[1],
            replay_shift=self.witness_shift(letters[0], *rehit),
            denom=self.denom))


def replay_walk_certificate(walk: Walk, certificate, letters):
    """True iff a geometric FAILS certificate lists walk states, each of
    one class per letter after the first, with letters in 1..m and shifts
    over the denominator of `walk`, that hold the root of `letters`, hold
    no shared tile and are closed under `Walk.inflate`: then no level
    holds a shared tile.  A malformed certificate fails: in the walk's
    shape, a state inflates to no more than the walk's do."""
    try:
        rows = [(e["color"], [(c["anchor"], c["shift"]) for c in e["classes"]])
                for e in certificate["closed_states"]]
        shifts, denom = algebraic.parse_shifts(
            [shift for _, row in rows for _, shift in row],
            walk.system.field.degree, walk.denom)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    named = [c for color, row in rows for c in (color, *(a for a, _ in row))]
    if denom != walk.denom or any(len(row) != len(letters) - 1
                                  for _, row in rows) or not all(
            type(c) is int and 1 <= c <= walk.system.size for c in named):
        return False
    shifts = iter(shifts)
    states = {tuple((color, anchor, next(shifts)) for anchor, _ in row)
              for color, row in rows}
    return walk.root(letters) in states and spectrum._is_closed(
        states, lambda state: all(map(spectrum._is_coincidence_key, state)),
        lambda state: walk.inflate({state: ()}))


def geometric_strong(walk: Walk, level_bound=DEFAULT_LEVEL_BOUND,
                     node_cap=spectrum.DEFAULT_NODE_CAP):
    """Exact shared-tile search for every unordered prototile pair.

    The inflated prototiles are translated by beta^L times their
    reference points; a shared tile is an exact coincidence of position
    and color.  Identical pairs hold trivially at level 0.  Each pair is
    one `Walk.search`, which decides it or names the cap it ran into."""
    m = walk.system.size
    return {(i, j): walk.search((i, j), (i, j), level_bound, node_cap)
            for i in range(1, m + 1) for j in range(i, m + 1)}


def simultaneous(walk: Walk, level_bound=DEFAULT_LEVEL_BOUND,
                 node_cap=spectrum.DEFAULT_NODE_CAP):
    """Shared tile of all m translated inflated prototiles at one level."""
    letters = tuple(range(1, walk.system.size + 1))
    return walk.search(letters, None, level_bound, node_cap)


def verify_witness(walk: Walk, witness: CoincidenceWitness) -> bool:
    """Replay a coincidence witness on the inflation tree.

    At its level L, and again at its replay level, a witness claims that
    T_color - c_color + shift / denom is a tile of beta^L (T_c - c_c) for
    each scope letter c (`Walk.holds`).  A witness whose level is
    negative, whose replay level is not the least seed-power multiple at
    or above it, or whose denominator does not divide the walk's fails
    first: a true tile lies over the walk's denominator.
    """
    letters = (range(1, walk.system.size + 1) if witness.scope is None
               else witness.scope)
    if (witness.level < 0 or walk.denom % witness.denom or
            witness.replay_level != _replay_level(walk.system,
                                                  witness.level)):
        return False
    scale = walk.denom // witness.denom
    claims = ((witness.level, witness.color, witness.shift),
              (witness.replay_level, witness.replay_color,
               witness.replay_shift))
    return all(walk.holds(letter, level, color,
                          tuple([a * scale for a in shift]))
               for level, color, shift in claims for letter in set(letters))
