"""Two independent decision procedures for pure discreteness.

The overlap route works on the tiling: every translation between two
same-color reference points defines overlaps of tile pairs, overlaps form
classes (colors plus exact relative displacement), and classes inflate to
sets of classes.  Pure discreteness holds exactly when every class
reaches an exact same-color alignment.  The balanced-pair route works on
words: cyclic rotations of return words of the fixed point seed balanced
pairs, the substitution maps pairs to pairs, and the criterion asks the
closure to stay finite with every irreducible pair reaching a trivial
(letter, letter) pair.  Both routes emit replayable certificates and are
reconciled into one spectral verdict.

The overlap route runs on integer vectors over one denominator D: a
class is the key (moved, anchor, D * shift coordinates), and the seeding,
the closure and the certificate replay share one integer step
(`_Inflation`).  Multiplying by beta is the companion-matrix step on
ints (beta is an algebraic integer), so D never grows.  Every sign is
`NumberField.int_sign` of an integer vector, which decides it as
FieldElem.sign() decides the same element: exactly when it is rational,
then by the fixed-point filter, then by the Horner enclosure, refining
the interval.  The decisions come in the order of a FieldElem closure,
so the same refinements follow.  The seeding takes each same-color
translation once, in first-seen order, and sweeps each moved tile (its
color and translated start) once.  A field element is made only for the
public OverlapClass API; the report gets fraction strings.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import words as words_mod
from .algebraic import (FieldElem, common_denominator, scaled_coords,
                        unscaled_coords)
from .errors import EmptyWindow, InvalidWord
# return_vectors is no longer called here, but stays importable from this
# module: perfbench's tracer wraps names where callers look them up
from .suspension import (SuspensionSystem, reference_point_sets,  # noqa: F401
                         return_vectors)
from .words import Substitution

DEFAULT_NODE_CAP = 100_000
DEFAULT_PAIR_CAP = 50_000
ITER_CAP = 200
PAIR_LENGTH_CAP = 100_000
SEED_RETURN_WORDS = 10


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


class OverlapClass:
    """Translation class of two overlapping tiles.

    The moved tile of color `moved` occupies [shift, shift + len_moved);
    the anchor tile of color `anchor` occupies [0, len_anchor).  The open
    supports intersect, so -len_moved < shift < len_anchor.  The class is
    a coincidence when the colors agree and the shift is zero.
    """

    __slots__ = ("moved", "anchor", "shift")

    def __init__(self, moved, anchor, shift):
        self.moved = moved
        self.anchor = anchor
        self.shift = shift

    def key(self):
        return (self.moved, self.anchor, self.shift.coords)

    def is_coincidence(self):
        return self.moved == self.anchor and self.shift.is_zero()

    def __repr__(self):
        return f"OverlapClass({self.moved}, {self.anchor}, {self.shift.coords})"


def _is_coincidence_key(key):
    return key[0] == key[1] and not any(key[2])


class _Inflation:
    """Overlap tests and one inflation step on integer shift vectors over
    one denominator, a multiple of the lengths' common denominator.

    Multiplying by beta is the companion-matrix step: the coordinates
    move up one power and the top one comes back as minus the minimal
    polynomial's lower coefficients.  The overlap test of a child first
    adds the fixed-point enclosure of beta * shift, taken once per
    parent, to a per-generation enclosure of its offset difference plus
    the tile length; a sum of enclosures is no tighter than the
    enclosure of the sum, so whatever it decides `int_sign` would have
    decided by its filter, with no refinement, and the rest goes to
    `int_sign` in the order of `overlaps`."""

    def __init__(self, system: SuspensionSystem, denom):
        self.system = system
        self.field = system.field
        self.denom = denom
        # indexed by letter
        self.lengths = (None,) + tuple(
            scaled_coords(length.coords, denom) for length in system.lengths)
        self._offsets = tuple(
            tuple(scaled_coords(o.coords, denom) for o in offsets)
            for offsets in system.subtile_offsets)
        self._companion = tuple(-c for c in self.field.minpoly[:-1])
        # per (moved, anchor): the generation and the subtile pairs
        self._pairs = {}

    def overlaps(self, moved, anchor, shift):
        """True when the open supports of the class's tiles intersect:
        -len_moved < shift < len_anchor."""
        sign = self.field.int_sign
        return (sign(tuple(map(operator.add, shift,
                               self.lengths[moved]))) > 0 and
                sign(tuple(map(operator.sub, self.lengths[anchor],
                               shift))) > 0)

    def _subtile_pairs(self, moved, anchor):
        """(moved subtile color, anchor subtile color, offset difference
        delta, enclosure of delta + len_moved, enclosure of len_anchor -
        delta) over the subtile pairs of the two inflated tiles, moved
        subtile first, with enclosures of the current generation."""
        field_ = self.field
        cached = self._pairs.get((moved, anchor))
        if cached is not None and cached[0] == field_.generation:
            return cached[1]
        rules, lengths = self.system.sub.rule, self.lengths
        bounds = field_.fixed_point_bounds
        add, sub = operator.add, operator.sub
        pairs = []
        for mc, m_off in zip(rules(moved), self._offsets[moved - 1]):
            for ac, a_off in zip(rules(anchor), self._offsets[anchor - 1]):
                delta = tuple(map(sub, m_off, a_off))
                pairs.append(
                    (mc, ac, delta,
                     *bounds(tuple(map(add, delta, lengths[mc]))),
                     *bounds(tuple(map(sub, lengths[ac], delta)))))
        self._pairs[(moved, anchor)] = (field_.generation, pairs)
        return pairs

    def successors(self, key):
        """The overlapping subtile pairs of a class after one inflation."""
        moved, anchor, shift = key
        top = shift[-1]
        base = (0,) + shift[:-1]
        if top:
            base = tuple(a + top * b for a, b in zip(base, self._companion))
        base_lo, base_hi = self.field.fixed_point_bounds(base)
        sign, lengths = self.field.int_sign, self.lengths
        add, sub = operator.add, operator.sub
        out = []
        for mc, ac, delta, m_lo, m_hi, a_lo, a_hi in \
                self._subtile_pairs(moved, anchor):
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
            out.append((mc, ac, child or tuple(map(add, base, delta))))
        return out


def _as_class(field_, key, denom):
    moved, anchor, shift = key
    return OverlapClass(moved, anchor,
                        FieldElem(field_, unscaled_coords(shift, denom)))


def _as_classes(field_, keys, denom):
    classes = (_as_class(field_, k, denom) for k in keys)
    return {cls.key(): cls for cls in classes}


class _Packing:
    """Integer vectors of one length as single ints: v becomes
    sum v[k] * radix^k, with the radix a power of two more than twice
    every coordinate the packed vectors and their differences take.
    Packing is linear, so a difference of packed vectors is the packed
    difference, and on that range it is one to one."""

    def __init__(self, length, bound):
        self.length = length
        self.radix = 1 << (bound.bit_length() + 1)

    def pack(self, v):
        x = 0
        for a in reversed(v):
            x = x * self.radix + a
        return x

    def unpack(self, x):
        radix = self.radix
        half = radix >> 1
        out = []
        for _ in range(self.length):
            digit = (x + half) % radix - half
            out.append(digit)
            x = (x - digit) // radix
        return tuple(out)


def _sweep(step: _Inflation, patch, packing, translations):
    """Keys over `step.denom` of the tile pairs brought to overlap by each
    translation y, first seen first; the moved tile is taken at -y.

    `step.denom` is a multiple of the patch's, and each translation is an
    integer vector over it, packed by `packing`, whose range must hold a
    boundary minus a translation minus a boundary.  The tile boundaries
    are packed too, so that a moved boundary is one subtraction and an
    equality one comparison.  Boundaries are compared
    on their fixed-point enclosures, then for equality, and only the rest
    by `NumberField.int_sign` on the unpacked difference.  An enclosure
    that excludes zero implies that the sign filter would decide too, so
    the sequence of interval refinements is that of a FieldElem sweep.  A
    moved tile, its color and its translated start, is swept once: its
    classes depend on nothing else, so a tile that an earlier translation
    brought to the same place adds no class."""
    field_, denom = step.field, step.denom
    colors, points = patch.colors, patch.points
    lows, highs = patch.enclosures()
    if denom != patch.denom:
        factor = denom // patch.denom
        points = [tuple(a * factor for a in v) for v in points]
        lows = [lo * factor for lo in lows]
        highs = [hi * factor for hi in highs]
    bounds = list(map(packing.pack, points))
    unpack, sign = packing.unpack, field_.int_sign

    n = len(colors)
    out = {}
    # per color, the packed starts of the moved tiles swept so far
    swept = [set() for _ in range(max(colors, default=0) + 1)]
    for y in translations:
        y_lo, y_hi = field_.fixed_point_bounds(unpack(y))
        anchor_idx = 0
        for i, moved_color in enumerate(colors):
            start = bounds[i] - y
            seen = swept[moved_color]
            if start in seen:
                continue
            seen.add(start)
            start_lo, start_hi = lows[i] - y_hi, highs[i] - y_lo
            moved_end = bounds[i + 1] - y
            end_lo, end_hi = lows[i + 1] - y_hi, highs[i + 1] - y_lo
            # skip anchors that end at or before the moved start
            while anchor_idx < n:
                k = anchor_idx + 1
                if lows[k] > start_hi:
                    break
                if not (highs[k] < start_lo or bounds[k] == start or
                        sign(unpack(bounds[k] - start)) <= 0):
                    break
                anchor_idx += 1
            idx = anchor_idx
            # collect anchors that start before the moved end
            while idx < n:
                if lows[idx] > end_hi or bounds[idx] == moved_end:
                    break
                if highs[idx] >= end_lo and \
                        sign(unpack(bounds[idx] - moved_end)) >= 0:
                    break
                out.setdefault((moved_color, colors[idx], start - bounds[idx]))
                idx += 1
    return {(moved, anchor, unpack(shift)): None
            for moved, anchor, shift in out}


def overlap_classes_for_translation(system: SuspensionSystem, patch, y):
    """Classes of tile pairs brought to overlap by the translation y.

    Both tiles are taken from the patch; the first one is moved by -y.
    The sweep (`_sweep`) runs on the patch's integer vectors, rescaled
    when a denominator of y does not divide the patch's."""
    denom = math.lcm(patch.denom, common_denominator(y.coords))
    shift_y = scaled_coords(y.coords, denom)
    largest = denom // patch.denom * _largest_coordinate(patch)
    packing = _Packing(system.field.degree,
                       2 * largest + max(map(abs, shift_y)))
    keys = _sweep(_Inflation(system, denom), patch, packing,
                  [packing.pack(shift_y)])
    return _as_classes(system.field, keys, denom)


def _largest_coordinate(patch):
    return max(abs(a) for v in patch.points for a in v)


def _seed_keys(system: SuspensionSystem, refpoints, window):
    """(step, seed keys) of `initial_overlaps`, over the patch's
    denominator; EmptyWindow when the window holds no nonzero same-color
    return vector.

    A same-color difference of reference points is a difference of tile
    starts, so the translations are the differences of the points' tile
    starts, taken in the first-seen order of
    `suspension.return_vectors(cross=False)` with zero left out."""
    lo, hi = window
    patch = system.patch_covering(lo, hi)
    pts = reference_point_sets(patch, refpoints, window)
    denom = patch.denom
    # a translation is a difference of two boundaries
    packing = _Packing(system.field.degree, 4 * _largest_coordinate(patch))
    translations = {}
    for ref, color_pts in zip(refpoints, pts.per_color):
        # the tile starts, from the points over a multiple of denom
        wide = math.lcm(denom, common_denominator(
            c for x in (ref,) + color_pts for c in x.coords))
        factor = wide // denom
        ref_ints = scaled_coords(ref.coords, wide)
        starts = [packing.pack([(a - r) // factor for a, r in
                                zip(scaled_coords(x.coords, wide), ref_ints)])
                  for x in color_pts]
        for i, x in enumerate(starts):
            for y in starts[i:]:
                if y != x:
                    translations.setdefault(y - x)
                    translations.setdefault(x - y)
    if not translations:
        raise EmptyWindow("window holds no same-color return vector")
    step = _Inflation(system, denom)
    seeds = _sweep(step, patch, packing, translations)
    # checks the integer sweep against the exact signs
    for key in seeds:
        if not step.overlaps(*key):
            raise AssertionError("overlap displacement out of range")
    return step, seeds


def initial_overlaps(system: SuspensionSystem, refpoints, window):
    """Overlap classes seeded by every nonzero same-color return vector
    found in the window; EmptyWindow when there is none."""
    step, seeds = _seed_keys(system, refpoints, window)
    return _as_classes(system.field, seeds, step.denom)


def inflate_overlap(system: SuspensionSystem, cls: OverlapClass):
    """One inflation step: subdivide both tiles, keep overlapping pairs."""
    denom = math.lcm(system._length_denom,
                     common_denominator(cls.shift.coords))
    key = (cls.moved, cls.anchor, scaled_coords(cls.shift.coords, denom))
    return [_as_class(system.field, k, denom)
            for k in _Inflation(system, denom).successors(key)]


@dataclass
class SpectralHalf:
    name: str
    status: str                   # HOLDS | FAILS | UNKNOWN
    certificate: dict = field(default_factory=dict)
    advisory: bool = False
    bound_hit: str | None = None


def overlap_coincidence(system: SuspensionSystem, refpoints, window,
                        node_cap=DEFAULT_NODE_CAP) -> SpectralHalf:
    """Close the initial overlaps under inflation and test reachability of
    a coincidence class from every node.

    Coincidences absorb (their inflations are again coincidences), so
    reachability is equivalent to the existence of one uniform number of
    inflation steps after which every class shows a coincidence.  FAILS
    comes with the set of classes that reach none; that set is closed
    under inflation and is re-verified by one inflation pass before being
    emitted.  Exceeding the node cap yields UNKNOWN, and so does a window
    that holds no same-color return vector to seed the closure.  The
    closure runs on the integer keys of `_seed_keys`.
    """
    try:
        step, seeds = _seed_keys(system, refpoints, window)
    except EmptyWindow:
        ends = [_frac_str(window[0]), _frac_str(window[1])]
        return SpectralHalf("overlap", "UNKNOWN",
                            certificate={"window": ends},
                            bound_hit=f"window [{ends[0]}, {ends[1]}]")
    classes = dict(seeds)
    edges = {}
    queue = list(seeds)
    while queue:
        if len(classes) > node_cap:
            return SpectralHalf(
                "overlap", "UNKNOWN",
                certificate={"nodes_seen": len(classes)},
                bound_hit=f"node cap {node_cap}",
            )
        key = queue.pop()
        succ = step.successors(key)
        for nk in succ:
            if nk not in classes:
                classes[nk] = None
                queue.append(nk)
        edges[key] = succ
    coincidences = set(filter(_is_coincidence_key, classes))
    dist = _coincidence_distances(edges, coincidences)
    stuck = sorted(classes.keys() - dist.keys())
    meta = {
        "initial_classes": len(seeds),
        "total_classes": len(classes),
        "coincidence_classes": len(coincidences),
        "window": [_frac_str(window[0]), _frac_str(window[1])],
    }
    if not stuck:
        return SpectralHalf("overlap", "HOLDS", certificate=dict(
            meta, uniform_steps=max(dist.values(), default=0)))
    if not _is_closed(set(stuck), _is_coincidence_key, edges.__getitem__):
        raise AssertionError("stuck set is not a closed coincidence-free set")
    cert = dict(meta)
    cert["coincidence_free_closed_set"] = [
        {"moved": k[0], "anchor": k[1],
         "shift": [_frac_str(Fraction(a, step.denom)) for a in k[2]]}
        for k in stuck
    ]
    return SpectralHalf("overlap", "FAILS", certificate=cert)


def _coincidence_distances(edges, coincidences):
    """Least number of edges from each node to a coincidence, by reverse
    breadth-first search; nodes that reach no coincidence are absent."""
    reverse = {}
    for key, succ in edges.items():
        for s in succ:
            reverse.setdefault(s, []).append(key)
    dist = dict.fromkeys(coincidences, 0)
    frontier = list(coincidences)
    while frontier:
        nxt = []
        for node in frontier:
            for pred in reverse.get(node, ()):
                if pred not in dist:
                    dist[pred] = dist[node] + 1
                    nxt.append(pred)
        frontier = nxt
    return dist


def _is_closed(nodes, is_coincidence, successors):
    """True when `nodes` is nonempty, holds no coincidence and contains
    every successor of each of its members."""
    if not nodes or any(is_coincidence(n) for n in nodes):
        return False
    return all(s in nodes for n in nodes for s in successors(n))


# ---------------------------------------------------------------------------
# Balanced pairs
# ---------------------------------------------------------------------------


def split_balanced(u, v, m):
    """Split a balanced pair into its irreducible balanced components.

    The cuts are the prefix lengths at which the letter counts of the
    two words agree (`words.balanced_cuts`)."""
    if len(u) != len(v):
        raise ValueError("pair is not balanced")
    comps = []
    start = 0
    for cut in words_mod.balanced_cuts(u, v, m):
        comps.append((u[start:cut], v[start:cut]))
        start = cut
    if start != len(u):
        raise ValueError("pair is not balanced")
    return comps


def _canonical(pair):
    u, v = pair
    return (u, v) if u <= v else (v, u)


def _is_coincidence_pair(pair):
    u, v = pair
    return len(u) == 1 and u == v


def _fixed_point_prefix(sub: Substitution):
    """Prefix of the one-sided fixed point with more than
    SEED_RETURN_WORDS + 1 seed-letter hits, or the longest prefix the
    word cap allows."""
    k, letter = words_mod.one_sided_seed(sub)
    steps = 1
    while True:
        prefix = sub.iterate(letter, k * steps)
        if prefix.count(letter) > SEED_RETURN_WORDS + 1:
            return letter, prefix
        if (len(prefix) * max(len(r) for r in sub.rules) >
                words_mod.DEFAULT_WORD_CAP):
            return letter, prefix
        steps += 1


def return_word_seeds(sub: Substitution):
    """Cyclic-rotation balanced pairs from the first SEED_RETURN_WORDS
    distinct return words of the fixed point's first letter."""
    letter, prefix = _fixed_point_prefix(sub)
    positions = [i for i, c in enumerate(prefix) if c == letter]
    seen = []
    for a, b in zip(positions, positions[1:]):
        r = prefix[a:b]
        if r not in seen:
            seen.append(r)
        if len(seen) >= SEED_RETURN_WORDS:
            break
    pairs = []
    for r in seen:
        rotated = r[1:] + r[:1]
        pairs.append(_canonical((r, rotated)))
    return letter, seen, pairs


def balanced_pairs(sub: Substitution, pair_cap=DEFAULT_PAIR_CAP,
                   advisory=False) -> SpectralHalf:
    """Run the balanced pair iteration to a verdict.

    HOLDS: the closure of the seed pairs under substitution-and-split is
    finite and every irreducible pair reaches a single-letter coincidence
    pair.  FAILS: the closure is finite but some closed subset never
    reaches one; that subset is the certificate.  Any cap ends in UNKNOWN.
    """
    m = sub.size
    letter, seed_words, seeds = return_word_seeds(sub)
    meta = {
        "seed_letter": letter,
        "seed_return_words": [list(w) for w in seed_words],
        "seed_pair_count": len(seeds),
    }
    nodes = {}
    frontier = []
    for pair in seeds:
        for comp in split_balanced(*pair, m):
            comp = _canonical(comp)
            if comp not in nodes:
                nodes[comp] = None
                frontier.append(comp)
    edges = {}
    for _ in range(ITER_CAP):
        if not frontier:
            break
        nxt = []
        for pair in frontier:
            u, v = pair
            if len(u) * max(len(r) for r in sub.rules) > PAIR_LENGTH_CAP:
                return SpectralHalf(
                    "balanced-pairs", "UNKNOWN", certificate=meta,
                    advisory=advisory,
                    bound_hit=f"pair length cap {PAIR_LENGTH_CAP}",
                )
            image = (sub.apply(u), sub.apply(v))
            succ = []
            for comp in split_balanced(*image, m):
                comp = _canonical(comp)
                succ.append(comp)
                if comp not in nodes:
                    nodes[comp] = None
                    nxt.append(comp)
            edges[pair] = succ
            if len(nodes) > pair_cap:
                return SpectralHalf(
                    "balanced-pairs", "UNKNOWN", certificate=meta,
                    advisory=advisory, bound_hit=f"pair cap {pair_cap}",
                )
        frontier = nxt
    if frontier:
        return SpectralHalf(
            "balanced-pairs", "UNKNOWN", certificate=meta,
            advisory=advisory, bound_hit=f"iteration cap {ITER_CAP}",
        )
    dist = _coincidence_distances(
        edges, [p for p in nodes if _is_coincidence_pair(p)])
    stuck = sorted(nodes.keys() - dist.keys())
    meta["irreducible_pairs"] = len(nodes)
    if not stuck:
        return SpectralHalf("balanced-pairs", "HOLDS", certificate=meta,
                            advisory=advisory)
    cert = dict(meta)
    cert["coincidence_free_closed_set"] = [
        [list(u), list(v)] for u, v in stuck
    ]
    return SpectralHalf("balanced-pairs", "FAILS", certificate=cert,
                        advisory=advisory)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------


@dataclass
class SpectralVerdict:
    status: str                    # PURE_DISCRETE | NOT_PURE_DISCRETE | UNKNOWN
    overlap: SpectralHalf
    balanced: SpectralHalf
    agreement: str                 # "agree" | "not-applicable" | "DISAGREE"
    disagreement_detected: bool = False


def spectral_verdict(overlap_half: SpectralHalf,
                     balanced_half: SpectralHalf) -> SpectralVerdict:
    """Combine the two procedures into one verdict.

    Within its scope (irreducible Pisot input, advisory flag off) the
    balanced-pair criterion is equivalent to overlap coincidence, so an
    in-scope disagreement is a diagnostic for an implementation bug and
    yields UNKNOWN with the disagreement flag set.  An advisory balanced
    half never overrides the overlap half; if it happens to disagree this
    is recorded as out-of-scope, not as a defect.
    """

    def raw(half):
        return half.status in ("HOLDS", "FAILS")

    def to_verdict(half):
        return "PURE_DISCRETE" if half.status == "HOLDS" \
            else "NOT_PURE_DISCRETE"

    o_dec, b_dec = raw(overlap_half), raw(balanced_half)
    if o_dec and b_dec:
        if overlap_half.status == balanced_half.status:
            return SpectralVerdict(to_verdict(overlap_half), overlap_half,
                                   balanced_half, "agree")
        if balanced_half.advisory:
            return SpectralVerdict(to_verdict(overlap_half), overlap_half,
                                   balanced_half, "out-of-scope-disagreement")
        return SpectralVerdict("UNKNOWN", overlap_half, balanced_half,
                               "DISAGREE", disagreement_detected=True)
    if o_dec:
        return SpectralVerdict(to_verdict(overlap_half), overlap_half,
                               balanced_half, "not-applicable")
    if b_dec and not balanced_half.advisory:
        return SpectralVerdict(to_verdict(balanced_half), overlap_half,
                               balanced_half, "not-applicable")
    return SpectralVerdict("UNKNOWN", overlap_half, balanced_half,
                           "not-applicable")


def replay_overlap_certificate(system: SuspensionSystem, cert) -> bool:
    """Re-verify a FAILS certificate: the listed classes are nonempty,
    distinct, are overlaps of two letters of the system, are
    coincidence-free, and are closed under one inflation step.  A
    malformed entry fails: a letter outside 1..m, or a shift that is not
    a list of exactly one fraction string per power-basis coordinate."""
    m, degree = system.size, system.field.degree
    entries = []
    for e in cert.get("coincidence_free_closed_set", []):
        try:
            moved, anchor, shift = e["moved"], e["anchor"], e["shift"]
            if (type(shift) is not list or len(shift) != degree or
                    not all(type(s) is str for s in shift)):
                return False
            coords = [Fraction(s) for s in shift]
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return False
        if not all(type(c) is int and 1 <= c <= m for c in (moved, anchor)):
            return False
        entries.append((moved, anchor, coords))
    denom = math.lcm(system._length_denom, common_denominator(
        c for _, _, coords in entries for c in coords))
    step = _Inflation(system, denom)
    classes = {}
    for moved, anchor, coords in entries:
        key = (moved, anchor, scaled_coords(coords, denom))
        if key in classes or not step.overlaps(*key):
            return False
        classes[key] = None
    return _is_closed(classes, _is_coincidence_key, step.successors)


def replay_balanced_certificate(sub: Substitution, cert) -> bool:
    """Re-verify a balanced-pair FAILS certificate the same way.  Every
    entry must be a pair of nonempty words over 1..m with equal letter
    counts; a malformed entry fails."""
    m = sub.size
    pairs = set()
    for entry in cert.get("coincidence_free_closed_set", []):
        try:
            u, v = map(bytes, entry)
            balanced = (words_mod.abelianization(u, m) ==
                        words_mod.abelianization(v, m))
        except (TypeError, ValueError, InvalidWord):
            return False
        if not (u and balanced):
            return False
        pairs.add(_canonical((u, v)))

    def successors(pair):
        image = (sub.apply(pair[0]), sub.apply(pair[1]))
        return (_canonical(c) for c in split_balanced(*image, m))

    return _is_closed(pairs, _is_coincidence_pair, successors)
