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
from .suspension import SuspensionSystem, reference_point_sets, return_vectors
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


def _overlaps(system, cls: OverlapClass):
    """True when the open supports of the class's tiles intersect:
    -len_moved < shift < len_anchor."""
    return ((cls.shift + system.length_of(cls.moved)).sign() > 0 and
            (system.length_of(cls.anchor) - cls.shift).sign() > 0)


def overlap_classes_for_translation(system: SuspensionSystem, patch, y):
    """Classes of tile pairs brought to overlap by the translation y.

    Both tiles are taken from the patch; the first one is moved by -y.
    The sweep compares tile boundaries as the patch's integer vectors,
    rescaled when a denominator of y does not divide the patch's: a
    difference whose enclosure excludes zero, or whose integer vector is
    zero, is decided there, and only the rest is decided by
    FieldElem.sign() on the same element.  An enclosure that excludes
    zero implies that the sign filter would decide too, so the sequence
    of interval refinements is that of a FieldElem sweep.  A field
    element is made only for such a sign and for the shift of each new
    class.
    """
    field = system.field
    colors, points, denom = patch.colors, patch.points, patch.denom
    lows, highs = patch.enclosures()
    d_y = common_denominator(y.coords)
    if denom % d_y:
        factor = math.lcm(denom, d_y) // denom
        denom *= factor
        points = [tuple(a * factor for a in v) for v in points]
        lows = [lo * factor for lo in lows]
        highs = [hi * factor for hi in highs]
    shift_y = scaled_coords(y.coords, denom)
    y_lo, y_hi = field.fixed_point_bounds(shift_y)

    def sign(a, b):
        """Exact sign of (a - b) / denom for two integer vectors."""
        return FieldElem(field, unscaled_coords(
            tuple(map(operator.sub, a, b)), denom)).sign()

    n = len(colors)
    out = {}        # classes by colors and integer shift
    anchor_idx = 0
    # boundary i of the moved copy: its vector and enclosure
    moved_end = tuple(map(operator.sub, points[0], shift_y))
    end_lo, end_hi = lows[0] - y_hi, highs[0] - y_lo
    for i, moved_color in enumerate(colors):
        start, start_lo, start_hi = moved_end, end_lo, end_hi
        moved_end = tuple(map(operator.sub, points[i + 1], shift_y))
        end_lo, end_hi = lows[i + 1] - y_hi, highs[i + 1] - y_lo
        # skip anchors that end at or before the moved start
        while anchor_idx < n:
            k = anchor_idx + 1
            if lows[k] > start_hi:
                break
            if not (highs[k] < start_lo or points[k] == start or
                    sign(points[k], start) <= 0):
                break
            anchor_idx += 1
        idx = anchor_idx
        # collect anchors that start before the moved end
        while idx < n:
            if lows[idx] > end_hi or points[idx] == moved_end:
                break
            if highs[idx] >= end_lo and sign(points[idx], moved_end) >= 0:
                break
            key = (moved_color, colors[idx],
                   tuple(map(operator.sub, start, points[idx])))
            if key not in out:
                out[key] = OverlapClass(key[0], key[1], FieldElem(
                    field, unscaled_coords(key[2], denom)))
            idx += 1
    return {cls.key(): cls for cls in out.values()}


def initial_overlaps(system: SuspensionSystem, refpoints, window):
    """Overlap classes seeded by every nonzero same-color return vector
    found in the window; EmptyWindow when there is none."""
    lo, hi = window
    patch = system.patch_covering(lo, hi)
    pts = reference_point_sets(patch, refpoints, window)
    per_color, _ = return_vectors(pts, cross=False)
    translations = {}
    for diffs in per_color:
        for d in diffs:
            if not d.is_zero():
                translations[d.coords] = d
    if not translations:
        raise EmptyWindow("window holds no same-color return vector")
    classes = {}
    for y in translations.values():
        classes.update(overlap_classes_for_translation(system, patch, y))
    # checks the integer sweep against the exact signs
    for cls in classes.values():
        if not _overlaps(system, cls):
            raise AssertionError("overlap displacement out of range")
    return classes


def inflate_overlap(system: SuspensionSystem, cls: OverlapClass):
    """One inflation step: subdivide both tiles, keep overlapping pairs."""
    beta = system.beta
    moved_rule = system.sub.rule(cls.moved)
    anchor_rule = system.sub.rule(cls.anchor)
    moved_offsets = system.subtile_offsets[cls.moved - 1]
    anchor_offsets = system.subtile_offsets[cls.anchor - 1]
    base = beta * cls.shift
    out = []
    for mi, mc in enumerate(moved_rule):
        m_start = base + moved_offsets[mi]
        for ai, ac in enumerate(anchor_rule):
            cls = OverlapClass(mc, ac, m_start - anchor_offsets[ai])
            if _overlaps(system, cls):
                out.append(cls)
    return out


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
    that holds no same-color return vector to seed the closure.
    """
    try:
        seeds = initial_overlaps(system, refpoints, window)
    except EmptyWindow:
        ends = [_frac_str(window[0]), _frac_str(window[1])]
        return SpectralHalf("overlap", "UNKNOWN",
                            certificate={"window": ends},
                            bound_hit=f"window [{ends[0]}, {ends[1]}]")
    classes = dict(seeds)
    edges = {}
    queue = list(seeds.keys())
    while queue:
        if len(classes) > node_cap:
            return SpectralHalf(
                "overlap", "UNKNOWN",
                certificate={"nodes_seen": len(classes)},
                bound_hit=f"node cap {node_cap}",
            )
        key = queue.pop()
        succ = []
        for nxt in inflate_overlap(system, classes[key]):
            nk = nxt.key()
            succ.append(nk)
            if nk not in classes:
                classes[nk] = nxt
                queue.append(nk)
        edges[key] = succ
    coincidences = {k for k, c in classes.items() if c.is_coincidence()}
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
    if not _is_closed(set(stuck), lambda k: classes[k].is_coincidence(),
                      edges.__getitem__):
        raise AssertionError("stuck set is not a closed coincidence-free set")
    cert = dict(meta)
    cert["coincidence_free_closed_set"] = [
        {"moved": k[0], "anchor": k[1], "shift": [_frac_str(c) for c in k[2]]}
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
    are overlaps of two letters of the system, are coincidence-free, and
    are closed under one inflation step.  A malformed entry fails."""
    field = system.field
    m = system.size
    classes = {}
    for e in cert.get("coincidence_free_closed_set", []):
        try:
            moved, anchor = e["moved"], e["anchor"]
            shift = field.element([Fraction(s) for s in e["shift"]])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return False
        if not all(type(c) is int and 1 <= c <= m for c in (moved, anchor)):
            return False
        cls = OverlapClass(moved, anchor, shift)
        if not _overlaps(system, cls):
            return False
        classes[cls.key()] = cls
    return _is_closed(
        classes, lambda k: classes[k].is_coincidence(),
        lambda k: (n.key() for n in inflate_overlap(system, classes[k])))


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
