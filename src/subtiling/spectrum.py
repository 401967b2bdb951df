"""Two independent decision procedures for pure discreteness.

The overlap route works on the tiling: every translation between two
same-color reference points defines overlaps of tile pairs, overlaps form
classes (colors plus exact relative displacement), and classes inflate to
sets of classes.  Pure discreteness holds exactly when every class
reaches an exact same-color alignment.  The balanced-pair route works on
words: cyclic rotations of return words of the fixed point seed balanced
pairs, the substitution maps pairs to pairs, and the criterion asks the
closure to stay finite with every irreducible pair reaching a trivial
(letter, letter) pair.  Both closures run on `_closure`, and `_settle`
decides them and checks each FAILS set closed.  Both routes emit
replayable certificates and are reconciled into one spectral verdict.

The overlap route runs on integer vectors over one denominator D: a
class is the key (moved, anchor, D * shift coordinates).  The seeding,
the closure and the certificate replay take the report's
`coincidence.Walk`, its one inflation graph over D, and share the
children it keeps per class with the shared-tile walks.  Multiplying by
beta is the companion-matrix step on ints (beta is an algebraic
integer), so D never grows.  Every sign is
`NumberField.int_sign` of an integer vector, which decides it as
FieldElem.sign() decides the same element: exactly when it is rational,
then by the fixed-point filter, then by the Horner enclosure, refining
the interval.  The decisions come in the order of a FieldElem closure,
so the same refinements follow.  The seeding takes each same-color
translation once, in first-seen order, and sweeps each moved tile (its
color and translated start) once.  No field element is made; the report
gets fraction strings.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd

from . import algebraic, lattices
from . import words as words_mod
from .errors import EmptyWindow, InvalidWord
# return_vectors is no longer called here, but stays importable from this
# module: perfbench's tracer wraps names where callers look them up
from .suspension import reference_point_sets, return_vectors  # noqa: F401
from .words import Substitution

DEFAULT_NODE_CAP = 100_000
PAIR_CAP = 50_000
ITER_CAP = 200
PAIR_LENGTH_CAP = 100_000
ADVISORY_PAIR_LENGTH_CAP = 2_000
SEED_RETURN_WORDS = 10


def format_shift(ints, denom):
    """The vector ints / denom, for ints and a positive int denom, as
    "p/q" strings in lowest terms, one gcd per coordinate (0 is "0/1")."""
    return [f"{a // (g := gcd(a, denom))}/{denom // g}" for a in ints]


def _is_coincidence_key(key):
    return key[0] == key[1] and not any(key[2])


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


def _sweep(patch, packing, translations, node_cap):
    """Keys over the patch's denominator of the tile pairs brought to
    overlap by each translation y, first seen first; the moved tile is
    taken at -y.  The sweep stops at the first moved tile after which
    there are more than node_cap keys.

    Each translation is an integer vector over the patch's denominator,
    packed by `packing`, whose range must hold a boundary minus a
    translation minus a boundary.  The tile boundaries are packed too, so
    that a moved boundary is one subtraction and an equality one
    comparison.  Boundaries are compared on their fixed-point
    enclosures, then for equality, and only the rest by
    `NumberField.int_sign` on the unpacked difference.  An enclosure
    that excludes zero implies that the sign filter would decide too, so
    the sequence of interval refinements is that of a FieldElem sweep.  A
    moved tile, its color and its translated start, is swept once: its
    classes depend on nothing else, so a tile that an earlier translation
    brought to the same place adds no class."""
    field_, colors, points = patch.field, patch.colors, patch.points
    lows, highs = zip(*map(field_.fixed_point_bounds, points))
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
            if len(out) > node_cap:
                return {(c, a, unpack(s)): None for c, a, s in out}
    return {(c, a, unpack(s)): None for c, a, s in out}


def _seed_keys(walk, window, node_cap):
    """The overlap classes seeded by every nonzero same-color return
    vector found in the window, as keys over the denominator of `walk`, a
    `coincidence.Walk`; EmptyWindow when there is none.  More than
    node_cap keys mean the sweep stopped early.

    A same-color difference of reference points is a difference of tile
    starts, so the translations are the differences of the packed patch
    boundaries at the point set's indices, taken in the first-seen order
    of the same-color sets of `suspension.return_vectors`, with zero left
    out."""
    lo, hi = window
    patch = walk.system.patch_covering(lo, hi)
    pts = reference_point_sets(patch, walk.refpoints, window)
    # a translation is a difference of two boundaries
    packing = _Packing(patch.field.degree,
                       4 * max(abs(a) for v in patch.points for a in v))
    translations = {}
    for indices in pts.indices:
        starts = [packing.pack(patch.points[k]) for k in indices]
        for i, x in enumerate(starts):
            for y in starts[i:]:
                if y != x:
                    translations.setdefault(y - x)
                    translations.setdefault(x - y)
    if not translations:
        raise EmptyWindow("window holds no same-color return vector")
    seeds = _sweep(patch, packing, translations, node_cap)
    if (scale := walk.denom // patch.denom) > 1:
        seeds = {(moved, anchor, tuple([a * scale for a in shift])): None
                 for moved, anchor, shift in seeds}
    # checks the integer sweep against the exact signs
    if not all(walk.overlaps(*key) for key in seeds):
        raise AssertionError("overlap displacement out of range")
    return seeds


@dataclass
class SpectralHalf:
    status: str                   # HOLDS | FAILS | UNKNOWN
    certificate: dict = field(default_factory=dict)
    bound_hit: str | None = None


def overlap_coincidence(walk, window,
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
    closure runs on `_closure`, last in, first out, by the successors
    that `walk`, a `coincidence.Walk`, keeps, from `_seed_keys`."""
    ends = [f"{x.numerator}/{x.denominator}" for x in window]
    try:
        seeds = _seed_keys(walk, window, node_cap)
    except EmptyWindow:
        return SpectralHalf("UNKNOWN",
                            certificate={"window": ends},
                            bound_hit=f"window [{ends[0]}, {ends[1]}]")
    classes, edges, bound_hit = _closure(seeds, walk.successors, node_cap,
                                         lambda key: 0, "node cap")
    if bound_hit:
        return SpectralHalf("UNKNOWN", {"nodes_seen": len(classes)}, bound_hit)
    dist, stuck = _settle(classes, edges, _is_coincidence_key)
    meta = {
        "initial_classes": len(seeds),
        "total_classes": len(classes),
        "coincidence_classes": sum(map(_is_coincidence_key, classes)),
        "window": ends,
    }
    if not stuck:
        return SpectralHalf("HOLDS", certificate=dict(
            meta, uniform_steps=max(dist.values(), default=0)))
    meta["coincidence_free_closed_set"] = [
        {"moved": k[0], "anchor": k[1],
         "shift": format_shift(k[2], walk.denom)} for k in stuck]
    return SpectralHalf("FAILS", certificate=meta)


class _Capped(Exception):
    """A caller's cap, raised from `_closure`'s successors."""


def _closure(seeds, successors, cap, size, cap_name):
    """Expand every node once from the seeds, the one of largest
    size(node) first and the newest among equals (last in, first out
    for a constant size): (nodes in the order met, edges from each
    expanded node to its successors, bound_hit).  More than cap nodes,
    checked before each expansion, end the run with bound_hit
    f"{cap_name} {cap}"; a `_Capped` from successors ends it with its
    message.  bound_hit is None when the closure completes."""
    nodes = dict.fromkeys(seeds)
    heap = [(-size(node), -i, node) for i, node in enumerate(nodes)]
    heapq.heapify(heap)
    edges = {}
    while heap:
        if len(nodes) > cap:
            return nodes, edges, f"{cap_name} {cap}"
        node = heapq.heappop(heap)[2]
        try:
            edges[node] = succ = successors(node)
        except _Capped as hit:
            return nodes, edges, str(hit)
        for s in succ:
            if s not in nodes:
                heapq.heappush(heap, (-size(s), -len(nodes), s))
                nodes[s] = None
    return nodes, edges, None


def _settle(nodes, edges, is_coincidence):
    """The least number of edges from each node of a closure to a
    coincidence, by reverse breadth-first search, and the sorted nodes
    that reach none, checked to be a closed coincidence-free set."""
    reverse = {}
    for key, succ in edges.items():
        for s in succ:
            reverse.setdefault(s, []).append(key)
    frontier = list(filter(is_coincidence, nodes))
    dist = dict.fromkeys(frontier, 0)
    while frontier:
        nxt = []
        for node in frontier:
            for pred in reverse.get(node, ()):
                if pred not in dist:
                    dist[pred] = dist[node] + 1
                    nxt.append(pred)
        frontier = nxt
    stuck = sorted(nodes.keys() - dist.keys())
    if stuck and not _is_closed(set(stuck), is_coincidence,
                                edges.__getitem__):
        raise AssertionError("stuck set is not a closed coincidence-free set")
    return dist, stuck


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
    two words agree (`words.balanced_cuts`); ValueError when the words
    differ in length or in letter counts."""
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
        if (prefix.count(letter) > SEED_RETURN_WORDS + 1 or
                len(prefix) * max(map(len, sub.rules)) > words_mod.WORD_CAP):
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


def balanced_pairs(sub: Substitution, advisory=False) -> SpectralHalf:
    """Run the balanced pair iteration to a verdict.

    HOLDS: the closure of the seed pairs under substitution-and-split is
    finite and every irreducible pair reaches a single-letter coincidence
    pair.  FAILS: the closure is finite but some closed subset never
    reaches one; that subset is the certificate.  The closure
    (`_pair_closure`) expands the longest pair first, which changes no
    finite closure and so no verdict or certificate.  Any cap ends in
    UNKNOWN.

    An advisory run, on an input that is not irreducible Pisot, decides
    nothing of the spectral verdict, so its pairs stop at
    ADVISORY_PAIR_LENGTH_CAP letters instead of PAIR_LENGTH_CAP.
    """
    letter, seed_words, seeds = return_word_seeds(sub)
    meta = {
        "seed_letter": letter,
        "seed_return_words": [list(w) for w in seed_words],
        "seed_pair_count": len(seeds),
    }
    length_cap = ADVISORY_PAIR_LENGTH_CAP if advisory else PAIR_LENGTH_CAP
    nodes, edges, bound_hit = _pair_closure(sub, seeds, length_cap)
    if bound_hit:
        return SpectralHalf("UNKNOWN", certificate=meta, bound_hit=bound_hit)
    _, stuck = _settle(nodes, edges, _is_coincidence_pair)
    meta["irreducible_pairs"] = len(nodes)
    if not stuck:
        return SpectralHalf("HOLDS", certificate=meta)
    meta["coincidence_free_closed_set"] = [list(map(list, p)) for p in stuck]
    return SpectralHalf("FAILS", certificate=meta)


def _pair_closure(sub: Substitution, seeds, length_cap):
    """The closure of the seed pairs under substitution-and-split, on
    `_closure`, with edges to the canonical components.  The longest
    pair is expanded first, the newest among equals; on an infinite
    closure the pairs that grow are the long ones, so following them
    reaches the length cap after one growing line of pairs instead of
    whole breadth-first levels.

    A component, seed or image, over length_cap // (longest rule)
    letters ends the run where it is made, before another image is
    built; more than PAIR_CAP nodes end it, checked before each
    expansion; and a node found ITER_CAP substitution steps from a seed
    component ends it when it comes up for expansion (a depth cap).
    """
    widest = max(len(r) for r in sub.rules)
    depth = {}

    def made(pairs, d):
        """The canonical components of the pairs, unseen ones found at
        depth d; `_Capped` at the first one over the pair length cap."""
        comps = [_canonical(c) for pair in pairs
                 for c in split_balanced(*pair, sub.size)]
        for comp in comps:
            if comp not in depth:
                if len(comp[0]) * widest > length_cap:
                    raise _Capped(f"pair length cap {length_cap}")
                depth[comp] = d
        return comps

    def successors(pair):
        if (d := depth[pair]) >= ITER_CAP:
            raise _Capped(f"iteration cap {ITER_CAP}")
        return made([(sub.apply(pair[0]), sub.apply(pair[1]))], d + 1)

    try:
        comps = made(seeds, 0)
    except _Capped as hit:
        return dict.fromkeys(depth), {}, str(hit)
    return _closure(comps, successors, PAIR_CAP,
                    lambda pair: len(pair[0]), "pair cap")


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------


def spectral_verdict(overlap, balanced, advisory) -> dict:
    """The report's combined verdict from the two procedures' statuses.

    Within its scope (irreducible Pisot input, advisory flag off) the
    balanced-pair criterion is equivalent to overlap coincidence, so an
    in-scope disagreement is a diagnostic for an implementation bug and
    yields UNKNOWN with the disagreement flag set.  An advisory balanced
    half never overrides the overlap half; if it happens to disagree this
    is recorded as out-of-scope, not as a defect.  A status other than
    HOLDS or FAILS decides nothing.
    """
    decided = ("HOLDS", "FAILS")
    status, agreement = None, "not-applicable"
    if overlap in decided and balanced in decided:
        if overlap == balanced:
            status, agreement = overlap, "agree"
        elif advisory:
            status, agreement = overlap, "out-of-scope-disagreement"
        else:
            agreement = "DISAGREE"
    elif overlap in decided:
        status = overlap
    elif balanced in decided and not advisory:
        status = balanced
    return {"status": {"HOLDS": "PURE_DISCRETE", "FAILS": "NOT_PURE_DISCRETE"}
            .get(status, "UNKNOWN"), "agreement": agreement,
            "disagreement_detected": agreement == "DISAGREE"}


def replay_overlap_certificate(walk, cert) -> bool:
    """Re-verify a FAILS certificate on `walk`, a `coincidence.Walk`: the
    listed classes are nonempty, distinct, are overlaps of two letters of
    the system, are coincidence-free, and are closed under one inflation
    step.  A malformed certificate fails: one with no list of classes, a
    letter outside 1..m, or a shift that is not a list of exactly one
    fraction string per power-basis coordinate, and so does a shift
    whose denominator does not divide the walk's, or that is not in the
    Z-span of the prototile lengths, as no class has one: a seed is a
    difference of tile boundaries, and beta and the subtile offsets keep
    the span."""
    try:
        entries = list(cert["coincidence_free_closed_set"])
        shifts, denom = algebraic.parse_shifts(
            [e["shift"] for e in entries], walk.system.field.degree,
            walk.denom)
        letters = [(e["moved"], e["anchor"]) for e in entries]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    if denom != walk.denom or not all(
            type(c) is int and 1 <= c <= walk.system.size
            for pair in letters for c in pair):
        return False
    span = lattices.module_from_int_rows(walk.lengths[1:], walk.denom,
                                         walk.system.field.degree)
    classes = {}
    for (moved, anchor), shift in zip(letters, shifts):
        key = (moved, anchor, shift)
        if (key in classes or span.coordinates_of(shift, walk.denom) is None
                or not walk.overlaps(*key)):
            return False
        classes[key] = None
    return _is_closed(classes, _is_coincidence_key, walk.successors)


def replay_balanced_certificate(sub: Substitution, cert) -> bool:
    """Re-verify a balanced-pair FAILS certificate the same way.  Every
    entry must be a pair of nonempty words over 1..m with equal letter
    counts and no longer than a node of `balanced_pairs` can be,
    PAIR_LENGTH_CAP // (longest rule) letters; all of this is checked
    before sigma is applied, and a malformed certificate or entry fails.
    The pair and iteration caps are not checked: the replay takes one
    substitution step of each listed entry and no more."""
    m = sub.size
    longest = PAIR_LENGTH_CAP // max(len(r) for r in sub.rules)
    pairs = set()
    try:
        for entry in cert["coincidence_free_closed_set"]:
            u, v = map(bytes, entry)
            if not (u and len(u) <= longest and
                    words_mod.abelianization(u, m) ==
                    words_mod.abelianization(v, m)):
                return False
            pairs.add(_canonical((u, v)))
    except (KeyError, TypeError, ValueError, InvalidWord):
        return False

    def successors(pair):
        image = (sub.apply(pair[0]), sub.apply(pair[1]))
        return (_canonical(c) for c in split_balanced(*image, m))

    return _is_closed(pairs, _is_coincidence_pair, successors)
