import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtiling import algebraic, cli
from subtiling import spectrum as SP
from subtiling import suspension as S
from subtiling.words import CountGap, Substitution

from conftest import WALK_BASE, exact_tiles, false_zero_pairs

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def zeros(system):
    return S.left_endpoint_points(system)


def test_tm_classes_for_shift_three(sys_tm):
    patch = sys_tm.patch_covering(*sys_tm.window(24))
    y = sys_tm.field.rational(3)
    classes = SP.overlap_classes_for_translation(sys_tm, patch, y)
    got = {(k[0], k[1], k[2][0]) for k in classes}
    assert got == {
        (1, 1, Fraction(0)), (1, 2, Fraction(0)),
        (2, 1, Fraction(0)), (2, 2, Fraction(0)),
    }


def test_inflate_coincidence_absorbs(sys_tm, sys_fib, sys_rauzy2):
    for system in (sys_tm, sys_fib, sys_rauzy2):
        for letter in range(1, system.size + 1):
            cls = SP.OverlapClass(letter, letter, system.field.zero())
            children = SP.inflate_overlap(system, cls)
            assert children
            assert all(c.is_coincidence() for c in children)


def test_inflate_tm_swap_cycle(sys_tm):
    cls = SP.OverlapClass(1, 2, sys_tm.field.zero())
    children = {c.key()[:2] for c in SP.inflate_overlap(sys_tm, cls)}
    assert children == {(1, 2), (2, 1)}


def test_inflate_respects_displacement_bound(sys_fib):
    # start from a genuine overlap with an irrational displacement
    x = sys_fib.beta - 1          # 0 < phi - 1 < 1 <= both lengths
    cls = SP.OverlapClass(1, 1, x)
    for child in SP.inflate_overlap(sys_fib, cls):
        lo = -sys_fib.length_of(child.moved)
        hi = sys_fib.length_of(child.anchor)
        assert (child.shift - lo).sign() > 0
        assert (hi - child.shift).sign() > 0


def test_overlap_verdicts(sys_tm, sys_fib, sys_aba, sys_fib2, sys_rauzy,
                          sys_rauzy2):
    cases = {
        "tm": (sys_tm, "FAILS"),
        "fib": (sys_fib, "HOLDS"),
        "aba": (sys_aba, "HOLDS"),
        "fib2": (sys_fib2, "FAILS"),
        "rauzy": (sys_rauzy, "HOLDS"),
        "rauzy2": (sys_rauzy2, "HOLDS"),
    }
    for name, (system, expected) in cases.items():
        half = SP.overlap_coincidence(
            system, zeros(system), system.window(64)
        )
        assert half.status == expected, name
        if expected == "FAILS":
            assert SP.replay_overlap_certificate(system, half.certificate)


def test_tm_failure_certificate_contains_swap_pair(sys_tm):
    half = SP.overlap_coincidence(sys_tm, zeros(sys_tm), sys_tm.window(64))
    stuck = {(e["moved"], e["anchor"], tuple(e["shift"]))
             for e in half.certificate["coincidence_free_closed_set"]}
    assert (1, 2, ("0/1",)) in stuck
    assert (2, 1, ("0/1",)) in stuck


def test_overlap_node_cap_gives_unknown(sys_rauzy2):
    half = SP.overlap_coincidence(
        sys_rauzy2, zeros(sys_rauzy2), sys_rauzy2.window(64), node_cap=10
    )
    assert half.status == "UNKNOWN"
    assert "node cap" in half.bound_hit


def test_corrupted_overlap_certificate_rejected(sys_tm):
    half = SP.overlap_coincidence(sys_tm, zeros(sys_tm), sys_tm.window(64))
    cert = dict(half.certificate)
    cert["coincidence_free_closed_set"] = \
        cert["coincidence_free_closed_set"][:1]
    assert not SP.replay_overlap_certificate(sys_tm, cert)


def test_overlap_certificate_with_coincidences_rejected(sys_tm):
    # each coincidence inflates to the coincidences of both letters, so the
    # set stays closed and only the coincidence check can reject it
    half = SP.overlap_coincidence(sys_tm, zeros(sys_tm), sys_tm.window(64))
    cert = dict(half.certificate)
    cert["coincidence_free_closed_set"] = \
        cert["coincidence_free_closed_set"] + [
            {"moved": c, "anchor": c, "shift": ["0/1"]} for c in (1, 2)]
    assert not SP.replay_overlap_certificate(sys_tm, cert)


def test_split_balanced():
    u = bytes([1, 2, 2, 1])
    v = bytes([2, 1, 1, 2])
    comps = SP.split_balanced(u, v, 2)
    assert comps == [(bytes([1, 2]), bytes([2, 1])),
                     (bytes([2, 1]), bytes([1, 2]))]
    with pytest.raises(ValueError):
        SP.split_balanced(bytes([1, 1]), bytes([1, 2]), 2)


def test_return_word_seeds_fibonacci(fib):
    letter, seed_words, pairs = SP.return_word_seeds(fib)
    assert letter == 1
    assert bytes([1, 2]) in seed_words
    assert bytes([1]) in seed_words
    assert all(
        sorted(u) == sorted(v) for u, v in pairs
    )


def test_balanced_verdicts(fib, tm, aba, rauzy, fib2, rauzy2):
    assert SP.balanced_pairs(fib).status == "HOLDS"
    assert SP.balanced_pairs(rauzy).status == "HOLDS"
    tm_half = SP.balanced_pairs(tm)
    assert tm_half.status == "FAILS"
    assert SP.replay_balanced_certificate(tm, tm_half.certificate)
    aba_half = SP.balanced_pairs(aba, advisory=True)
    assert aba_half.status == "FAILS" and aba_half.advisory
    assert SP.replay_balanced_certificate(aba, aba_half.certificate)
    assert SP.balanced_pairs(fib2).status == "UNKNOWN"
    assert SP.balanced_pairs(rauzy2).status == "UNKNOWN"


def test_tm_balanced_certificate_is_the_swap_cycle(tm):
    half = SP.balanced_pairs(tm)
    cert = half.certificate["coincidence_free_closed_set"]
    assert [[1, 2], [2, 1]] in cert


def test_tampered_balanced_certificates_rejected(tm):
    # a -> abc, b -> bca, c -> cab: a six-pair closed set in which
    # (abc, bca) is the image of another pair
    cyclic = Substitution([bytes([1, 2, 3]), bytes([2, 3, 1]),
                           bytes([3, 1, 2])])
    for sub, dropped in ((tm, [[1, 2], [2, 1]]),
                         (cyclic, [[1, 2, 3], [2, 3, 1]])):
        cert = SP.balanced_pairs(sub, advisory=True).certificate
        pairs = cert["coincidence_free_closed_set"]
        assert SP.replay_balanced_certificate(sub, cert)
        assert dropped in pairs
        assert not SP.replay_balanced_certificate(sub, dict(
            cert, coincidence_free_closed_set=[
                p for p in pairs if p != dropped]))
        # single-letter pairs map to single-letter pairs: still closed
        assert not SP.replay_balanced_certificate(sub, dict(
            cert, coincidence_free_closed_set=pairs + [
                [[c], [c]] for c in range(1, sub.size + 1)]))


def test_balanced_pair_cap_gives_unknown(rauzy):
    half = SP.balanced_pairs(rauzy, pair_cap=2)
    assert half.status == "UNKNOWN"


def test_spectral_verdict_reconciliation():
    holds = SP.SpectralHalf("overlap", "HOLDS")
    fails = SP.SpectralHalf("balanced-pairs", "FAILS")
    unknown = SP.SpectralHalf("balanced-pairs", "UNKNOWN")
    agree = SP.spectral_verdict(holds, SP.SpectralHalf("balanced-pairs",
                                                       "HOLDS"))
    assert agree.status == "PURE_DISCRETE" and agree.agreement == "agree"

    one_sided = SP.spectral_verdict(
        SP.SpectralHalf("overlap", "FAILS"), unknown
    )
    assert one_sided.status == "NOT_PURE_DISCRETE"

    clash = SP.spectral_verdict(holds, fails)
    assert clash.status == "UNKNOWN" and clash.disagreement_detected

    advisory_clash = SP.spectral_verdict(
        holds, SP.SpectralHalf("balanced-pairs", "FAILS", advisory=True)
    )
    assert advisory_clash.status == "PURE_DISCRETE"
    assert not advisory_clash.disagreement_detected
    assert advisory_clash.agreement == "out-of-scope-disagreement"


def test_overlap_verdict_independent_of_reference_points(sys_rauzy2):
    # translations between same-color points do not depend on the shift
    left = SP.overlap_coincidence(
        sys_rauzy2, zeros(sys_rauzy2), sys_rauzy2.window(48)
    )
    gamma_refs = S.control_points(sys_rauzy2, (2, 2, 1, 1, 1, 1))
    gamma = SP.overlap_coincidence(
        sys_rauzy2, gamma_refs, sys_rauzy2.window(48)
    )
    assert left.status == gamma.status == "HOLDS"


def test_closure_is_order_independent(sys_fib):
    # the reachable class set is a fixpoint, not an artifact of BFS order
    refs = zeros(sys_fib)
    seeds = SP.initial_overlaps(sys_fib, refs, sys_fib.window(48))

    def closure(seed_keys):
        classes = dict(seeds)
        queue = list(seed_keys)
        while queue:
            key = queue.pop(0)
            for child in SP.inflate_overlap(sys_fib, classes[key]):
                if child.key() not in classes:
                    classes[child.key()] = child
                    queue.append(child.key())
        return set(classes)

    forward = closure(list(seeds))
    backward = closure(list(reversed(list(seeds))))
    assert forward == backward


def test_split_components_reassemble(fib, rauzy):
    import random
    rng = random.Random(17)
    for sub in (fib, rauzy):
        m = sub.size
        for _ in range(25):
            word = bytes(rng.randint(1, m) for _ in range(rng.randint(1, 8)))
            perm = bytearray(word)
            rng.shuffle(perm)
            u, v = word, bytes(perm)
            comps = SP.split_balanced(u, v, m)
            assert b"".join(c[0] for c in comps) == u
            assert b"".join(c[1] for c in comps) == v
            from subtiling.words import abelianization
            for cu, cv in comps:
                assert abelianization(cu, m) == abelianization(cv, m)
                # irreducible: no proper balanced prefix
                for t in range(1, len(cu)):
                    assert abelianization(cu[:t], m) != \
                        abelianization(cv[:t], m)


# ---------------------------------------------------------------------------
# The integer sweep against a FieldElem sweep
# ---------------------------------------------------------------------------


def _fieldelem_sweep(system, patch, y):
    """Reference: the overlap sweep with every comparison made by
    FieldElem.sign() on a newly formed element."""
    tiles = exact_tiles(patch)
    out = {}
    anchor_idx = 0
    n = len(tiles)
    for pos, moved_color in tiles:
        start = pos - y
        end = start + system.length_of(moved_color)
        while anchor_idx < n:
            a_pos, a_color = tiles[anchor_idx]
            a_end = a_pos + system.length_of(a_color)
            if (a_end - start).sign() <= 0:
                anchor_idx += 1
            else:
                break
        idx = anchor_idx
        while idx < n:
            a_pos, a_color = tiles[idx]
            if (a_pos - end).sign() >= 0:
                break
            cls = SP.OverlapClass(moved_color, a_color, start - a_pos)
            out[cls.key()] = cls
            idx += 1
    return out


def _as_items(classes):
    return [(k, (c.moved, c.anchor, c.shift.coords))
            for k, c in classes.items()]


# a -> ab, b -> aab: beta = 1 + sqrt(2), the length of a is
# (sqrt(2) - 1) / 2, so the lengths have denominator 2; the tile map
# (2, 1) gives control points with denominator 4
EXTRA_SYSTEMS = {"a->ab,b->aab": (Substitution([b"\1\2", b"\1\1\2"]), (2, 1))}


def _system_and_refs(name):
    """A fresh system and the reference points an analysis would take,
    for a corpus entry, a `perfbench/specs` input or an extra system."""
    path = SPECS / f"{name}.spec"
    if name in EXTRA_SYSTEMS:
        sub, tilemap = EXTRA_SYSTEMS[name]
    else:
        spec = (cli.parse_spec(path.read_text(encoding="utf-8"), name=name)
                if path.exists() else cli.corpus_lookup(name))
        sub, tilemap = spec.substitution(), spec.tilemap
    system = S.SuspensionSystem(sub)
    if tilemap is None:
        return system, S.left_endpoint_points(system)
    return system, S.control_points(system, tilemap)


SWEEP_CASES = ("fibonacci", "fib2", "rauzy", "rauzy2-gamma", "thue-morse")


def _sweep_setting(name, size):
    """A fresh system at its first isolating interval, the patch covering
    the window of the given size, the patch's tile boundaries and its
    nonzero same-color return vectors.  The interval is left wide, so
    that some comparisons fall back to FieldElem.sign() and refine it."""
    system, refs = _system_and_refs(name)
    window = system.window(size)
    patch = system.patch_covering(*window)
    pts = S.reference_point_sets(patch, refs, window)
    per_color, _ = S.return_vectors(pts, cross=False)
    # in the order initial_overlaps sweeps them
    returns = {d.coords: d for diffs in per_color for d in diffs
               if not d.is_zero()}
    bounds = [pos for pos, _ in exact_tiles(patch)] + [patch.end]
    return system, refs, window, patch, bounds, list(returns.values())


_SETTINGS = {}


def _setting(name):
    if name not in _SETTINGS:
        _SETTINGS[name] = _sweep_setting(name, 16)
    return _SETTINGS[name]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_sweep_matches_fieldelem_sweep(data):
    name = data.draw(st.sampled_from(SWEEP_CASES))
    system, _, _, patch, bounds, returns = _setting(name)
    kind = data.draw(st.sampled_from(
        ["return", "boundary", "near-boundary", "denominator"]))
    if kind == "return":
        y = data.draw(st.sampled_from(returns))
    elif kind in ("boundary", "near-boundary"):
        # moves one tile boundary exactly onto another, or next to it by
        # +-beta^-k, a small value with large coordinates
        a = data.draw(st.sampled_from(bounds))
        b = data.draw(st.sampled_from(bounds))
        y = a - b
        if kind == "near-boundary":
            k = data.draw(st.integers(4, 24))
            y = y + data.draw(st.sampled_from([1, -1])) * \
                system.beta.inverse() ** k
    else:
        q = data.draw(st.sampled_from([3, 7, 11, 13]))
        y = data.draw(st.sampled_from(returns)) * Fraction(1, q)
        denoms = [c.denominator for c in y.coords if c]
        assume(any(patch.denom % d for d in denoms))
    got = SP.overlap_classes_for_translation(system, patch, y)
    want = _fieldelem_sweep(system, patch, y)
    assert _as_items(got) == _as_items(want)


def _fieldelem_overlaps(system, cls):
    """Reference: -len_moved < shift < len_anchor by FieldElem signs."""
    return ((cls.shift + system.length_of(cls.moved)).sign() > 0 and
            (system.length_of(cls.anchor) - cls.shift).sign() > 0)


def _fieldelem_seeds(system, refs, window):
    """Reference: the FieldElem sweep of every nonzero same-color return
    vector in the order `return_vectors` finds them, each class checked
    by FieldElem signs."""
    patch = system.patch_covering(*window)
    pts = S.reference_point_sets(patch, refs, window)
    per_color, _ = S.return_vectors(pts, cross=False)
    returns = {d.coords: d for diffs in per_color for d in diffs
               if not d.is_zero()}
    classes = {}
    for y in returns.values():
        classes.update(_fieldelem_sweep(system, patch, y))
    assert all(_fieldelem_overlaps(system, c) for c in classes.values())
    return classes


def _fieldelem_inflate(system, cls):
    """Reference: one inflation step in FieldElem arithmetic."""
    base = system.beta * cls.shift
    out = []
    for mc, m_off in zip(system.sub.rule(cls.moved),
                         system.subtile_offsets[cls.moved - 1]):
        for ac, a_off in zip(system.sub.rule(cls.anchor),
                             system.subtile_offsets[cls.anchor - 1]):
            child = SP.OverlapClass(mc, ac, base + m_off - a_off)
            if _fieldelem_overlaps(system, child):
                out.append(child)
    return out


@pytest.mark.parametrize("name", ["fibonacci", "fib2", "rauzy2-gamma",
                                  "aba-gamma", "a->ab,b->aab"])
def test_initial_overlaps_match_fieldelem_sweep(name):
    # same seeds in the same order, after the same interval refinements,
    # each side from a fresh system; the FieldElem reference takes 1.6 s
    # on a->ab, b->aab at window 64
    size = 32 if name in EXTRA_SYSTEMS else 64

    def seeds(seeder):
        system, refs = _system_and_refs(name)
        window = system.window(size)
        before = system.field.generation
        classes = seeder(system, refs, window)
        return _as_items(classes), system.field.generation - before

    assert seeds(SP.initial_overlaps) == seeds(_fieldelem_seeds)


_INFLATION_SETTINGS = {}


def _inflation_setting(name):
    """A shared system and its seed classes at window 16."""
    if name not in _INFLATION_SETTINGS:
        system, refs = _system_and_refs(name)
        seeds = list(SP.initial_overlaps(system, refs, system.window(16))
                     .values())
        _INFLATION_SETTINGS[name] = system, seeds
    return _INFLATION_SETTINGS[name]


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_inflation_matches_fieldelem_inflation(data):
    name = data.draw(st.sampled_from(
        ["fibonacci", "rauzy", "aba-gamma", "rauzy2-gamma", "a->ab,b->aab"]))
    system, seeds = _inflation_setting(name)
    field = system.field
    q = data.draw(st.sampled_from([1, 2, 3, 6]))
    if data.draw(st.booleans()):
        # a seed class moved by r/q * beta^-k: near its own tile ends
        cls = data.draw(st.sampled_from(seeds))
        k = data.draw(st.integers(0, 8))
        r = data.draw(st.integers(-2, 2))
        cls = SP.OverlapClass(cls.moved, cls.anchor, cls.shift +
                              Fraction(r, q) * system.beta.inverse() ** k)
    else:
        coords = data.draw(st.lists(st.integers(-4, 4), min_size=field.degree,
                                    max_size=field.degree))
        letters = st.integers(1, system.size)
        cls = SP.OverlapClass(data.draw(letters), data.draw(letters),
                              field.element([Fraction(a, q) for a in coords]))
    got = SP.inflate_overlap(system, cls)
    want = _fieldelem_inflate(system, cls)
    assert [(c.moved, c.anchor, c.shift.coords) for c in got] == \
        [(c.moved, c.anchor, c.shift.coords) for c in want]


# Taken with the FieldElem closure, each from a fresh system: the number
# of seed classes, the first three and a digest of all of them in order
# (moved, anchor, shift as fraction strings, as JSON).
SEED_ORDER = {
    "rauzy": (64, 73, [[2, 1, ["-1", "0", "0"]], [1, 1, ["-1", "-1", "1"]],
                       [1, 2, ["-1", "-2", "1"]]], "c64b66e9e8e592fa"),
    "pentanacci": (16, 326, [[1, 1, ["0"] * 5], [3, 2, ["0"] * 5],
                             [1, 2, ["0", "-1", "-1", "1", "0"]]],
                   "54298656e523c016"),
}


@pytest.mark.parametrize("name", sorted(SEED_ORDER))
def test_seed_order_is_pinned(name):
    size, count, first, digest = SEED_ORDER[name]
    system, refs = _system_and_refs(name)
    keys = [[m, a, [str(Fraction(c)) for c in shift]]
            for m, a, shift in SP.initial_overlaps(system, refs,
                                                   system.window(size))]
    assert len(keys) == count
    assert keys[:3] == first
    text = json.dumps(keys).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == digest


@pytest.mark.parametrize("node_cap, nodes_seen",
                         [(500, 504), (1000, 1002), (2000, 2002)])
def test_nonpisot_nodes_seen_is_pinned(node_cap, nodes_seen):
    # the class count at the cap depends on the order the closure takes
    # the seeds and the successors in
    system, refs = _system_and_refs("nonpisot")
    half = SP.overlap_coincidence(system, refs, system.window(16),
                                  node_cap=node_cap)
    assert half.status == "UNKNOWN"
    assert half.certificate == {"nodes_seen": nodes_seen}


def test_overlap_closure_builds_few_field_elements(monkeypatch):
    """Work guard: the overlap route runs on integer vectors, so the
    field elements made in `overlap_coincidence` on pentanacci are at
    most one per class plus one per FieldElem fallback sign."""
    system, refs = _system_and_refs("pentanacci")
    window = system.window(16)
    made, fallbacks = [], []
    init = algebraic.FieldElem.__init__
    interval_sign = algebraic.FieldElem._interval_sign
    monkeypatch.setattr(algebraic.FieldElem, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(
        algebraic.FieldElem, "_interval_sign",
        lambda self: fallbacks.append(1) or interval_sign(self))
    half = SP.overlap_coincidence(system, refs, window, node_cap=2000)
    assert half.status == "HOLDS"
    assert len(made) <= half.certificate["total_classes"] + len(fallbacks)


def _split_by_letter_counts(u, v, m):
    """Reference: cut wherever the running letter-count difference of
    the two words vanishes."""
    comps = []
    diff = [0] * m
    start = 0
    for t in range(len(u)):
        diff[u[t] - 1] += 1
        diff[v[t] - 1] -= 1
        if not any(diff):
            comps.append((u[start:t + 1], v[start:t + 1]))
            start = t + 1
    if start != len(u):
        raise ValueError("pair is not balanced")
    return comps


def test_split_balanced_matches_letter_count_loop():
    import random
    rng = random.Random(23)
    for m in range(2, 7):
        for _ in range(60):
            n = rng.randint(0, 40)
            u = bytes(rng.randint(1, m) for _ in range(n))
            if rng.random() < 0.3:
                v = bytes(rng.randint(1, m) for _ in range(n))   # unbalanced
            else:
                perm = bytearray(u)
                # a few swaps keep long shared stretches
                for _ in range(rng.randint(0, 4)):
                    i, j = rng.randrange(max(n, 1)), rng.randrange(max(n, 1))
                    if n:
                        perm[i], perm[j] = perm[j], perm[i]
                v = bytes(perm)
            try:
                want = _split_by_letter_counts(u, v, m)
            except ValueError:
                with pytest.raises(ValueError):
                    SP.split_balanced(u, v, m)
                continue
            assert SP.split_balanced(u, v, m) == want
    with pytest.raises(ValueError):
        SP.split_balanced(bytes([1, 2]), bytes([2, 1, 1]), 2)


@pytest.mark.parametrize("m", sorted(WALK_BASE))
def test_split_balanced_past_false_walk_zeros(m):
    # words whose weighted walk vanishes where the counts differ, and
    # alphabets of 12 and 40 letters, where the weights collapse
    for u, v in false_zero_pairs(m):
        assert SP.split_balanced(u, v, m) == _split_by_letter_counts(u, v, m)


def test_balanced_pair_runs_confirm_few_false_walk_zeros(monkeypatch, fib2,
                                                        rauzy2):
    """Deterministic work guard on the balanced-cut kernel: on the two
    longest balanced-pair runs of the corpus, zeros of the weighted walk
    where the letter counts differ stay under 5% of the true cuts."""
    confirmed = []
    balanced_at = CountGap.balanced_at

    def counting(self, t):
        confirmed.append(balanced_at(self, t))
        return confirmed[-1]

    monkeypatch.setattr(CountGap, "balanced_at", counting)
    for sub in (fib2, rauzy2):
        confirmed.clear()
        SP.balanced_pairs(sub)
        cuts = sum(confirmed)
        assert cuts > 100
        assert len(confirmed) - cuts <= 0.05 * cuts
