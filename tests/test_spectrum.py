import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from subtiling import algebraic, cli
from subtiling import lattices as L
from subtiling import spectrum as SP
from subtiling import suspension as S
from subtiling import words as W
from subtiling.words import CountGap, Substitution

from conftest import (WALK_BASE, benchmark_substitutions, exact_tiles,
                      false_zero_pairs, fieldelem_differences,
                      fieldelem_point_sets, key_coords, length_elements,
                      position, power,
                      ref_children, ref_pair_closure,
                      subtile_offset_elements, successors, sweep_translation)

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def zeros(system):
    return S.left_endpoint_points(system)


def test_tm_classes_for_shift_three(sys_tm):
    patch = sys_tm.patch_covering(*sys_tm.window(24))
    y = sys_tm.field.rational(3)
    got = {(m, a, shift[0]) for m, a, shift in sweep_translation(patch, y)}
    assert got == {
        (1, 1, Fraction(0)), (1, 2, Fraction(0)),
        (2, 1, Fraction(0)), (2, 2, Fraction(0)),
    }


def test_inflate_coincidence_absorbs(sys_tm, sys_fib, sys_rauzy2):
    for system in (sys_tm, sys_fib, sys_rauzy2):
        for letter in range(1, system.size + 1):
            children = successors(system, letter, letter, system.field.zero())
            assert children
            assert all(m == a and not any(shift)
                       for m, a, shift in children)


def test_inflate_tm_swap_cycle(sys_tm):
    children = {(m, a) for m, a, _ in
                successors(sys_tm, 1, 2, sys_tm.field.zero())}
    assert children == {(1, 2), (2, 1)}


def test_inflate_respects_displacement_bound(sys_fib):
    # start from a genuine overlap with an irrational displacement
    x = sys_fib.field.beta() - 1    # 0 < phi - 1 < 1 <= both lengths
    lengths = length_elements(sys_fib)
    for moved, anchor, coords in successors(sys_fib, 1, 1, x):
        shift = sys_fib.field.element(coords)
        lo = -lengths[moved - 1]
        hi = lengths[anchor - 1]
        assert (shift - lo).sign() > 0
        assert (hi - shift).sign() > 0


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
    aba_half = SP.balanced_pairs(aba)
    assert aba_half.status == "FAILS"
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
        cert = SP.balanced_pairs(sub).certificate
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
    assert half.bound_hit == "pair cap 2"


def _watch_balanced_pairs(monkeypatch, sub, cap):
    """Run balanced_pairs with PAIR_LENGTH_CAP = cap.  Returns the half
    and the number of `Substitution.apply` calls made after the first
    split and after the first split with a component over the cap."""
    widest = max(len(r) for r in sub.rules)
    split = SP.split_balanced
    apply = Substitution.apply
    seen = {"split": False, "over": False}
    calls = {"split": 0, "over": 0}

    def watched_split(u, v, m):
        comps = split(u, v, m)
        seen["split"] = True
        seen["over"] |= any(len(c[0]) * widest > cap for c in comps)
        return comps

    def watched_apply(self, word, *args, **kwargs):
        for moment in calls:
            calls[moment] += seen[moment]
        return apply(self, word, *args, **kwargs)

    monkeypatch.setattr(SP, "PAIR_LENGTH_CAP", cap)
    monkeypatch.setattr(SP, "split_balanced", watched_split)
    monkeypatch.setattr(Substitution, "apply", watched_apply)
    half = SP.balanced_pairs(sub)
    assert seen["over"]
    return half, calls


def test_balanced_pairs_stop_at_the_first_component_over_the_length_cap(
        monkeypatch, fib2, rauzy2):
    """Work guard on the pair length cap: once a split has made a
    component over it, no further image is built."""
    for sub in (fib2, rauzy2):
        half, calls = _watch_balanced_pairs(monkeypatch, sub, 2000)
        assert (half.status, half.bound_hit) == (
            "UNKNOWN", "pair length cap 2000")
        assert calls["split"] > 0
        assert calls["over"] == 0


def test_balanced_pairs_stop_at_a_seed_component_over_the_length_cap(
        monkeypatch, fib2, rauzy2):
    for sub in (fib2, rauzy2):
        _, _, seeds = SP.return_word_seeds(sub)
        longest = max(len(c[0]) for pair in seeds
                      for c in SP.split_balanced(*pair, sub.size))
        cap = longest * max(len(r) for r in sub.rules) - 1
        half, calls = _watch_balanced_pairs(monkeypatch, sub, cap)
        assert (half.status, half.bound_hit) == (
            "UNKNOWN", f"pair length cap {cap}")
        assert calls["split"] == 0


def _closures(monkeypatch, sub, pair_cap=SP.DEFAULT_PAIR_CAP):
    """balanced_pairs on a fresh copy of sub, by `_pair_closure` and then
    by conftest's breadth-first `ref_pair_closure`.  For each run: the
    half, the nodes and the edges, and the letters walked by
    `words.walk_zeros`."""
    walk = W.walk_zeros
    runs = []

    def recorded(closure):
        def run(*args):
            nodes, edges, bound_hit = closure(*args)
            runs[-1].update(nodes=set(nodes), edges=edges)
            return nodes, edges, bound_hit
        return run

    def counted_walk(u, v, m):
        runs[-1]["walked"] += min(len(u), len(v))
        return walk(u, v, m)

    for closure in (SP._pair_closure, ref_pair_closure):
        with monkeypatch.context() as patch:
            patch.setattr(SP, "_pair_closure", recorded(closure))
            patch.setattr(W, "walk_zeros", counted_walk)
            runs.append({"walked": 0})
            runs[-1]["half"] = SP.balanced_pairs(Substitution(sub.rules),
                                                 pair_cap)
    return runs


def _same_closure(new, ref):
    """The longest-first closure decides as the breadth-first one: same
    status, cap and certificate, and on a complete closure the same nodes
    and edges.  Where the reference ends at the pair cap, the other may
    first reach the pair length cap instead."""
    got, want = new["half"], ref["half"]
    if want.bound_hit and want.bound_hit.startswith("pair cap"):
        assert got.status == "UNKNOWN"
        assert got.bound_hit.startswith(("pair cap", "pair length cap"))
        return
    assert (got.status, got.bound_hit, got.certificate) == (
        want.status, want.bound_hit, want.certificate)
    if want.bound_hit is None:
        assert new["nodes"] == ref["nodes"]
        assert new["edges"] == ref["edges"]


BENCHMARK_SUBSTITUTIONS = benchmark_substitutions()


@pytest.mark.parametrize("sub", [s for _, s in BENCHMARK_SUBSTITUTIONS],
                         ids=[n for n, _ in BENCHMARK_SUBSTITUTIONS])
def test_pair_closure_matches_the_reference(monkeypatch, sub):
    _same_closure(*_closures(monkeypatch, sub))


@pytest.mark.parametrize("cap", [2000, 20_000])
def test_pair_closure_matches_the_reference_at_a_length_cap(monkeypatch,
                                                            fib2, rauzy2,
                                                            cap):
    monkeypatch.setattr(SP, "PAIR_LENGTH_CAP", cap)
    for sub in (fib2, rauzy2):
        new, ref = _closures(monkeypatch, sub)
        _same_closure(new, ref)
        assert new["half"].bound_hit == f"pair length cap {cap}"


@st.composite
def skew_products(draw):
    """A Z/2 skew product of a random substitution rho on 2-3 letters:
    letter (c, s), numbered c + k * s, maps to (rho(c)_i, s xor g(c, i))
    for random bits g, so the sheet swap (c, s) <-> (c, 1 - s) commutes
    with the rules.  Only primitive draws are kept."""
    k = draw(st.integers(2, 3))
    rules = [draw(st.lists(st.integers(1, k), min_size=1, max_size=3))
             for _ in range(k)]
    flips = [draw(st.lists(st.integers(0, 1), min_size=len(r),
                           max_size=len(r))) for r in rules]
    sub = Substitution([bytes(c + k * (s ^ g) for c, g in zip(r, f))
                        for s in (0, 1) for r, f in zip(rules, flips)])
    assume(W.is_primitive(W.substitution_matrix(sub)))
    return sub


@given(sub=skew_products())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
def test_pair_closure_matches_the_reference_on_skew_products(monkeypatch,
                                                             sub):
    with monkeypatch.context() as patch:
        patch.setattr(SP, "PAIR_LENGTH_CAP", 2000)
        new, ref = _closures(patch, sub, 300)
    _same_closure(new, ref)


def test_longest_first_closure_walks_fewer_letters(monkeypatch, fib2,
                                                   rauzy2):
    """Deterministic work guard on the expansion order: at default caps
    fib2 and rauzy2 reach the pair length cap after 22 and 30 expansions
    (266 and 441 breadth-first), walking 50.2 % and 22.8 % of the
    reference's letters."""
    for sub, expanded, share in ((fib2, 22, 0.55), (rauzy2, 30, 0.25)):
        new, ref = _closures(monkeypatch, sub)
        for run in (new, ref):
            assert run["half"].bound_hit == "pair length cap 100000"
        assert len(new["edges"]) <= expanded
        assert new["walked"] <= share * ref["walked"]


def test_iteration_cap_bounds_the_depth_expanded(monkeypatch, fib2):
    """ITER_CAP is a depth cap: a node found ITER_CAP substitution steps
    from a seed component is not expanded.  Depths are the least numbers
    of steps over the edges made."""
    monkeypatch.setattr(SP, "ITER_CAP", 3)
    new, _ = _closures(monkeypatch, fib2)
    assert new["half"].bound_hit == "iteration cap 3"
    _, _, seeds = SP.return_word_seeds(fib2)
    level = {SP._canonical(c) for pair in seeds
             for c in SP.split_balanced(*pair, fib2.size)}
    depth, d = dict.fromkeys(level, 0), 0
    while level:
        d += 1
        level = {s for node in level for s in new["edges"].get(node, ())
                 if s not in depth}
        depth.update(dict.fromkeys(level, d))
    assert depth.keys() == new["nodes"]
    assert max(depth[node] for node in new["edges"]) < 3
    assert max(depth.values()) == 3


def test_period_doubling_balanced_half_hits_the_length_cap():
    spec = cli.parse_spec((SPECS / "period-doubling.spec").read_text(
        encoding="utf-8"), name="period-doubling")
    half = SP.balanced_pairs(spec.substitution())
    assert (half.status, half.bound_hit) == (
        "UNKNOWN", "pair length cap 100000")
    assert half.certificate == {"seed_letter": 1,
                                "seed_return_words": [[1, 2], [1]],
                                "seed_pair_count": 2}


def test_balanced_replay_rejects_an_entry_over_the_length_cap(monkeypatch,
                                                              tm):
    """An entry longer than any node of balanced_pairs can be is rejected
    before sigma is applied; one at the limit reaches the closure test."""
    limit = SP.PAIR_LENGTH_CAP // max(len(r) for r in tm.rules)
    apply = Substitution.apply
    calls = []

    def counting(self, word, *args, **kwargs):
        calls.append(len(word))
        return apply(self, word, *args, **kwargs)

    monkeypatch.setattr(Substitution, "apply", counting)
    for length, applied in ((limit + 1, False), (limit, True)):
        u = bytes([1, 2]) * (length // 2) + bytes([1]) * (length % 2)
        cert = {"coincidence_free_closed_set": [
            [list(u), list(u[1:] + u[:1])]]}
        calls.clear()
        assert not SP.replay_balanced_certificate(tm, cert)
        assert bool(calls) == applied


def test_spectral_verdict_reconciliation():
    def verdict(status, agreement, disagreement=False):
        return {"status": status, "agreement": agreement,
                "disagreement_detected": disagreement}

    # (overlap, balanced, advisory) -> verdict; None stands for an error
    for halves, expected in [
        (("HOLDS", "HOLDS", False), verdict("PURE_DISCRETE", "agree")),
        (("FAILS", "UNKNOWN", False),
         verdict("NOT_PURE_DISCRETE", "not-applicable")),
        (("HOLDS", "FAILS", False), verdict("UNKNOWN", "DISAGREE", True)),
        (("HOLDS", "FAILS", True),
         verdict("PURE_DISCRETE", "out-of-scope-disagreement")),
        (("UNKNOWN", "FAILS", False),
         verdict("NOT_PURE_DISCRETE", "not-applicable")),
        (("UNKNOWN", "FAILS", True), verdict("UNKNOWN", "not-applicable")),
        ((None, None, False), verdict("UNKNOWN", "not-applicable")),
    ]:
        assert SP.spectral_verdict(*halves) == expected, halves


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
    step, seeds = SP._seed_keys(sys_fib, refs, sys_fib.window(48),
                                SP.DEFAULT_NODE_CAP)

    def closure(seed_keys):
        classes = dict(seeds)
        queue = list(seed_keys)
        while queue:
            key = queue.pop(0)
            for child in step.successors(key):
                if child not in classes:
                    classes[child] = None
                    queue.append(child)
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
    FieldElem.sign() on a newly formed element, as (moved, anchor, shift)
    keys to the shift, first seen first."""
    tiles = exact_tiles(patch)
    lengths = length_elements(system)
    out = {}
    anchor_idx = 0
    n = len(tiles)
    for pos, moved_color in tiles:
        start = pos - y
        end = start + lengths[moved_color - 1]
        while anchor_idx < n:
            a_pos, a_color = tiles[anchor_idx]
            a_end = a_pos + lengths[a_color - 1]
            if (a_end - start).sign() <= 0:
                anchor_idx += 1
            else:
                break
        idx = anchor_idx
        while idx < n:
            a_pos, a_color = tiles[idx]
            if (a_pos - end).sign() >= 0:
                break
            shift = start - a_pos
            out.setdefault((moved_color, a_color, shift.coords), shift)
            idx += 1
    return out


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
    # in the order _seed_keys sweeps them
    returns = {d.coords: d
               for pts in fieldelem_point_sets(patch, refs, window)
               for d in fieldelem_differences(pts) if not d.is_zero()}
    bounds = [position(patch, k) for k in range(len(patch) + 1)]
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
    kind = data.draw(st.sampled_from(["return", "boundary", "near-boundary"]))
    if kind == "return":
        y = data.draw(st.sampled_from(returns))
    else:
        # moves one tile boundary exactly onto another, or next to it by
        # +-beta^-k, a small value with large coordinates
        a = data.draw(st.sampled_from(bounds))
        b = data.draw(st.sampled_from(bounds))
        y = a - b
        if kind == "near-boundary":
            k = data.draw(st.integers(4, 24))
            y = y + data.draw(st.sampled_from([1, -1])) * \
                power(system.field.beta(), -k)
    # the sweep takes translations over the patch's denominator only
    assume(patch.denom % algebraic.common_denominator(y.coords) == 0)
    assert sweep_translation(patch, y) == list(_fieldelem_sweep(system,
                                                                patch, y))


def _fieldelem_overlaps(system, moved, anchor, shift):
    """Reference: -len_moved < shift < len_anchor by FieldElem signs."""
    lengths = length_elements(system)
    return ((shift + lengths[moved - 1]).sign() > 0 and
            (lengths[anchor - 1] - shift).sign() > 0)


def _fieldelem_seeds(system, refs, window):
    """Reference: the FieldElem sweep of every nonzero same-color return
    vector in the order `return_vectors` finds them, each class checked
    by FieldElem signs."""
    patch = system.patch_covering(*window)
    returns = {d.coords: d
               for pts in fieldelem_point_sets(patch, refs, window)
               for d in fieldelem_differences(pts) if not d.is_zero()}
    classes = {}
    for y in returns.values():
        for key, shift in _fieldelem_sweep(system, patch, y).items():
            classes.setdefault(key, shift)
    assert all(_fieldelem_overlaps(system, m, a, shift)
               for (m, a, _), shift in classes.items())
    return list(classes)


def _fieldelem_inflate(system, moved, anchor, shift):
    """Reference: one inflation step in FieldElem arithmetic, as
    (moved, anchor, shift coordinates)."""
    base = system.field.beta() * shift
    offsets = subtile_offset_elements(system)
    out = []
    for mc, m_off in zip(system.sub.rule(moved), offsets[moved - 1]):
        for ac, a_off in zip(system.sub.rule(anchor), offsets[anchor - 1]):
            child = base + m_off - a_off
            if _fieldelem_overlaps(system, mc, ac, child):
                out.append((mc, ac, child.coords))
    return out


def _seed_classes(system, refs, window):
    """`_seed_keys` as `key_coords`."""
    step, seeds = SP._seed_keys(system, refs, window, SP.DEFAULT_NODE_CAP)
    return key_coords(seeds, step.denom)


@pytest.mark.parametrize("name", ["fibonacci", "fib2", "rauzy2-gamma",
                                  "aba-gamma", "a->ab,b->aab"])
def test_seed_keys_match_fieldelem_sweep(name):
    # same seeds in the same order, after the same interval refinements,
    # each side from a fresh system; the FieldElem reference takes 1.6 s
    # on a->ab, b->aab at window 64
    size = 32 if name in EXTRA_SYSTEMS else 64

    def seeds(seeder):
        system, refs = _system_and_refs(name)
        window = system.window(size)
        before = system.field.generation
        classes = seeder(system, refs, window)
        return classes, system.field.generation - before

    assert seeds(_seed_classes) == seeds(_fieldelem_seeds)


@pytest.mark.parametrize("name", ["fibonacci", "rauzy"])
def test_window_sample_makes_no_field_element_per_tile(monkeypatch, name):
    # the lattices and the overlap seeds of a window, covering patch
    # included, are built on integer vectors: a window of 128 makes as
    # many FieldElems as one of 16, none
    elems = []
    init = algebraic.FieldElem.__init__

    def counted(sample, size):
        system, refs = _system_and_refs(name)
        window = system.window(size)
        before = len(elems)
        sample(system, refs, size, window)
        return len(elems) - before

    monkeypatch.setattr(
        algebraic.FieldElem, "__init__",
        lambda self, field, coords: elems.append(1) or
        init(self, field, coords))
    for sample in (lambda system, refs, size, _:
                   L.return_lattices(system, refs, size),
                   lambda system, refs, _, window:
                   SP._seed_keys(system, refs, window,
                                 SP.DEFAULT_NODE_CAP)):
        assert counted(sample, 16) == counted(sample, 128) == 0


_INFLATION_SETTINGS = {}


def _inflation_setting(name):
    """A shared system and its seed classes at window 16."""
    if name not in _INFLATION_SETTINGS:
        system, refs = _system_and_refs(name)
        seeds = [(m, a, system.field.element(shift)) for m, a, shift in
                 _seed_classes(system, refs, system.window(16))]
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
        moved, anchor, shift = data.draw(st.sampled_from(seeds))
        k = data.draw(st.integers(0, 8))
        r = data.draw(st.integers(-2, 2))
        shift = shift + Fraction(r, q) * power(system.field.beta(), -k)
    else:
        coords = data.draw(st.lists(st.integers(-4, 4), min_size=field.degree,
                                    max_size=field.degree))
        letters = st.integers(1, system.size)
        moved, anchor = data.draw(letters), data.draw(letters)
        shift = field.element([Fraction(a, q) for a in coords])
    assert successors(system, moved, anchor, shift) == \
        _fieldelem_inflate(system, moved, anchor, shift)


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
            for m, a, shift in _seed_classes(system, refs,
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


def test_node_cap_bounds_overlap_seeding():
    # a non-Pisot input whose window-16 patch has 161,502 tiles and 7,487
    # seed classes: the sweep stops at the cap instead of seeding them all
    spec = cli.parse_spec("letters a b c d\nrule a = d\nrule b = a d\n"
                          "rule c = b b b a\nrule d = c c b c\n", name="abcd")
    system = S.SuspensionSystem(spec.substitution())
    half = SP.overlap_coincidence(system, S.left_endpoint_points(system),
                                  system.window(16), node_cap=50)
    assert half.status == "UNKNOWN"
    assert half.bound_hit == "node cap 50"
    assert half.certificate["nodes_seen"] <= 60


@pytest.mark.parametrize("name", ["nonpisot", "plastic"])
def test_kept_pair_enclosures_inflate_as_fresh_ones(monkeypatch, name):
    # subtile-pair enclosures kept at the scale of their first use give
    # the children of enclosures taken afresh in every generation, after
    # the same refinements, along every inflation of one analysis (the
    # closure and the shared-tile walks), each side on a fresh system
    spec = cli.parse_spec((SPECS / f"{name}.spec").read_text(encoding="utf-8"),
                          name=name)

    def analysis(inflate):
        calls = []

        def recorded(step, key):
            out = inflate(step, key)
            calls.append((key, out, step.field.generation))
            return out

        monkeypatch.setattr(SP._Inflation, "children", recorded)
        report = cli.run_analysis(spec, overrides={"window": 16,
                                                   "node_cap": 2000})
        return calls, report

    kept_calls, kept_report = analysis(SP._Inflation.children)
    fresh_calls, fresh_report = analysis(ref_children)
    assert kept_calls == fresh_calls
    assert kept_report == fresh_report
    if name == "nonpisot":
        # the matched scale moves during the closure: 338 refinements
        assert kept_calls[-1][2] - kept_calls[0][2] > 300


def test_overlap_closure_builds_few_field_elements(monkeypatch):
    """Work guard: the overlap route runs on integer vectors, so the
    field elements made in `overlap_coincidence` on pentanacci are none."""
    system, refs = _system_and_refs("pentanacci")
    window = system.window(16)
    made = []
    init = algebraic.FieldElem.__init__
    monkeypatch.setattr(algebraic.FieldElem, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    half = SP.overlap_coincidence(system, refs, window, node_cap=2000)
    assert half.status == "HOLDS"
    assert made == []


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
    where the letter counts differ stay under 5% of the true cuts.  The
    runs take the breadth-first `ref_pair_closure`, which cuts every pair
    of the first levels; the longest-first closure makes too few cuts on
    fib2 to measure the rate."""
    confirmed = []
    balanced_at = CountGap.balanced_at

    def counting(self, t):
        confirmed.append(balanced_at(self, t))
        return confirmed[-1]

    monkeypatch.setattr(CountGap, "balanced_at", counting)
    monkeypatch.setattr(SP, "_pair_closure", ref_pair_closure)
    for sub in (fib2, rauzy2):
        confirmed.clear()
        SP.balanced_pairs(sub)
        cuts = sum(confirmed)
        assert cuts > 100
        assert len(confirmed) - cuts <= 0.05 * cuts
