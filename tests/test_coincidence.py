import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from subtiling import algebraic, cli
from subtiling import coincidence as C
from subtiling import suspension as S
from subtiling import words as W

from conftest import (CORPUS_IDS, FOUR_LETTERS, WALK_BASE, elements,
                      false_zero_pairs, length_elements, power,
                      swap_commuting_substitution)
from golden_reports import NAMES as GOLDEN_NAMES

import make_fixtures
import workloads


def test_prefix_strong_fibonacci(fib):
    per_pair = C.prefix_strong(fib)
    v = per_pair[(1, 2)]
    assert v.status == "HOLDS"
    assert v.witness.level == 1
    assert v.witness.color == 1
    assert v.witness.prefix_length == 0
    assert {v.status for v in per_pair.values()} == {"HOLDS"}


def test_prefix_strong_aba_fails_by_involution(aba):
    per_pair = C.prefix_strong(aba)
    assert per_pair[(1, 2)] == C.BoundedVerdict(
        "FAILS", certificate={"involution": {1: 2, 2: 1}})
    suffix = C.prefix_strong(aba, suffixes=True)
    assert suffix[(1, 2)] == per_pair[(1, 2)]


def _sub_of(*rules):
    return W.Substitution([bytes(rule) for rule in rules])


def _cert(*images):
    """An involution certificate as JSON writes it: tau(x) = images[x-1]."""
    return {"involution": {str(x): y for x, y in enumerate(images, 1)}}


def test_involution_certificates_of_the_corpus_replay():
    for name in CORPUS_IDS:
        sub = cli.corpus_lookup(name).substitution()
        for suffixes in (False, True):
            for pair, v in C.prefix_strong(sub, suffixes=suffixes).items():
                if v.status == "FAILS":
                    assert C.replay_involution_certificate(
                        sub, v.certificate, pair), (name, pair)


# (why the certificate fails, substitution, certificate, pair); each case
# breaks one condition and keeps the others
INVOLUTION_CASES = {
    "missing-letter": (_sub_of([1, 2, 2, 1], [2, 1, 1, 2]),
                       {"involution": {"1": 2}}, (1, 2)),
    "extra-letter": (_sub_of([1, 2, 2, 1], [2, 1, 1, 2]),
                     {"involution": {"1": 2, "2": 1, "3": 3}}, (1, 2)),
    "not-an-object": (_sub_of([1, 2, 2, 1], [2, 1, 1, 2]),
                      {"involution": [2, 1]}, (1, 2)),
    "letter-out-of-range": (_sub_of([1, 2, 2, 1], [2, 1, 1, 2]),
                            _cert(2, 3), (1, 2)),
    "bool-letter": (_sub_of([1, 2, 2, 1], [2, 1, 1, 2]),
                    _cert(2, True), (1, 2)),
    # (1 2) commutes with 1 -> 13, 2 -> 23, 3 -> 33 but fixes 3
    "fixed-point": (_sub_of([1, 3], [2, 3], [3, 3]), _cert(2, 1, 3),
                    (1, 2)),
    # (1 2)(3 4 5 6) commutes with the rules and swaps 1 and 2, but
    # squares to (3 5)(4 6)
    "not-an-involution": (_sub_of([1, 2], [2, 1], [3, 5], [4, 6], [5, 3],
                                  [6, 4]),
                          _cert(2, 1, 4, 5, 6, 3), (1, 2)),
    # fibonacci: tau(sigma(1)) = 21 is not sigma(2) = 1
    "does-not-commute": (_sub_of([1, 2], [1]), _cert(2, 1), (1, 2)),
    # (1 3)(2 4) commutes with these rules, but 1|2 is not its pair
    "does-not-swap-the-pair": (_sub_of([1, 2, 4], [2, 3], [3, 4, 2],
                                       [4, 1]),
                               _cert(3, 4, 1, 2), (1, 2)),
}


@pytest.mark.parametrize("case", INVOLUTION_CASES)
def test_involution_certificate_fails_each_condition(case):
    sub, cert, pair = INVOLUTION_CASES[case]
    assert not C.replay_involution_certificate(sub, cert, pair)
    assert not C.replay_involution_certificate(sub, None, pair)


def test_involution_certificate_holds_once_its_defect_is_mended():
    # the cases differ from a valid certificate only in what they break
    assert C.replay_involution_certificate(
        _sub_of([1, 2, 2, 1], [2, 1, 1, 2]), _cert(2, 1), (1, 2))
    assert C.replay_involution_certificate(
        _sub_of([1, 2, 4], [2, 3], [3, 4, 2], [4, 1]), _cert(3, 4, 1, 2),
        (1, 3))
    assert C.replay_involution_certificate(
        _sub_of([1, 2], [2, 1], [3, 4], [4, 3]), _cert(2, 1, 4, 3), (1, 2))


def test_prefix_strong_fib2(fib2):
    per_pair = C.prefix_strong(fib2)
    assert per_pair[(1, 3)].status == "FAILS"
    assert per_pair[(2, 4)].status == "FAILS"
    assert per_pair[(1, 2)].status == "HOLDS"   # images share the letter a
    suffix = C.prefix_strong(fib2, suffixes=True)
    assert "FAILS" in {v.status for v in suffix.values()}


def test_prefix_strong_thue_morse(tm):
    per_pair = C.prefix_strong(tm)
    assert per_pair[(1, 2)].status == "FAILS"


def test_geometric_identity_pairs(sys_fib):
    res = C.geometric_strong(C.Walk(sys_fib,
                                    S.left_endpoint_points(sys_fib)))
    v = res[(1, 1)]
    assert v.status == "HOLDS" and v.witness.level == 0
    assert not any(v.witness.shift)


def test_geometric_aba_gamma(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    res = C.geometric_strong(C.Walk(sys_aba, refs))
    v = res[(1, 2)]
    assert v.status == "HOLDS"
    assert v.witness.level == 1
    assert v.witness.color == 2          # the shared tile is a b-tile
    assert not any(v.witness.shift)      # sitting at the origin


def test_geometric_fib2_fails(sys_fib2):
    # each lower-case letter against each capital: the walk closes on 4 or
    # 5 states with no shared tile, and the closed states replay
    refs = S.left_endpoint_points(sys_fib2)
    walk = C.Walk(sys_fib2, refs)
    res = C.geometric_strong(walk)
    for pair in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert res[pair].status == "FAILS", pair
        states = res[pair].certificate["closed_states"]
        assert len(states) == (4 if pair in ((1, 3), (2, 4)) else 5)
        assert C.replay_walk_certificate(walk, res[pair].certificate, pair)
    assert res[(1, 2)].status == "HOLDS"


def test_geometric_monotone_in_level(sys_fib, sys_aba):
    # a coincidence found at level L persists at level L+1
    cases = [
        (sys_fib, S.left_endpoint_points(sys_fib)),
        (sys_aba, S.control_points(sys_aba, (2, 1))),
    ]
    for system, refs in cases:
        res = C.geometric_strong(C.Walk(system, refs))
        for (i, j), verdict in res.items():
            if i == j or verdict.status != "HOLDS":
                continue
            nxt = verdict.witness.level + 1
            assert _shared_tile(system, refs, (i, j), nxt) is not None


def test_simultaneous_two_letters_matches_pairwise(sys_fib, sys_tm):
    for system in (sys_fib, sys_tm):
        refs = S.left_endpoint_points(system)
        walk = C.Walk(system, refs)
        sim = C.simultaneous(walk)
        pair = C.geometric_strong(walk)[(1, 2)]
        assert (sim.status == "HOLDS") == (pair.status == "HOLDS")
        if sim.status == "HOLDS":
            assert sim.witness.level == pair.witness.level


def test_simultaneous_thue_morse_fails(sys_tm):
    # the root and its swap: 0 at 0 over 1 at 0, then 1 over 0, and back
    refs = S.left_endpoint_points(sys_tm)
    walk = C.Walk(sys_tm, refs)
    res = C.simultaneous(walk)
    assert res.status == "FAILS"
    assert res.certificate == {"closed_states": [
        {"color": 1, "classes": [{"anchor": 2, "shift": ["0/1"]}]},
        {"color": 2, "classes": [{"anchor": 1, "shift": ["0/1"]}]}]}
    assert C.replay_walk_certificate(walk, res.certificate, (1, 2))


def test_simultaneous_rauzy2_gamma(sys_rauzy2):
    refs = S.control_points(sys_rauzy2, (2, 2, 1, 1, 1, 1))
    assert S.is_admissible(sys_rauzy2, refs)
    res = C.simultaneous(C.Walk(sys_rauzy2, refs))
    assert res.status == "HOLDS"
    assert res.witness.level <= 12
    assert res.witness.replay_level % sys_rauzy2.seed[0] == 0


def test_verify_witness_simultaneous(sys_fib, sys_rauzy2):
    refs = S.left_endpoint_points(sys_fib)
    walk = C.Walk(sys_fib, refs)
    assert C.verify_witness(walk, C.simultaneous(walk).witness)

    refs2 = S.control_points(sys_rauzy2, (2, 2, 1, 1, 1, 1))
    walk2 = C.Walk(sys_rauzy2, refs2)
    assert C.verify_witness(walk2, C.simultaneous(walk2).witness)


def test_verify_witness_hand_built_aba(sys_aba):
    # with reference points (1/3, 0) the shared tile is the b-tile at 0
    refs = S.control_points(sys_aba, (2, 1))
    witness = C.CoincidenceWitness(
        level=1, color=2, shift=(0,), scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=(0,),
    )
    assert C.verify_witness(C.Walk(sys_aba, refs), witness)


def test_verify_witness_rejects_corruption(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    corrupted = C.CoincidenceWitness(
        level=1, color=2, shift=(1,), scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=(1,),
    )
    assert not C.verify_witness(C.Walk(sys_aba, refs), corrupted)


def test_verify_witness_checks_each_scope_letter(sys_fib):
    # sigma(a) = ab and sigma(b) = a: the b-tile at phi belongs to the
    # inflated a-prototile only, so the claim holds for scope (a, a) and
    # fails for (a, b); the replay claim is the true shared a-tile at 0
    assert sys_fib.seed[0] == 2

    def witness(scope):
        return C.CoincidenceWitness(
            level=1, color=2, shift=(0, 1), scope=scope,
            replay_level=2, replay_color=1, replay_shift=(0, 0))

    walk = C.Walk(sys_fib, S.left_endpoint_points(sys_fib))
    assert C.verify_witness(walk, witness((1, 1)))
    assert not C.verify_witness(walk, witness((1, 2)))
    assert not C.verify_witness(walk, witness((2, 2)))


def test_prefix_simultaneous_minima(fib, rauzy, fib2):
    v = C.prefix_simultaneous(fib)
    assert v.status == "HOLDS"
    assert (v.witness["level"], v.witness["prefix_length"]) == (1, 1)
    v = C.prefix_simultaneous(rauzy)
    assert v.status == "HOLDS"
    assert (v.witness["level"], v.witness["prefix_length"]) == (1, 1)
    assert C.prefix_simultaneous(fib2) == C.BoundedVerdict(
        "FAILS", certificate={"involution": {1: 3, 2: 4, 3: 1, 4: 2}})


# -- the involution lemma: no level holds a shared letter ------------------


def _swap_searches():
    """(substitution, involution) for the corpus entries with a commuting
    fixed-point-free involution and seeded random substitutions commuting
    with a letter swap, m = 2 and 4."""
    cases = []
    for name in CORPUS_IDS:
        sub = cli.corpus_lookup(name).substitution()
        cases += [(sub, tau)
                  for tau in W.commuting_fixed_point_free_involutions(sub)]
    rng = random.Random(23)
    for tau in ({1: 2, 2: 1}, {1: 2, 2: 1, 3: 4, 4: 3},
                {1: 3, 3: 1, 2: 4, 4: 2}, {1: 4, 4: 1, 2: 3, 3: 2}):
        cases += [(swap_commuting_substitution(rng, tau), tau)
                  for _ in range(10)]
    return cases


def test_balanced_prefix_search_finds_nothing_under_an_involution():
    # the lemma behind prefix_simultaneous's early return, checked
    # against the search itself up to level 6
    cases = _swap_searches()
    assert len(cases) == 46
    for sub, tau in cases:
        m = sub.size
        for letters in (range(1, m + 1), *((c, tau[c]) for c in tau)):
            hit = C._word_claim(sub, tuple(letters), (), 6)
            assert hit == C.BoundedVerdict(
                "UNKNOWN", bound=6, bound_hit="level bound 6"), (sub, letters)


def test_word_claim_decides_a_diagonal_claim_with_no_word():
    for name in ("fibonacci", "rauzy2-left", "thue-morse"):
        sub = cli.corpus_lookup(name).substitution()
        involutions = W.commuting_fixed_point_free_involutions(sub)
        for i in range(1, sub.size + 1):
            assert C._word_claim(sub, (i, i), involutions, 12) == \
                C.BoundedVerdict("HOLDS", witness=C.PrefixWitness(
                    0, i, 0, (0,) * sub.size)), (name, i)
        assert sub._iterate_cache == {}, name


def test_prefix_simultaneous_under_an_involution_builds_no_word():
    for name in ("aba-left", "thue-morse", "fib2"):
        sub = cli.corpus_lookup(name).substitution()
        tau = W.commuting_fixed_point_free_involutions(sub)[0]
        assert C.prefix_simultaneous(sub) == C.BoundedVerdict(
            "FAILS", certificate={"involution": tau})
        assert C.replay_involution_certificate(
            sub, {"involution": tau}, range(1, sub.size + 1)), name
        assert sub._iterate_cache == {}, name


def test_aba_left_prefix_simultaneous_at_level_16():
    # the search used to run into the word cap at |sigma^15(a)| = 3^15;
    # the swap of a and b decides it at any level, with no word built
    report = cli.run_analysis(cli.corpus_lookup("aba-left"),
                              {"level_bound": 16})
    assert report["checks"]["prefix_simultaneous"] == \
        {"status": "FAILS", "certificate": {"involution": {1: 2, 2: 1}}}
    assert cli.verify_report(json.loads(json.dumps(report)))["passed"]


# -- the word cap ends a balanced-prefix search in UNKNOWN -------------------

PERIOD_DOUBLING = "letters a b\nrule a = a b\nrule b = a a\n"


def test_balanced_prefix_search_stops_below_the_word_cap(monkeypatch):
    # reversed period doubling, a -> b a, b -> a a: the last letters of
    # sigma^L(a) and sigma^L(b) differ at every level, so no level holds
    # a shared letter and the search runs until |sigma^L| = 2^L > cap
    sub = cli.parse_spec(PERIOD_DOUBLING).substitution().reversed()
    monkeypatch.setattr(W, "WORD_CAP", 1000)
    want = C.BoundedVerdict("UNKNOWN", bound=9, bound_hit="word cap 1000")
    assert C.prefix_strong(sub)[(1, 2)] == want
    assert C.prefix_simultaneous(sub) == want
    assert max(map(len, sub._iterate_cache.values())) == 512
    assert C.prefix_simultaneous(sub, 9) == C.BoundedVerdict(
        "UNKNOWN", bound=9, bound_hit="level bound 9")


def test_period_doubling_suffixes_at_level_24_keep_their_pairs():
    # |sigma^24(a)| = 2^24 passes the word cap: the suffix check used to
    # be one error, and its two decided pairs were lost with it
    spec = cli.parse_spec(PERIOD_DOUBLING, name="period-doubling")
    report = cli.run_analysis(spec, {"level_bound": 24})
    suffix = report["checks"]["suffix_strong"]
    assert suffix["pairs"]["a|b"] == {
        "status": "UNKNOWN", "bound": 23,
        "bound_hit": f"word cap {W.WORD_CAP}"}
    assert [suffix["pairs"][k]["status"] for k in ("a|a", "b|b")] == \
        ["HOLDS", "HOLDS"]
    assert suffix["aggregate"] == "UNKNOWN"
    assert cli.verify_report(report)["passed"]


def _prefixes_balanced(sub, level, length):
    words = [sub.iterate(c, level) for c in range(1, sub.size + 1)]
    if any(len(w) < length for w in words):
        return False
    from subtiling.words import abelianization
    counts = {abelianization(w[:length], sub.size) for w in words}
    finals = {w[length - 1] for w in words}
    return len(counts) == 1 and len(finals) == 1


def test_prefix_simultaneous_minimality_brute_force(fib, rauzy):
    # independent scan: no smaller (level, length) satisfies the condition
    for sub in (fib, rauzy):
        v = C.prefix_simultaneous(sub)
        lvl, ln = v.witness["level"], v.witness["prefix_length"]
        assert _prefixes_balanced(sub, lvl, ln)
        for level in range(1, lvl + 1):
            top = ln if level == lvl else 1 + max(
                len(sub.iterate(c, level)) for c in range(1, sub.size + 1)
            )
            for length in range(1, top):
                assert not _prefixes_balanced(sub, level, length)


def test_prefix_simultaneous_larger_witnesses_also_valid(fib, rauzy):
    # deeper iterates still carry balanced common prefixes
    assert _prefixes_balanced(fib, 2, 1)
    assert _prefixes_balanced(rauzy, 3, 4)


def _least_balanced_prefix_by_counts(word_list, m):
    """Reference: scan t upward, recounting every prefix letter by letter."""
    from subtiling.words import abelianization
    for t in range(min(map(len, word_list))):
        counts = {abelianization(w[:t], m) for w in word_list}
        letters = {w[t] for w in word_list}
        if len(counts) == 1 and len(letters) == 1:
            return t
    return None


def test_least_balanced_prefix_matches_counting_scan():
    import random
    rng = random.Random(31)
    for m in range(2, 7):
        for k in (2, 3, m):
            for _ in range(40):
                # a small alphabet in use makes matches likely
                used = rng.randint(2, m)
                word_list = [
                    bytes(rng.randint(1, used)
                          for _ in range(rng.randint(1, 30)))
                    for _ in range(k)]
                assert C._least_balanced_prefix(word_list, m) == \
                    _least_balanced_prefix_by_counts(word_list, m)


@pytest.mark.parametrize("m", sorted(WALK_BASE))
def test_least_balanced_prefix_past_false_walk_zeros(m):
    # the pairs of the balanced-cut tests, as pairs, as triples and cut
    # to different lengths
    pairs = false_zero_pairs(m)
    for (u, v), (w, _) in zip(pairs, pairs[1:] + pairs[:1]):
        for word_list in ((u, v), (v, u), (u, v, w), (u, v[:-3], v + u)):
            assert C._least_balanced_prefix(word_list, m) == \
                _least_balanced_prefix_by_counts(word_list, m)


def test_prefix_witnesses_match_counting_scan(fib, rauzy, fib2, rauzy2):
    from subtiling.words import abelianization
    for sub in (fib, rauzy, fib2, rauzy2):
        m = sub.size
        for (i, j), verdict in C.prefix_strong(sub, 8).items():
            if verdict.status != "HOLDS" or i == j:
                continue
            w = verdict.witness
            u, v = sub.iterate(i, w.level), sub.iterate(j, w.level)
            t = _least_balanced_prefix_by_counts((u, v), m)
            assert w.prefix_length == t
            assert (w.color, w.counts) == (u[t], abelianization(u[:t], m))


# -- the shared-tile walk against a brute-force layout ----------------------

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"
# the beta-substitutions a_i -> a_1^(k_i) a_(i+1), a_m -> a_1^(k_m)
BETA_KS = ((2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 1))
WALK_INPUTS = (list(CORPUS_IDS)
               + [p.stem for p in sorted(SPECS.glob("*.spec"))]
               + ["beta-" + "".join(map(str, ks)) for ks in BETA_KS])


def _walk_input(name):
    if name in CORPUS_IDS:
        return cli.corpus_lookup(name)
    if name.startswith("beta-"):
        ks = [int(k) for k in name[len("beta-"):]]
        letters = "abcdefgh"[:len(ks)]
        text = "letters " + " ".join(letters) + "\n" + "".join(
            f"rule {c} = " + " ".join(letters[0] * k + letters[i + 1:i + 2])
            + "\n" for i, (c, k) in enumerate(zip(letters, ks)))
        return cli.parse_spec(text, name=name)
    return cli.parse_spec((SPECS / f"{name}.spec").read_text(), name=name)


def _layout(system, refs, letter, level):
    """Reference: the tiles of sigma^level(letter) laid from
    -beta^level c_letter, as (D * start, color) over one denominator D."""
    refs = elements(system.field, *refs)
    length_elems = length_elements(system)
    values = [x for v in (*length_elems, *refs) for x in v.coords]
    denom = math.lcm(*(Fraction(x).denominator for x in values))

    def ints(v):
        return [int(Fraction(x) * denom) for x in v.coords]

    lengths = [ints(v) for v in length_elems]
    start = ints(power(system.field.beta(), level) * refs[letter - 1])
    word = system.sub.iterate(letter, level)
    # per coordinate, the steps indexed by letter
    steps = [(0, *column) for column in zip(*lengths)]
    columns = [itertools.accumulate(map(step.__getitem__, word), initial=-s)
               for step, s in zip(steps, start)]
    return denom, list(zip(zip(*columns), word))


def _shared_tile(system, refs, letters, level):
    """Reference: the first tile of the first letter's layout that every
    other letter's layout holds, as (level, color, shift), or None."""
    (denom, first), *rest = (_layout(system, refs, c, level)
                             for c in letters)
    common = set.intersection(*(set(tiles) for _, tiles in rest))
    hit = next((tile for tile in first if tile in common), None)
    if hit is None:
        return None
    start, color = hit
    ref = elements(system.field, *refs)[color - 1]
    shift = tuple(Fraction(a, denom) + Fraction(c)
                  for a, c in zip(start, ref.coords))
    return level, color, shift


def _reference_search(system, refs, letters, top):
    """Reference: the least level <= top at which the laid-out inflated
    prototiles share a tile, as (claim, replay claim), or None."""
    k = system.seed[0]
    for level in range(1, top + 1):
        claim = _shared_tile(system, refs, letters, level)
        if claim is not None:
            return claim, _shared_tile(system, refs, letters,
                                       k * -(-level // k))
    return None


def _walk_result(witness):
    return ((witness.level, witness.color,
             tuple(Fraction(a, witness.denom) for a in witness.shift)),
            (witness.replay_level, witness.replay_color,
             tuple(Fraction(a, witness.denom) for a in witness.replay_shift)))


@pytest.mark.parametrize("name", WALK_INPUTS)
def test_walk_matches_brute_force_layout(name):
    # a HOLDS is the layout's least shared tile; the layout holds none up
    # to L for a FAILS, whose certificate replays, and none up to its
    # bound for an UNKNOWN
    spec = _walk_input(name)
    system = S.SuspensionSystem(spec.substitution())
    refs = (S.left_endpoint_points(system) if spec.tilemap is None
            else S.control_points(system, spec.tilemap))
    top = C.DEFAULT_LEVEL_BOUND
    # on two letters the simultaneous claim is the pair's: lay it out once
    reference = functools.cache(
        lambda letters, top: _reference_search(system, refs, letters, top))
    walk = C.Walk(system, refs)
    claims = [(pair, verdict)
              for pair, verdict in C.geometric_strong(walk).items()
              if pair[0] != pair[1]]
    claims.append((tuple(range(1, system.size + 1)),
                   C.simultaneous(walk)))
    for letters, verdict in claims:
        if verdict.status == "HOLDS":
            assert _walk_result(verdict.witness) == \
                reference(letters, top), letters
        elif verdict.status == "FAILS":
            assert C.replay_walk_certificate(walk, verdict.certificate,
                                             letters)
            assert reference(letters, top) is None, letters
        else:
            assert reference(letters, verdict.bound) is None, letters


# -- a deterministic work guard for the shared-tile search -------------------

# period doubling with the tile map a -> b, b -> a: control points 2/3 and
# 1/3, and no shared tile at any level: the walks close and FAIL
PERIOD_DOUBLING_GAMMA = ("letters a b\nrule a = a b\nrule b = a a\n"
                         "tilemap a -> 2\ntilemap b -> 1\n")


def test_shared_tile_search_builds_no_patch(monkeypatch):
    # the searches walk overlap classes on integer vectors, and witness
    # shifts stay integer vectors: no patch and no FieldElem is built
    settings = []
    for spec in (cli.corpus_lookup("thue-morse"),
                 cli.corpus_lookup("aba-gamma"),
                 cli.parse_spec(PERIOD_DOUBLING_GAMMA)):
        system = S.SuspensionSystem(spec.substitution())
        settings.append((system, S.left_endpoint_points(system)
                         if spec.tilemap is None
                         else S.control_points(system, spec.tilemap)))
    elems, patches = [], []
    init = algebraic.FieldElem.__init__
    patch_init = S.Patch.__init__
    monkeypatch.setattr(
        algebraic.FieldElem, "__init__",
        lambda self, field, coords: elems.append(1) or
        init(self, field, coords))
    monkeypatch.setattr(
        S.Patch, "__init__",
        lambda self, *args: patches.append(1) or patch_init(self, *args))
    outcomes = []
    for system, refs in settings:
        walk = C.Walk(system, refs)
        claims = [((1, 2), C.simultaneous(walk)),
                  *C.geometric_strong(walk).items()]
        outcomes.extend(verdict.status for _, verdict in claims)
        # the FAILS certificates replay on the same walk
        assert all(C.replay_walk_certificate(walk, v.certificate, p)
                   for p, v in claims if v.status == "FAILS")
    assert outcomes.count("FAILS") == 4
    assert outcomes.count("HOLDS") == 8
    assert patches == []
    assert elems == []


# -- the node cap ends the walks of two former runaway inputs ----------------

# beta is not Pisot (x^4 - x^3 - 9x^2 - 2x - 2) and the seed power is 10:
# pairs that share a tile at levels 1-4 walk on to level 10 to replay it
RUNAWAY_SIX_LETTERS = (
    "letters a b c d e f\nrule a = f f\nrule b = e c b c\n"
    "rule c = d b d f\nrule d = c c b e\nrule e = d a b b\nrule f = d\n"
    "tilemap a -> 1\ntilemap b -> 3\ntilemap c -> 2\ntilemap d -> 1\n"
    "tilemap e -> 1\ntilemap f -> 1\n")


@pytest.mark.parametrize("text, level_bound, node_cap, holds", [
    (RUNAWAY_SIX_LETTERS, 6, 500, 7), (FOUR_LETTERS, 12, 2000, 4)])
def test_runaway_walks_end_at_the_node_cap(text, level_bound, node_cap,
                                           holds):
    spec = cli.parse_spec(text)
    system = S.SuspensionSystem(spec.substitution())
    refs = (S.left_endpoint_points(system) if spec.tilemap is None
            else S.control_points(system, spec.tilemap))
    started = time.monotonic()
    walk = C.Walk(system, refs)
    verdicts = [*C.geometric_strong(walk, level_bound, node_cap).values(),
                C.simultaneous(walk, level_bound, node_cap)]
    assert time.monotonic() - started < 1
    held = [v for v in verdicts if v.status == "HOLDS"]
    assert len(held) == holds
    assert all(C.verify_witness(walk, v.witness) for v in held)
    assert {(v.status, v.bound_hit) for v in verdicts
            if v.status != "HOLDS"} == {("UNKNOWN", f"node cap {node_cap}")}


def _analysis_walk(monkeypatch, name):
    """The one walk of the analysis of a golden input, after it ran."""
    walks = []
    init = C.Walk.__init__
    monkeypatch.setattr(C.Walk, "__init__", lambda self, *args:
                        walks.append(self) or init(self, *args))
    workloads.run(make_fixtures.fixture_input(name))
    [walk] = walks
    return walk


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_a_one_class_state_inflates_to_its_successors(monkeypatch, name):
    # a walk state is the tuple of its classes: a state of one class
    # inflates to its successors as one-class states, in their order, for
    # every class whose children the analysis kept (those of the overlap
    # closure, where it ran, and of the shared-tile walks).  Two moved
    # subtiles can give one class (on aba-left, a over b from the first
    # and the last subtile): the successors list it once, at its first
    # subtile, where the state keeps its first path
    walk = _analysis_walk(monkeypatch, name)
    assert walk._children
    for key in list(walk._children):
        succ = walk.successors(key)
        assert len(set(succ)) == len(succ)
        assert list(walk.inflate({(key,): ()})) == [(x,) for x in succ]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_a_state_inflates_to_products_of_kept_children(monkeypatch, name):
    # along the first four levels of the walk of all prototiles, each
    # child of a state of m - 1 classes is, for the one moved subtile on
    # its least path, a product of the children its classes keep for that
    # subtile, and every such product is a child
    walk = _analysis_walk(monkeypatch, name)
    m = walk.system.size
    states = {walk.root(tuple(range(1, m + 1))): ()}
    for _ in range(4):
        for state in states:
            assert len(state) == m - 1
            out = walk.inflate({state: ()})
            for child, (k,) in out.items():
                assert all(x in walk.children(c)[k]
                           for x, c in zip(child, state))
            assert set(out) == {combo for kids in zip(*map(
                walk.children, state)) for combo in itertools.product(*kids)}
        states = walk.inflate(states)
