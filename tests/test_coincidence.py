import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from subtiling import algebraic, cli
from subtiling import coincidence as C
from subtiling import suspension as S
from subtiling import words as W

from conftest import (CORPUS_IDS, WALK_BASE, elements, false_zero_pairs,
                      length_elements, power, swap_commuting_substitution)


def test_prefix_strong_fibonacci(fib):
    per_pair = C.prefix_strong(fib)
    v = per_pair[(1, 2)]
    assert v.status == "HOLDS"
    assert v.witness.level == 1
    assert v.witness.color == 1
    assert v.witness.prefix_lengths == (0, 0)
    assert {v.status for v in per_pair.values()} == {"HOLDS"}


def test_prefix_strong_aba_fails_by_involution(aba):
    per_pair = C.prefix_strong(aba)
    v = per_pair[(1, 2)]
    assert v.status == "FAILS"
    assert v.certificate["involution"] == {1: 2, 2: 1}
    suffix = C.prefix_strong(aba, suffixes=True)
    assert suffix[(1, 2)].status == "FAILS"


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
    res = C.geometric_strong(sys_fib, S.left_endpoint_points(sys_fib))
    v = res[(1, 1)]
    assert v.status == "HOLDS" and v.witness.level == 0
    assert not any(v.witness.shift)


def test_geometric_aba_gamma(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    res = C.geometric_strong(sys_aba, refs)
    v = res[(1, 2)]
    assert v.status == "HOLDS"
    assert v.witness.level == 1
    assert v.witness.color == 2          # the shared tile is a b-tile
    assert not any(v.witness.shift)      # sitting at the origin


def test_geometric_fib2_unknown(sys_fib2):
    res = C.geometric_strong(sys_fib2, S.left_endpoint_points(sys_fib2))
    assert res[(1, 3)].status == "UNKNOWN"
    assert res[(1, 3)].bound == 12
    assert res[(2, 4)].status == "UNKNOWN"


def test_geometric_monotone_in_level(sys_fib, sys_aba):
    # a coincidence found at level L persists at level L+1
    cases = [
        (sys_fib, S.left_endpoint_points(sys_fib)),
        (sys_aba, S.control_points(sys_aba, (2, 1))),
    ]
    for system, refs in cases:
        res = C.geometric_strong(system, refs)
        for (i, j), verdict in res.items():
            if i == j or verdict.status != "HOLDS":
                continue
            nxt = verdict.witness.level + 1
            assert _shared_tile(system, refs, (i, j), nxt) is not None


def test_simultaneous_two_letters_matches_pairwise(sys_fib, sys_tm):
    for system in (sys_fib, sys_tm):
        refs = S.left_endpoint_points(system)
        sim = C.simultaneous(system, refs)
        pair = C.geometric_strong(system, refs)[(1, 2)]
        assert (sim.status == "HOLDS") == (pair.status == "HOLDS")
        if sim.status == "HOLDS":
            assert sim.witness.level == pair.witness.level


def test_simultaneous_thue_morse_unknown(sys_tm):
    res = C.simultaneous(sys_tm, S.left_endpoint_points(sys_tm))
    assert res.status == "UNKNOWN"
    assert res.bound == 12


def test_simultaneous_rauzy2_gamma(sys_rauzy2):
    refs = S.control_points(sys_rauzy2, (2, 2, 1, 1, 1, 1))
    assert S.is_admissible(sys_rauzy2, refs)
    res = C.simultaneous(sys_rauzy2, refs)
    assert res.status == "HOLDS"
    assert res.witness.level <= 12
    assert res.witness.replay_level % sys_rauzy2.seed[0] == 0


def test_verify_witness_simultaneous(sys_fib, sys_rauzy2):
    refs = S.left_endpoint_points(sys_fib)
    w = C.simultaneous(sys_fib, refs).witness
    assert C.verify_witness(sys_fib, refs, w)

    refs2 = S.control_points(sys_rauzy2, (2, 2, 1, 1, 1, 1))
    w2 = C.simultaneous(sys_rauzy2, refs2).witness
    assert C.verify_witness(sys_rauzy2, refs2, w2)


def test_verify_witness_hand_built_aba(sys_aba):
    # with reference points (1/3, 0) the shared tile is the b-tile at 0
    refs = S.control_points(sys_aba, (2, 1))
    witness = C.CoincidenceWitness(
        level=1, color=2, shift=(0,), scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=(0,),
    )
    assert C.verify_witness(sys_aba, refs, witness)


def test_verify_witness_rejects_corruption(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    corrupted = C.CoincidenceWitness(
        level=1, color=2, shift=(1,), scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=(1,),
    )
    assert not C.verify_witness(sys_aba, refs, corrupted)


def test_verify_witness_checks_each_scope_letter(sys_fib):
    # sigma(a) = ab and sigma(b) = a: the b-tile at phi belongs to the
    # inflated a-prototile only, so the claim holds for scope (a, a) and
    # fails for (a, b); the replay claim is the true shared a-tile at 0
    assert sys_fib.seed[0] == 2

    def witness(scope):
        return C.CoincidenceWitness(
            level=1, color=2, shift=(0, 1), scope=scope,
            replay_level=2, replay_color=1, replay_shift=(0, 0))

    refs = S.left_endpoint_points(sys_fib)
    assert C.verify_witness(sys_fib, refs, witness((1, 1)))
    assert not C.verify_witness(sys_fib, refs, witness((1, 2)))
    assert not C.verify_witness(sys_fib, refs, witness((2, 2)))


def test_prefix_simultaneous_minima(fib, rauzy, fib2):
    v = C.prefix_simultaneous(fib)
    assert v.status == "HOLDS"
    assert (v.witness["level"], v.witness["prefix_length"]) == (1, 1)
    v = C.prefix_simultaneous(rauzy)
    assert v.status == "HOLDS"
    assert (v.witness["level"], v.witness["prefix_length"]) == (1, 1)
    assert C.prefix_simultaneous(fib2).status == "UNKNOWN"


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
            hit = C._balanced_prefix_search(sub, tuple(letters), 6)
            assert hit == C.BoundedVerdict("UNKNOWN", bound=6), (sub, letters)


def test_prefix_simultaneous_under_an_involution_builds_no_word():
    for name in ("aba-left", "thue-morse", "fib2"):
        sub = cli.corpus_lookup(name).substitution()
        assert C.prefix_simultaneous(sub) == \
            C.BoundedVerdict("UNKNOWN", bound=C.DEFAULT_LEVEL_BOUND)
        assert sub._iterate_cache == {}, name


def test_aba_left_prefix_simultaneous_at_level_16():
    # the search used to run into the word cap at |sigma^15(a)| = 3^15
    report = cli.run_analysis(cli.corpus_lookup("aba-left"),
                              {"level_bound": 16})
    assert report["checks"]["prefix_simultaneous"] == \
        {"status": "UNKNOWN", "bound": 16}


# -- the word cap ends a balanced-prefix search in UNKNOWN -------------------

PERIOD_DOUBLING = "letters a b\nrule a = a b\nrule b = a a\n"


def test_balanced_prefix_search_stops_below_the_word_cap(monkeypatch):
    # reversed period doubling, a -> b a, b -> a a: the last letters of
    # sigma^L(a) and sigma^L(b) differ at every level, so no level holds
    # a shared letter and the search runs until |sigma^L| = 2^L > cap
    sub = cli.parse_spec(PERIOD_DOUBLING).substitution().reversed()
    monkeypatch.setattr(W, "DEFAULT_WORD_CAP", 1000)
    want = C.BoundedVerdict("UNKNOWN", bound=9, bound_hit="word cap 1000")
    assert C.prefix_strong(sub)[(1, 2)] == want
    assert C.prefix_simultaneous(sub) == want
    assert max(map(len, sub._iterate_cache.values())) == 512
    assert C.prefix_simultaneous(sub, 9) == C.BoundedVerdict("UNKNOWN",
                                                             bound=9)


def test_period_doubling_suffixes_at_level_24_keep_their_pairs():
    # |sigma^24(a)| = 2^24 passes the word cap: the suffix check used to
    # be one error, and its two decided pairs were lost with it
    spec = cli.parse_spec(PERIOD_DOUBLING, name="period-doubling")
    report = cli.run_analysis(spec, {"level_bound": 24})
    suffix = report["checks"]["suffix_strong"]
    assert suffix["pairs"]["a|b"] == {
        "status": "UNKNOWN", "bound": 23,
        "bound_hit": f"word cap {W.DEFAULT_WORD_CAP}"}
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
            assert w.prefix_lengths == (t, t)
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


def _reference_search(system, refs, letters,
                      level_bound=C.DEFAULT_LEVEL_BOUND):
    """Reference: (status, bound, claim, replay claim) by laying out the
    inflated prototiles level by level and intersecting them."""
    top = 0
    while top < level_bound and all(
            len(system.sub.iterate(c, top + 1)) <= C.SUPERTILE_CAP
            for c in letters):
        top += 1
    k = system.seed[0]
    for level in range(1, top + 1):
        claim = _shared_tile(system, refs, letters, level)
        if claim is not None:
            replay = _shared_tile(system, refs, letters,
                                  k * -(-level // k))
            return "HOLDS", None, claim, replay
    return "UNKNOWN", top, None, None


def _walk_result(verdict):
    w = verdict.witness
    if w is None:
        return verdict.status, verdict.bound, None, None
    return (verdict.status, verdict.bound,
            (w.level, w.color, tuple(Fraction(a, w.denom) for a in w.shift)),
            (w.replay_level, w.replay_color,
             tuple(Fraction(a, w.denom) for a in w.replay_shift)))


@pytest.mark.parametrize("name", WALK_INPUTS)
def test_walk_matches_brute_force_layout(name):
    spec = _walk_input(name)
    system = S.SuspensionSystem(spec.substitution())
    refs = (S.left_endpoint_points(system) if spec.tilemap is None
            else S.control_points(system, spec.tilemap))
    m = system.size
    pairs = C.geometric_strong(system, refs)
    for (i, j), verdict in pairs.items():
        if i != j:
            assert _walk_result(verdict) == \
                _reference_search(system, refs, (i, j)), (i, j)
    letters = tuple(range(1, m + 1))
    assert _walk_result(C.simultaneous(system, refs)) == \
        _reference_search(system, refs, letters)


# -- a deterministic work guard for the shared-tile search -------------------

# period doubling with the tile map a -> b, b -> a: control points 2/3 and
# 1/3, no shared tile up to the level bound, so every level is walked
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
        outcomes.append(C.simultaneous(system, refs).status)
        outcomes.extend(v.status
                        for v in C.geometric_strong(system, refs).values())
    assert outcomes.count("UNKNOWN") == 4
    assert patches == []
    assert elems == []
