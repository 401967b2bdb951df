from fractions import Fraction

from subtiling import coincidence as C
from subtiling import suspension as S


def test_prefix_strong_fibonacci(fib):
    per_pair = C.prefix_strong(fib)
    v = per_pair[(1, 2)]
    assert v.status == "HOLDS"
    assert v.witness.level == 1
    assert v.witness.color == 1
    assert v.witness.prefix_lengths == (0, 0)
    assert C.aggregate_status(per_pair) == "HOLDS"


def test_prefix_strong_aba_fails_by_involution(aba):
    per_pair = C.prefix_strong(aba)
    v = per_pair[(1, 2)]
    assert v.status == "FAILS"
    assert v.certificate["involution"] == {1: 2, 2: 1}
    assert C.aggregate_status(per_pair) == "FAILS"
    suffix = C.prefix_strong(aba, suffixes=True)
    assert C.aggregate_status(suffix) == "FAILS"


def test_prefix_strong_fib2(fib2):
    per_pair = C.prefix_strong(fib2)
    assert per_pair[(1, 3)].status == "FAILS"
    assert per_pair[(2, 4)].status == "FAILS"
    assert per_pair[(1, 2)].status == "HOLDS"   # images share the letter a
    assert C.aggregate_status(per_pair) == "FAILS"
    assert C.aggregate_status(C.prefix_strong(fib2, suffixes=True)) == "FAILS"


def test_prefix_strong_thue_morse(tm):
    per_pair = C.prefix_strong(tm)
    assert per_pair[(1, 2)].status == "FAILS"


def test_geometric_identity_pairs(sys_fib):
    res = C.geometric_strong(sys_fib, S.left_endpoint_points(sys_fib))
    v = res[(1, 1)]
    assert v.status == "HOLDS" and v.witness.level == 0
    assert v.witness.shift.is_zero()


def test_geometric_aba_gamma(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    res = C.geometric_strong(sys_aba, refs)
    v = res[(1, 2)]
    assert v.status == "HOLDS"
    assert v.witness.level == 1
    assert v.witness.color == 2          # the shared tile is a b-tile
    assert v.witness.shift.is_zero()     # sitting at the origin


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
        cache = C._SupertileCache(system, refs)
        for (i, j), verdict in res.items():
            if i == j or verdict.status != "HOLDS":
                continue
            nxt = verdict.witness.level + 1
            hit = C._common_tile(
                [cache.shifted_tiles(i, nxt), cache.shifted_tiles(j, nxt)]
            )
            assert hit is not None


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
    assert C.verify_witness(sys_fib, refs, w, sys_fib.window(64))

    refs2 = S.control_points(sys_rauzy2, (2, 2, 1, 1, 1, 1))
    w2 = C.simultaneous(sys_rauzy2, refs2).witness
    assert C.verify_witness(sys_rauzy2, refs2, w2, sys_rauzy2.window(64))


def test_verify_witness_hand_built_aba(sys_aba):
    # with reference points (1/3, 0) the shared tile is the b-tile at 0
    refs = S.control_points(sys_aba, (2, 1))
    zero = sys_aba.field.zero()
    witness = C.CoincidenceWitness(
        level=1, color=2, shift=zero, scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=zero,
    )
    assert C.verify_witness(sys_aba, refs, witness, sys_aba.window(64))


def test_verify_witness_rejects_corruption(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    one = sys_aba.field.one()
    corrupted = C.CoincidenceWitness(
        level=1, color=2, shift=one, scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=one,
    )
    assert not C.verify_witness(sys_aba, refs, corrupted, sys_aba.window(64))


def test_verify_witness_tiny_window_vacuous(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    one = sys_aba.field.one()
    corrupted = C.CoincidenceWitness(
        level=1, color=2, shift=one, scope=(1, 2),
        replay_level=1, replay_color=2, replay_shift=one,
    )
    # window holding no reference point of either scope color at all:
    # (1/3, 2/3) avoids both 2Z+4/3 and 2Z+1
    tiny = (Fraction(1, 3), Fraction(2, 3))
    assert C.verify_witness(sys_aba, refs, corrupted, tiny)


def test_prefix_simultaneous_minima(fib, rauzy, fib2):
    v = C.prefix_simultaneous(fib)
    assert v.status == "HOLDS"
    assert (v.witness["level"], v.witness["prefix_length"]) == (1, 1)
    v = C.prefix_simultaneous(rauzy)
    assert v.status == "HOLDS"
    assert (v.witness["level"], v.witness["prefix_length"]) == (1, 1)
    assert C.prefix_simultaneous(fib2).status == "UNKNOWN"


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
