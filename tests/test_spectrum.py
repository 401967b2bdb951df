from fractions import Fraction

import pytest

from subtiling import spectrum as SP
from subtiling import suspension as S
from subtiling.words import Substitution


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
