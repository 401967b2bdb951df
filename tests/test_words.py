import random
import tracemalloc

import pytest

from subtiling import words as W
from subtiling.errors import InvalidWord, LengthCapExceeded

from conftest import WALK_BASE, false_zero_pairs


def test_abelianization():
    assert W.abelianization(b"", 2) == (0, 0)
    assert W.abelianization(bytes([1, 2, 1]), 2) == (2, 1)
    assert W.abelianization(bytes([1, 2, 2, 1]), 2) == (2, 2)
    with pytest.raises(InvalidWord):
        W.abelianization(bytes([3]), 2)


def test_substitution_validation():
    with pytest.raises(ValueError):
        W.Substitution([bytes([1])])                 # single letter
    with pytest.raises(ValueError):
        W.Substitution([bytes([1]), b""])            # empty rule
    with pytest.raises(InvalidWord):
        W.Substitution([bytes([1, 3]), bytes([1])])  # out of range


def test_substitution_matrix(tm, fib, aba):
    assert W.substitution_matrix(tm) == ((1, 1), (1, 1))
    assert W.substitution_matrix(fib) == ((1, 1), (1, 0))
    assert W.substitution_matrix(aba) == ((2, 1), (1, 2))
    # columns sum to rule lengths
    for sub in (tm, fib, aba):
        mat = W.substitution_matrix(sub)
        for j in range(sub.size):
            assert sum(mat[i][j] for i in range(sub.size)) == \
                len(sub.rule(j + 1))


def test_is_primitive(fib2):
    assert W.is_primitive(((1, 1), (1, 1)))
    assert not W.is_primitive(((1, 0), (0, 1)))
    assert not W.is_primitive(((0, 1), (1, 0)))      # permutation
    assert W.is_primitive(W.substitution_matrix(fib2))


def test_iterate(fib, tm, rauzy2):
    assert fib.iterate(1, 2) == bytes([1, 2, 1])
    assert tm.iterate(1, 2) == bytes([1, 2, 2, 1])
    assert rauzy2.iterate(1, 1) == bytes([1, 5])     # a -> a B
    assert fib.iterate(2, 0) == bytes([2])


def test_iterate_cap(fib):
    with pytest.raises(LengthCapExceeded):
        fib.iterate(1, 40, cap=100)
    # cap applies to the requested word, smaller powers still fine
    assert len(fib.iterate(1, 8, cap=100)) <= 100


def test_image_length_matches_matrix_powers(fib, tm, rauzy):
    for sub in (fib, tm, rauzy):
        mat = W.substitution_matrix(sub)
        m = sub.size
        power = [[int(i == j) for j in range(m)] for i in range(m)]
        for n in range(0, 7):
            for a in range(1, m + 1):
                col_sum = sum(power[i][a - 1] for i in range(m))
                assert sub.image_length(a, n) == col_sum
                assert len(sub.iterate(a, n)) == col_sum
            power = [[sum(mat[i][t] * power[t][j] for t in range(m))
                      for j in range(m)] for i in range(m)]


def test_abelianization_intertwines(fib, tm, aba, rauzy):
    rng = random.Random(5)
    for sub in (fib, tm, aba, rauzy):
        mat = W.substitution_matrix(sub)
        m = sub.size
        for _ in range(20):
            word = bytes(rng.randint(1, m) for _ in range(rng.randint(0, 12)))
            before = W.abelianization(word, m)
            after = W.abelianization(sub.apply(word), m)
            expected = tuple(
                sum(mat[i][j] * before[j] for j in range(m)) for i in range(m)
            )
            assert after == expected


def test_iterate_composition(fib, rauzy):
    for sub in (fib, rauzy):
        for a in range(1, sub.size + 1):
            for p in range(0, 4):
                for q in range(0, 4):
                    direct = sub.iterate(a, p + q)
                    stepped = b"".join(
                        sub.iterate(c, q) for c in sub.iterate(a, p)
                    )
                    assert direct == stepped


def test_fixed_point_seeds(fib, tm, aba, fib2, rauzy, rauzy2):
    assert W.fixed_point_seed(fib) == (2, 1, 1)
    assert W.fixed_point_seed(tm) == (2, 1, 1)
    assert W.fixed_point_seed(aba) == (1, 1, 2)
    assert W.fixed_point_seed(fib2) == (4, 1, 1)
    assert W.fixed_point_seed(rauzy) == (3, 1, 1)
    assert W.fixed_point_seed(rauzy2) == (3, 1, 4)


def test_seed_is_consistent(fib, tm, aba, fib2, rauzy, rauzy2):
    for sub in (fib, tm, aba, fib2, rauzy, rauzy2):
        k, left, right = W.fixed_point_seed(sub)
        assert sub.iterate(left, k).endswith(bytes([left]))
        assert sub.iterate(right, k).startswith(bytes([right]))
        assert bytes([left, right]) in W.legal_two_letter_words(sub)


def test_legal_factors_aba(aba):
    legal = W.legal_two_letter_words(aba)
    # the fixed points alternate, so equal neighbors never occur
    assert legal == {bytes([1, 2]), bytes([2, 1])}


def test_involutions(fib, aba, fib2, rauzy2):
    assert W.commuting_fixed_point_free_involutions(fib) == []
    assert W.commuting_fixed_point_free_involutions(aba) == [{1: 2, 2: 1}]
    assert W.commuting_fixed_point_free_involutions(fib2) == \
        [{1: 3, 3: 1, 2: 4, 4: 2}]
    assert W.commuting_fixed_point_free_involutions(rauzy2) == \
        [{1: 4, 4: 1, 2: 5, 5: 2, 3: 6, 6: 3}]


def test_apply_rejects_letters_outside_the_alphabet(fib):
    assert fib.apply(bytes([1, 2, 1])) == bytes([1, 2, 1, 1, 2])
    assert fib.apply(b"") == b""
    # 0, m + 1 and 255 used to raise IndexError or wrap to the last rule
    for word in (bytes([1, 3]), bytes([0]), bytes([2, 255])):
        with pytest.raises(InvalidWord):
            fib.apply(word)


def test_apply_matches_letter_by_letter_images():
    rng = random.Random(5)
    subs = []
    for m in range(2, 7):
        subs.append([bytes(rng.randint(1, m) for _ in range(rng.randint(1, 4)))
                     for _ in range(m)])
    # every rule length from 1 to 7, so that every column but the first
    # has pad bytes, and a constant-length substitution without any
    subs.append([bytes(rng.randint(1, 7) for _ in range(k))
                 for k in range(1, 8)])
    subs.append([bytes(rng.randint(1, 3) for _ in range(5)) for _ in range(3)])
    for rules in subs:
        m = len(rules)
        sub = W.Substitution(rules)
        # random words are mostly joined letter by letter; words over the
        # letters with at most one pad byte take the column path
        width = max(map(len, rules))
        long = [c for c in range(1, m + 1) if len(rules[c - 1]) >= width - 1]
        for letters in [range(1, m + 1)] * 20 + [long] * 20:
            word = bytes(rng.choice(letters) for _ in range(rng.randint(0, 30)))
            want = b"".join(rules[c - 1] for c in word)
            assert sub.apply(word) == want
            if want:
                with pytest.raises(LengthCapExceeded):
                    sub.apply(word, cap=len(want) - 1)
        # 0 is the pad byte of the column tables
        for bad in (0, m + 1, 255):
            with pytest.raises(InvalidWord):
                sub.apply(bytes([1, bad, 2]))


@pytest.mark.parametrize("width, letters", [
    pytest.param(16, 20_000, id="16"), pytest.param(1000, 20_000, id="1000"),
    pytest.param(5000, 20_000, id="5000"),
    pytest.param(16, 200_000, id="16-200000")])
def test_apply_memory_is_bounded_by_the_image_on_skewed_rules(width, letters):
    # a -> a b^(width-1), b -> a on a word of b's: a column buffer would
    # take |word| * width bytes, far above the cap, for an image of |word|
    sub = W.Substitution([bytes([1] + [2] * (width - 1)), b"\1"])
    word = b"\2" * letters + b"\1"
    want = b"\1" * letters + sub.rule(1)
    cap = 2 * len(want)
    assert len(word) * width > 4 * cap
    tracemalloc.start()
    try:
        assert sub.apply(word, cap=cap) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a join takes about 90 bytes per item while it runs; joined a few
    # thousand letters at a time, the peak is the image, its chunks and
    # one chunk's join
    assert peak < 100 * len(want)
    assert peak < 3 * len(want) + 500_000


def _cuts_by_letter_counts(u, v, m):
    """Reference: every t >= 1 at which the prefix letter counts agree."""
    return [t for t in range(1, min(len(u), len(v)) + 1)
            if W.abelianization(u[:t], m) == W.abelianization(v[:t], m)]


def test_balanced_cuts_are_the_prefixes_with_equal_counts():
    rng = random.Random(11)
    for m in range(2, 7):
        words = [bytes(rng.randint(1, m) for _ in range(rng.randint(0, 40)))
                 for _ in range(12)]
        for u in words:
            for v in words:
                zeros = list(W.walk_zeros(u, v, m))
                assert zeros[0] == 0 and zeros == sorted(set(zeros))
                cuts = list(W.balanced_cuts(u, v, m))
                # a cut exactly when the counts agree, and every cut is a
                # zero of the walk
                assert cuts == _cuts_by_letter_counts(u, v, m)
                assert set(cuts) <= set(zeros)


@pytest.mark.parametrize("m", sorted(WALK_BASE))
def test_balanced_cuts_confirm_false_walk_zeros(m):
    false_zeros = 0
    for u, v in false_zero_pairs(m):
        cuts = list(W.balanced_cuts(u, v, m))
        assert cuts == _cuts_by_letter_counts(u, v, m)
        false_zeros += len(set(W.walk_zeros(u, v, m)) - set(cuts) - {0})
    assert false_zeros
