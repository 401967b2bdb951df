import operator
import random
import tracemalloc
from itertools import accumulate

import pytest

from subtiling import cli
from subtiling import words as W
from subtiling.errors import (InvalidBound, InvalidWord, LengthCapExceeded,
                              NoSeedFound)

from conftest import (CORPUS_IDS, SIX_LETTERS, TWELVE_LETTERS, WALK_BASE,
                      _sub, false_zero_pairs, involutions_by_matching,
                      ref_fixed_point_seed, ref_legal_two_letter_words,
                      ref_one_sided_seed, ref_walk_zeros,
                      swap_commuting_substitution)


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


def test_iterate_cap(fib, monkeypatch):
    monkeypatch.setattr(W, "WORD_CAP", 100)
    with pytest.raises(LengthCapExceeded):
        fib.iterate(1, 40)
    # cap applies to the requested word, smaller powers still fine
    assert len(fib.iterate(1, 8)) <= 100


@pytest.mark.parametrize("n", [-1, -5])
def test_negative_power_is_rejected(fib, n):
    # a negative power used to recurse until RecursionError
    with pytest.raises(InvalidBound):
        fib.iterate(1, n)
    with pytest.raises(InvalidBound):
        fib.image_length(1, n)


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


def test_seeds_match_the_power_search():
    subs = [_sub(name) for name in CORPUS_IDS]
    subs += [cli.parse_spec(text).substitution()
             for text in (SIX_LETTERS, TWELVE_LETTERS)]
    rng = random.Random(27)
    drawn = 0
    while drawn < 1000:
        m = rng.randint(2, 7)
        sub = W.Substitution([bytes(rng.randint(1, m)
                                    for _ in range(rng.randint(1, 4)))
                              for _ in range(m)])
        if W.is_primitive(W.substitution_matrix(sub)):
            subs.append(sub)
            drawn += 1
    powers = set()
    for sub in subs:
        assert W.legal_two_letter_words(sub) == \
            ref_legal_two_letter_words(sub), sub
        seed = W.fixed_point_seed(sub)
        assert seed == ref_fixed_point_seed(sub), sub
        assert W.one_sided_seed(sub) == ref_one_sided_seed(sub), sub
        powers.add(seed[0])
    # the draws reach seed powers above the least ones, up to 6
    assert {1, 2, 3, 4, 6} <= powers


def test_no_seed_without_a_legal_pair():
    # no rule has two letters, so no two-letter word is legal
    with pytest.raises(NoSeedFound):
        W.fixed_point_seed(W.Substitution([bytes([2]), bytes([1])]))
    assert W.one_sided_seed(W.Substitution([bytes([2]), bytes([1])])) == \
        (2, 1)


def test_involutions(fib, aba, fib2, rauzy2):
    assert W.commuting_fixed_point_free_involutions(fib) == []
    assert W.commuting_fixed_point_free_involutions(aba) == [{1: 2, 2: 1}]
    assert W.commuting_fixed_point_free_involutions(fib2) == \
        [{1: 3, 3: 1, 2: 4, 4: 2}]
    assert W.commuting_fixed_point_free_involutions(rauzy2) == \
        [{1: 4, 4: 1, 2: 5, 5: 2, 3: 6, 6: 3}]


def _random_pairing(rng, m):
    letters = list(range(1, m + 1))
    rng.shuffle(letters)
    tau = {}
    for a, b in zip(letters[::2], letters[1::2]):
        tau[a], tau[b] = b, a
    return tau


def test_involutions_in_order_and_without_fixed_points():
    # letters 1..4 as Z/2 x Z/2, x -> x, x + (1, 0), x + (0, 1): every
    # translation commutes with the rules, so there are three, in order
    klein = W.Substitution([bytes(r) for r in
                            ((1, 2, 3), (2, 1, 4), (3, 4, 1), (4, 3, 2))])
    assert W.is_primitive(W.substitution_matrix(klein))
    assert W.commuting_fixed_point_free_involutions(klein) == [
        {1: 2, 2: 1, 3: 4, 4: 3}, {1: 3, 3: 1, 2: 4, 4: 2},
        {1: 4, 4: 1, 2: 3, 3: 2}]
    # not primitive: tau(1) = 2 forces tau(3) = 3 and then tau(4) = 4
    fixed = W.Substitution([bytes(r) for r in ((1, 3), (2, 3), (3, 4), (4, 3))])
    assert W.commuting_fixed_point_free_involutions(fixed) == []


def test_involutions_match_the_matching_reference():
    subs = [_sub(name) for name in CORPUS_IDS]
    rng = random.Random(17)
    for m in range(2, 7):
        for _ in range(60):
            rules = [bytes(rng.randint(1, m)
                           for _ in range(rng.randint(1, 3)))
                     for _ in range(m)]
            sub = W.Substitution(rules)
            if W.is_primitive(W.substitution_matrix(sub)):
                subs.append(sub)
        if m % 2 == 0:
            # random rules seldom commute with a swap: draw ones that do
            subs.extend(swap_commuting_substitution(rng, _random_pairing(rng, m))
                        for _ in range(20))
    found = 0
    for sub in subs:
        want = involutions_by_matching(sub)
        got = W.commuting_fixed_point_free_involutions(sub)
        assert got == want, sub
        found += len(got)
    assert found >= 60


def test_involution_of_a_twenty_letter_extension_needs_m_minus_1_choices(
        monkeypatch):
    # the case-swapped beta-substitution a_i -> a_1 A_(i+1), a_10 -> a_1,
    # A_i -> A_1 a_(i+1), A_10 -> A_1, letters a_i = i and A_i = 10 + i:
    # the brute-force matching list has 19!! (about 6.5e8) entries
    n = 10
    rules = ([bytes([1, n + i + 1]) for i in range(1, n)] + [bytes([1])]
             + [bytes([n + 1, i + 1]) for i in range(1, n)]
             + [bytes([n + 1])])
    sub = W.Substitution(rules)
    assert W.is_primitive(W.substitution_matrix(sub))
    calls = []
    forced = W._forced_swaps
    monkeypatch.setattr(W, "_forced_swaps",
                        lambda *args: calls.append(1) or forced(*args))
    case_swap = {c: (c + n - 1) % (2 * n) + 1 for c in range(1, 2 * n + 1)}
    assert W.commuting_fixed_point_free_involutions(sub) == [case_swap]
    assert len(calls) == 2 * n - 1


def test_apply_rejects_letters_outside_the_alphabet(fib):
    assert fib.apply(bytes([1, 2, 1])) == bytes([1, 2, 1, 1, 2])
    assert fib.apply(b"") == b""
    # 0, m + 1 and 255 used to raise IndexError or wrap to the last rule
    for word in (bytes([1, 3]), bytes([0]), bytes([2, 255])):
        with pytest.raises(InvalidWord):
            fib.apply(word)


def test_apply_matches_letter_by_letter_images(monkeypatch):
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
                with monkeypatch.context() as patch, \
                        pytest.raises(LengthCapExceeded):
                    patch.setattr(W, "WORD_CAP", len(want) - 1)
                    sub.apply(word)
        # 0 is the pad byte of the column tables
        for bad in (0, m + 1, 255):
            with pytest.raises(InvalidWord):
                sub.apply(bytes([1, bad, 2]))


@pytest.mark.parametrize("width, letters", [
    pytest.param(16, 20_000, id="16"), pytest.param(1000, 20_000, id="1000"),
    pytest.param(5000, 20_000, id="5000"),
    pytest.param(16, 200_000, id="16-200000")])
def test_apply_memory_is_bounded_by_the_image_on_skewed_rules(
        monkeypatch, width, letters):
    # a -> a b^(width-1), b -> a on a word of b's: a column buffer would
    # take |word| * width bytes, far above the cap, for an image of |word|
    sub = W.Substitution([bytes([1] + [2] * (width - 1)), b"\1"])
    word = b"\2" * letters + b"\1"
    want = b"\1" * letters + sub.rule(1)
    cap = 2 * len(want)
    assert len(word) * width > 4 * cap
    monkeypatch.setattr(W, "WORD_CAP", cap)
    tracemalloc.start()
    try:
        assert sub.apply(word) == want
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


def _chunk_starts(n):
    """The positions at which walk_zeros starts a chunk over n letters."""
    starts, k = [0], W.FIRST_CHUNK
    while starts[-1] + k < n:
        starts.append(starts[-1] + k)
        k = min(2 * k, W.CHUNK)
    return starts


def _walk_draws(m, rng):
    """Word pairs over 1..m: empty, short and longer than four chunks;
    of unequal lengths; balanced (a few letters swapped), reversed, and
    drifting (v drawn with other letter frequencies, or u's letter runs
    of the heaviest and lightest letters swapped)."""
    letters = range(1, m + 1)
    yield b"", b""
    yield b"", bytes([m])
    for length in (rng.randint(1, 300), rng.randint(46_000, 50_000)):
        u = bytes(rng.choices(letters, k=length))
        yield u, bytes(rng.choices(letters, k=length + rng.randint(-9, 9)))
        swapped = bytearray(u)
        for _ in range(length // 20 + 1):
            i = rng.randrange(length)
            j = min(length - 1, i + rng.randint(1, 3))
            swapped[i], swapped[j] = swapped[j], swapped[i]
        yield u, bytes(swapped)
        yield u, u[::-1]
        yield u, bytes(rng.choices(letters, weights=range(m, 0, -1),
                                   k=length))
    heavy = bytes([max(m - 1, 1)]) * 40_000
    light = bytes([m]) * 40_000
    yield heavy + light, light + heavy


def test_walk_zeros_matches_the_reference_walk():
    """walk_zeros against the letter-by-letter walk of conftest, with the
    draws shown to reach a zero at a chunk boundary, a skipped chunk and
    chunks read from both sides of zero."""
    rng = random.Random(30)
    boundary = skipped = below = above = 0
    for m in [*range(2, 13), 40]:
        weights = W._weight_table(m)
        for u, v in _walk_draws(m, rng):
            zeros = list(W.walk_zeros(u, v, m))
            assert zeros == list(ref_walk_zeros(u, v, m))
            n = min(len(u), len(v))
            steps = map(operator.sub, u[:n].translate(weights),
                        v[:n].translate(weights))
            walk = list(accumulate(steps, initial=0))
            starts = _chunk_starts(n)
            boundary += len(set(starts[1:]) & set(zeros))
            for start, end in zip(starts, starts[1:] + [n]):
                if abs(walk[start]) > 126 * (end - start):
                    skipped += 1
                else:
                    below += walk[start] < 0
                    above += walk[start] > 0
    assert boundary and skipped and below and above


def test_walk_fields_hold_every_biased_walk_value():
    """A chunk that walk_zeros reads starts within 126 * CHUNK of zero and
    moves by at most 126 per letter.  Every biased walk value must stay
    below the divisor, or a prefix sum carries into its neighbour, and
    keep a nonzero high byte, or a match of the zero pattern could
    straddle two fields."""
    reach = 2 * 126 * W.CHUNK
    assert W._BIAS + reach < (1 << 8 * W.FIELD) - 1
    assert W._BIAS - reach >= 1 << 8 * (W.FIELD - 1)
    assert W.FIRST_CHUNK <= W.CHUNK
    assert all(1 <= w <= 127 for m in range(2, 41)
               for w in W._weight_table(m)[1:m + 1])


def _counted_letters(monkeypatch):
    """Record the (u letter, v letter) pairs of every CountGap made."""
    made = []
    init = W.CountGap.__init__

    def recording(self, u, v, pairs):
        made.append(list(pairs))
        init(self, u, v, pairs)

    monkeypatch.setattr(W.CountGap, "__init__", recording)
    return made


@pytest.mark.parametrize("m", sorted(WALK_BASE))
def test_balanced_cuts_confirm_false_walk_zeros(monkeypatch, m):
    """A walk zero is confirmed on letters 1..m-2 only, and the cuts are
    still the prefixes with equal counts: on the false-zero pairs, the
    second of which agrees on letters 1..m-3 at a false zero, and on
    random balanced pairs."""
    made = _counted_letters(monkeypatch)
    rng = random.Random(m)
    pairs = false_zero_pairs(m)
    for _ in range(20):
        u = bytes(rng.choices(range(1, m + 1), k=rng.randint(1, 80)))
        pairs.append((u, bytes(rng.sample(u, len(u)))))
    false_zeros = 0
    for u, v in pairs:
        cuts = list(W.balanced_cuts(u, v, m))
        assert cuts == _cuts_by_letter_counts(u, v, m)
        false_zeros += len(set(W.walk_zeros(u, v, m)) - set(cuts) - {0})
    assert false_zeros
    assert all(p == [(c, c) for c in range(1, m - 1)] for p in made)


def test_two_letter_cuts_count_no_letter(monkeypatch):
    """Over two letters the walk is the count difference of letter 1, so
    a zero is a cut with nothing counted."""
    made = _counted_letters(monkeypatch)
    rng = random.Random(2)
    for _ in range(40):
        u = bytes(rng.choices((1, 2), k=rng.randint(0, 60)))
        v = bytes(rng.sample(u, len(u)))
        cuts = list(W.balanced_cuts(u, v, 2))
        assert cuts == _cuts_by_letter_counts(u, v, 2)
    assert made and all(pairs == [] for pairs in made)
