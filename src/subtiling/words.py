"""Words and substitutions over an alphabet of letters 1..m.

Words are bytes objects whose values are the letters; rules are one word
per letter.  Iteration is memoized per substitution instance, and every
expanding operation takes an explicit symbol cap so that runaway growth
surfaces as LengthCapExceeded instead of memory exhaustion.
"""

from __future__ import annotations

import operator
from itertools import accumulate

from .errors import InvalidWord, LengthCapExceeded, NoSeedFound

DEFAULT_WORD_CAP = 10_000_000


class Substitution:
    """A substitution rule letter -> nonempty word, for m >= 2 letters."""

    def __init__(self, rules, name=""):
        rules = [bytes(r) for r in rules]
        m = len(rules)
        if m < 2:
            raise ValueError("need at least two letters")
        for r in rules:
            if not r:
                raise ValueError("empty rule word")
            for c in r:
                if not 1 <= c <= m:
                    raise InvalidWord(f"letter {c} outside 1..{m}")
        self.size = m
        self.rules = tuple(rules)
        self.name = name
        self._rule_lengths = tuple(len(r) for r in rules)
        self._rule_table = (None,) + self.rules      # indexed by letter
        self._iterate_cache = {}
        self._lengths_cache = {}

    def __repr__(self):
        body = ", ".join(
            f"{i + 1}->{list(r)}" for i, r in enumerate(self.rules)
        )
        return f"Substitution({body})"

    def rule(self, letter):
        return self.rules[letter - 1]

    def apply(self, word, cap=DEFAULT_WORD_CAP):
        """The image of a word; InvalidWord for a letter outside 1..m."""
        counts = abelianization(word, self.size)
        total = sum(map(operator.mul, counts, self._rule_lengths))
        if total > cap:
            raise LengthCapExceeded(f"image length {total} exceeds cap {cap}")
        table = self._rule_table
        return b"".join([table[c] for c in word])

    def image_length(self, letter, n):
        """|sigma^n(letter)| without expanding the word."""
        key = (letter, n)
        if key not in self._lengths_cache:
            vec = [0] * self.size
            vec[letter - 1] = 1
            for _ in range(n):
                nxt = [0] * self.size
                for i, count in enumerate(vec):
                    if count:
                        for c in self.rules[i]:
                            nxt[c - 1] += count
                vec = nxt
            self._lengths_cache[key] = sum(vec)
        return self._lengths_cache[key]

    def iterate(self, letter, n, cap=DEFAULT_WORD_CAP):
        """sigma^n(letter), memoized incrementally."""
        if not 1 <= letter <= self.size:
            raise InvalidWord(f"letter {letter} outside 1..{self.size}")
        if n == 0:
            return bytes([letter])
        key = (letter, n)
        cached = self._iterate_cache.get(key)
        if cached is not None:
            return cached
        if self.image_length(letter, n) > cap:
            raise LengthCapExceeded(
                f"|sigma^{n}({letter})| = {self.image_length(letter, n)} "
                f"exceeds cap {cap}"
            )
        word = self.iterate(letter, n - 1, cap)
        result = self.apply(word, cap)
        self._iterate_cache[key] = result
        return result

    def reversed(self):
        """Substitution with every rule word reversed (suffix checks)."""
        return Substitution([bytes(reversed(r)) for r in self.rules],
                            name=f"{self.name}~reversed" if self.name else "")


def abelianization(word, m):
    """Occurrence counts of each letter of 1..m in the word."""
    counts = tuple(word.count(c) for c in range(1, m + 1))
    if sum(counts) != len(word):
        bad = next(c for c in word if not 1 <= c <= m)
        raise InvalidWord(f"letter {bad} outside 1..{m}")
    return counts


def packed_prefix_keys(word, m, base):
    """Abelianizations of the prefixes of lengths 0..len(word), each packed
    as the integer sum n_i * base^(i-1) of its letter counts n_i.

    With base > len(word) every count is a digit, so two prefixes of
    words no longer than base - 1 have equal keys exactly when they have
    equal letter counts.  Returns an iterator.
    """
    weights = (None,) + tuple(base ** i for i in range(m))
    return accumulate([weights[c] for c in word], initial=0)


def substitution_matrix(sub: Substitution):
    """Matrix with entry (i, j) counting letter i in the image of j."""
    m = sub.size
    cols = [abelianization(r, m) for r in sub.rules]
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def is_primitive(matrix):
    """True iff some power of the nonnegative matrix is strictly positive.

    By Wielandt's bound it suffices to look at the power m*m - 2m + 2,
    computed over booleans.
    """
    m = len(matrix)
    adj = [[bool(matrix[i][j]) for j in range(m)] for i in range(m)]
    exponent = m * m - 2 * m + 2

    def bool_mul(a, b):
        return [[any(a[i][t] and b[t][j] for t in range(m))
                 for j in range(m)] for i in range(m)]

    result = [[i == j for j in range(m)] for i in range(m)]
    base = adj
    e = exponent
    while e:
        if e & 1:
            result = bool_mul(result, base)
        base = bool_mul(base, base)
        e >>= 1
    return all(all(row) for row in result)


def first_letter_map(sub: Substitution):
    return tuple(r[0] for r in sub.rules)


def last_letter_map(sub: Substitution):
    return tuple(r[-1] for r in sub.rules)


def _iterate_map(f, k, x):
    for _ in range(k):
        x = f[x - 1]
    return x


def legal_two_letter_words(sub: Substitution):
    """All length-2 factors occurring in iterated rule images.

    Seeded with the factors of sigma^k(c) for the least k making every
    image at least two letters long, then closed under taking factors of
    the image of a known factor.  For a primitive substitution this is the
    exact set of legal adjacencies.
    """
    # for a primitive matrix all column sums of the Wielandt power are
    # at least the alphabet size, so this terminates well before the cap
    cap = sub.size * sub.size + 2
    k = 1
    while any(sub.image_length(c, k) < 2 for c in range(1, sub.size + 1)):
        k += 1
        if k > cap:
            raise NoSeedFound("rule images never reach length two")
    seen = set()
    stack = []
    for c in range(1, sub.size + 1):
        w = sub.iterate(c, k)
        for i in range(len(w) - 1):
            pair = w[i : i + 2]
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    while stack:
        pair = stack.pop()
        w = sub.apply(pair)
        for i in range(len(w) - 1):
            nxt = w[i : i + 2]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def fixed_point_seed(sub: Substitution):
    """Smallest power k with a legal two-sided seed, and the least such
    seed pair.

    Returns (k, left, right) where sigma^k(left) ends with left,
    sigma^k(right) starts with right, and the two-letter word left,right
    is a legal factor.  The bi-infinite fixed point of sigma^k seeded at
    left|right is then well defined.  Pairs are ordered lexicographically
    by (left, right) for determinism.
    """
    legal = legal_two_letter_words(sub)
    first = first_letter_map(sub)
    last = last_letter_map(sub)
    m = sub.size
    bound = m
    for i in range(2, m + 1):
        bound *= i
    bound *= m
    for k in range(1, bound + 1):
        rights = [c for c in range(1, m + 1) if _iterate_map(first, k, c) == c]
        if not rights:
            continue
        lefts = [c for c in range(1, m + 1) if _iterate_map(last, k, c) == c]
        if not lefts:
            continue
        for left in lefts:
            for right in rights:
                if bytes([left, right]) in legal:
                    return k, left, right
    raise NoSeedFound("no legal seed pair within the search bound")


def one_sided_seed(sub: Substitution):
    """Least (k, letter) with sigma^k(letter) starting with that letter."""
    first = first_letter_map(sub)
    for k in range(1, sub.size + 1):
        for c in range(1, sub.size + 1):
            if _iterate_map(first, k, c) == c:
                return k, c
    raise NoSeedFound("first-letter map has no periodic letter")


def commuting_fixed_point_free_involutions(sub: Substitution):
    """All letter involutions without fixed points that commute with the
    substitution (applying the swap before or after gives the same rules).
    Brute force over pairings; the alphabet is small."""
    m = sub.size
    if m % 2:
        return []
    out = []

    def pairings(remaining, mapping):
        if not remaining:
            out.append(dict(mapping))
            return
        a = remaining[0]
        for b in remaining[1:]:
            mapping[a], mapping[b] = b, a
            rest = [c for c in remaining[1:] if c != b]
            pairings(rest, mapping)
            del mapping[a], mapping[b]

    pairings(list(range(1, m + 1)), {})
    good = []
    for tau in out:
        ok = all(
            bytes(tau[c] for c in sub.rule(x)) == sub.rule(tau[x])
            for x in range(1, m + 1)
        )
        if ok:
            good.append(tau)
    return good
