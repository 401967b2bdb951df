"""Words and substitutions over an alphabet of letters 1..m.

Words are bytes objects whose values are the letters; rules are one word
per letter.  Iteration is memoized per substitution instance, and every
expanding operation takes an explicit symbol cap so that runaway growth
surfaces as LengthCapExceeded instead of memory exhaustion.
"""

from __future__ import annotations

import operator
from array import array
from functools import lru_cache
from itertools import accumulate

from .errors import InvalidWord, LengthCapExceeded, NoSeedFound

DEFAULT_WORD_CAP = 10_000_000
# longest rule for which Substitution.apply builds images by column
COLUMN_WIDTH_MAX = 16
# letters per join when Substitution.apply joins rule images: a join
# takes about 90 bytes per item while it runs, so joining in chunks keeps
# the peak near twice the image
JOIN_CHUNK = 4096


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
        # translate table k maps each letter to letter k of its rule, or
        # to the pad byte 0 when the rule is shorter; none when a rule is
        # longer than COLUMN_WIDTH_MAX, as the tables take 256 bytes each
        width = max(self._rule_lengths)
        self._columns = tuple(
            bytes([0] + [r[k] if k < len(r) else 0 for r in rules])
            .ljust(256, b"\0")
            for k in range(width)) if width <= COLUMN_WIDTH_MAX else ()
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
        """The image of a word; InvalidWord for a letter outside 1..m.

        When the rule lengths are close to uniform, column k of the image,
        letter k of each letter's rule, is one translate of the word; the
        columns are interleaved by slice assignment into a buffer of
        |word| * max|rule| bytes and the pad bytes of shorter rules
        dropped.  That is done only while there is at most one pad byte
        per letter of the word, so that the buffer is at most twice the
        image and the pad bytes, which cost more to drop than a letter
        costs to join, are few; otherwise the rule images are joined
        letter by letter, JOIN_CHUNK letters at a time."""
        counts = abelianization(word, self.size)
        total = sum(map(operator.mul, counts, self._rule_lengths))
        if total > cap:
            raise LengthCapExceeded(f"image length {total} exceeds cap {cap}")
        width = len(self._columns)
        if not width or len(word) * (width - 1) > total:
            table = self._rule_table
            return b"".join([
                b"".join([table[c] for c in word[i:i + JOIN_CHUNK]])
                for i in range(0, len(word), JOIN_CHUNK)])
        image = bytearray(len(word) * width)
        for k, column in enumerate(self._columns):
            image[k::width] = word.translate(column)
        if len(image) > total:
            image = image.replace(b"\0", b"")
        return bytes(image)

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


@lru_cache(maxsize=None)
def _weight_tables(m):
    """Translate tables of the letter weights w_c and of 127 - w_c, where
    w_c = 1 + K^(c-1) for c < m and w_m = 1, with K the largest integer
    such that K^(m-2) <= 126, so that every weight is at most 127.

    Over two prefixes of one length, the weighted letter count difference
    is sum_{c<m} K^(c-1) d_c, where d_c is the count difference of letter
    c.  It vanishes when the counts agree; it can vanish otherwise only
    when some |d_c| >= K, and for m >= 9, where K = 1, only the count of
    letter m is tracked.
    """
    k = 1
    while m > 2 and (k + 1) ** (m - 2) <= 126:
        k += 1
    weights = [1 + k ** (c - 1) for c in range(1, m)] + [1]
    return (bytes([0] + weights).ljust(256, b"\0"),
            bytes([0] + [127 - w for w in weights]).ljust(256, b"\0"))


# the byte e as the signed byte e - 127
_UNBIAS = bytes((e - 127) % 256 for e in range(256))


def walk_zeros(u, v, m):
    """The prefix lengths t in 0..min(|u|, |v|), in increasing order, at
    which the weighted letter count difference of u[:t] and v[:t]
    vanishes: every t at which the two prefixes have the same letter
    counts, and possibly some others.  An iterator.

    The steps w(u_i) - w(v_i) are made without a loop in Python: the
    bytes w(u_i) + 127 - w(v_i) lie in 0..253, so one integer sum of the
    two translated words adds them with no carry between bytes, and a
    translate takes off the 127.  The walk runs over the signed bytes.
    """
    plus, minus = _weight_tables(m)
    n = min(len(u), len(v))
    biased = (int.from_bytes(u[:n].translate(plus), "little") +
              int.from_bytes(v[:n].translate(minus), "little"))
    steps = array("b", biased.to_bytes(n, "little").translate(_UNBIAS))
    walk = accumulate(steps, initial=0)
    t = -1
    while True:
        try:
            t += operator.indexOf(walk, 0) + 1
        except ValueError:
            return
        yield t


class CountGap:
    """Letter count differences of prefixes of two words over 1..m, for
    prefix lengths asked in increasing order.  Each call counts only the
    letters since the previous one; letter m is implied by the length."""

    def __init__(self, u, v, m):
        self.u, self.v = u, v
        self.letters = range(1, m)
        self.gaps = [0] * (m - 1)
        self.done = 0

    def balanced_at(self, t):
        """True when u[:t] and v[:t] have the same letter counts."""
        u, v, s = self.u, self.v, self.done
        self.gaps = [g + u.count(c, s, t) - v.count(c, s, t)
                     for g, c in zip(self.gaps, self.letters)]
        self.done = t
        return not any(self.gaps)


def balanced_cuts(u, v, m):
    """The prefix lengths t in 1..min(|u|, |v|), in increasing order, at
    which u[:t] and v[:t] have the same letter counts.  Exact: each zero
    of the weighted walk is confirmed on the letter counts.  An
    iterator."""
    gap = CountGap(u, v, m)
    return (t for t in walk_zeros(u, v, m) if t and gap.balanced_at(t))


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
