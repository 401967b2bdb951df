"""Words and substitutions over an alphabet of letters 1..m.

Words are bytes objects whose values are the letters; rules are one word
per letter.  Iteration is memoized per substitution instance, and every
expanding operation checks its result's length against WORD_CAP so that
runaway growth surfaces as LengthCapExceeded instead of memory exhaustion.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .errors import InvalidBound, InvalidWord, LengthCapExceeded, NoSeedFound

# the longest word, in letters, that apply and iterate build
WORD_CAP = 10_000_000
# longest rule for which Substitution.apply builds images by column
COLUMN_WIDTH_MAX = 16
# letters per join when Substitution.apply joins rule images: a join
# takes about 90 bytes per item while it runs, so joining in chunks keeps
# the peak near twice the image
JOIN_CHUNK = 4096
# walk_zeros reads the walk in chunks of FIRST_CHUNK letters, doubling up
# to CHUNK, one FIELD-byte field per letter.  A walk step is at most 126
# in size, so over a chunk that starts within 126 * CHUNK of zero the
# biased walk stays within 2 * 126 * CHUNK of _BIAS: it must stay below
# the divisor, and above 2^(8 * (FIELD - 1)) so that every field's high
# byte is nonzero and no match of _ZERO straddles two fields
FIELD = 3
FIRST_CHUNK = 4096
CHUNK = 16_384
_DIVISOR = (1 << 8 * FIELD) - 1
_BIAS = 1 << 8 * FIELD - 1
_ZERO = _BIAS.to_bytes(FIELD, "big")


class Substitution:
    """A substitution rule letter -> nonempty word, for m >= 2 letters."""

    def __init__(self, rules):
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
        # row n holds |sigma^n(c)| at index c, for each letter c
        self._image_lengths = [(0,) + (1,) * m]

    def rule(self, letter):
        return self.rules[letter - 1]

    def apply(self, word):
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
        if total > WORD_CAP:
            raise LengthCapExceeded(
                f"image length {total} exceeds cap {WORD_CAP}")
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
        """|sigma^n(letter)| without expanding the word: |sigma^n(c)| is
        the sum of |sigma^(n-1)(d)| over the letters d of c's rule, so
        each row of the table follows from the one before.  InvalidBound
        for a negative n."""
        if n < 0:
            raise InvalidBound(f"power {n} is negative")
        rows = self._image_lengths
        while len(rows) <= n:
            rows.append((0,) + tuple(sum(map(rows[-1].__getitem__, rule))
                                     for rule in self.rules))
        return rows[n][letter]

    def iterate(self, letter, n):
        """sigma^n(letter), memoized incrementally; InvalidBound from
        image_length for a negative n."""
        if not 1 <= letter <= self.size:
            raise InvalidWord(f"letter {letter} outside 1..{self.size}")
        if n == 0:
            return bytes([letter])
        key = (letter, n)
        cached = self._iterate_cache.get(key)
        if cached is not None:
            return cached
        if self.image_length(letter, n) > WORD_CAP:
            raise LengthCapExceeded(
                f"|sigma^{n}({letter})| = {self.image_length(letter, n)} "
                f"exceeds cap {WORD_CAP}"
            )
        word = self.iterate(letter, n - 1)
        result = self.apply(word)
        self._iterate_cache[key] = result
        return result

    def reversed(self):
        """Substitution with every rule word reversed (suffix checks)."""
        return Substitution([bytes(reversed(r)) for r in self.rules])


def abelianization(word, m):
    """Occurrence counts of each letter of 1..m in the word."""
    counts = tuple(word.count(c) for c in range(1, m + 1))
    if sum(counts) != len(word):
        bad = next(c for c in word if not 1 <= c <= m)
        raise InvalidWord(f"letter {bad} outside 1..{m}")
    return counts


@lru_cache(maxsize=None)
def _weight_table(m):
    """Translate table of the letter weights w_c, where w_c = 1 + K^(c-1)
    for c < m and w_m = 1, with K the largest integer such that
    K^(m-2) <= 126, so that every weight is at most 127 and a step
    w(u_i) - w(v_i) of the walk at most 126 in size.

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
    return bytes([0] + weights).ljust(256, b"\0")


def walk_zeros(u, v, m):
    """The prefix lengths t in 0..min(|u|, |v|), in increasing order, at
    which the weighted letter count difference of u[:t] and v[:t]
    vanishes: every t at which the two prefixes have the same letter
    counts, and possibly some others.  An iterator.

    The walk is read a chunk at a time, with no loop in Python over the
    letters.  Each word's chunk of k letters is laid out as k + 2
    big-endian FIELD-byte fields: an offset, the k letter weights and a
    zero, the offset being _BIAS plus the walk at the chunk's start for
    u, and 0 for v.  The difference of the two buffers read as integers,
    floor-divided by 2^(8 * FIELD) - 1, holds in fields 1..k + 1 the
    biased walk at the chunk's k + 1 positions, exactly, as every biased
    walk value lies between 0 and the divisor.  The walk vanishes at the
    fields that read _ZERO.  A chunk that starts more than 126 * k away
    from zero cannot reach it and is only summed.
    """
    weights = _weight_table(m)
    n = min(len(u), len(v))
    yield 0
    walk, start, k = 0, 0, FIRST_CHUNK
    while start < n:
        end = min(start + k, n)
        a = u[start:end].translate(weights)
        b = v[start:end].translate(weights)
        if abs(walk) > 126 * len(a):
            walk += sum(a) - sum(b)
        else:
            size = FIELD * (len(a) + 2)
            bu, bv = bytearray(size), bytearray(size)
            bu[:FIELD] = (_BIAS + walk).to_bytes(FIELD, "big")
            bu[2 * FIELD - 1:-FIELD:FIELD] = a
            bv[2 * FIELD - 1:-FIELD:FIELD] = b
            sums = (int.from_bytes(bu, "big") -
                    int.from_bytes(bv, "big")) // _DIVISOR
            walk = (sums & _DIVISOR) - _BIAS
            fields = sums.to_bytes(size, "big")
            # field 1 is the chunk's start, already yielded
            i = fields.find(_ZERO, 2 * FIELD)
            while i >= 0:
                yield start + i // FIELD - 1
                i = fields.find(_ZERO, i + FIELD)
        start, k = end, min(2 * k, CHUNK)


class CountGap:
    """Letter count differences of prefixes of two words, for prefix
    lengths asked in increasing order: for each (a, b) in `pairs`, the
    count of letter a in u[:t] minus that of letter b in v[:t].  Each
    call counts only the letters since the previous one."""

    def __init__(self, u, v, pairs):
        self.u, self.v = u, v
        self.pairs = pairs
        self.gaps = [0] * len(pairs)
        self.done = 0

    def balanced_at(self, t):
        """True when every listed count difference vanishes at t."""
        u, v, s = self.u, self.v, self.done
        self.gaps = [g + u.count(a, s, t) - v.count(b, s, t)
                     for g, (a, b) in zip(self.gaps, self.pairs)]
        self.done = t
        return not any(self.gaps)


def balanced_cuts(u, v, m):
    """The prefix lengths t in 1..min(|u|, |v|), in increasing order, at
    which u[:t] and v[:t] have the same letter counts.  An iterator.

    Exact: each zero of the weighted walk is confirmed on letter counts.
    At a zero, sum_{c<m} K^(c-1) d_c = 0 (`_weight_table`), so when the
    counts of letters 1..m-2 agree, K^(m-2) d_(m-1) = 0 and letter m-1
    agrees too: only letters 1..m-2 are counted, none for m = 2.
    """
    gap = CountGap(u, v, [(c, c) for c in range(1, m - 1)])
    return (t for t in walk_zeros(u, v, m) if t and gap.balanced_at(t))


def substitution_matrix(sub: Substitution):
    """Matrix with entry (i, j) counting letter i in the image of j."""
    m = sub.size
    cols = [abelianization(r, m) for r in sub.rules]
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def is_primitive(matrix):
    """True iff some power of the nonnegative matrix is strictly positive.

    By Wielandt's bound it suffices to look at the power m*m - 2m + 2,
    computed over booleans with each row an int bitmask: row i of a
    product is the union of the rows of the right factor that row i of
    the left one holds.
    """
    m = len(matrix)
    adj = [sum(1 << j for j, c in enumerate(row) if c) for row in matrix]
    exponent = m * m - 2 * m + 2

    def bool_mul(a, b):
        out = []
        for row in a:
            acc = 0
            while row:
                low = row & -row
                acc |= b[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return out

    result = [1 << i for i in range(m)]
    base = adj
    e = exponent
    while e:
        if e & 1:
            result = bool_mul(result, base)
        base = bool_mul(base, base)
        e >>= 1
    full = (1 << m) - 1
    return all(row == full for row in result)


def _periods(f):
    """The period of each letter under the letter map f (f[c - 1] is the
    image of letter c), in letter order, or None for a letter on no
    cycle.  A cycle of f has at most m letters."""
    m = len(f)
    periods = []
    for c in range(1, m + 1):
        x, k = f[c - 1], 1
        while x != c and k < m:
            x, k = f[x - 1], k + 1
        periods.append(k if x == c else None)
    return periods


def legal_two_letter_words(sub: Substitution):
    """The two-letter factors inside the rules, closed under
    xy -> (last letter of sigma(x), first letter of sigma(y)).

    A factor of sigma(w) lies inside one rule image or straddles the
    images of two neighbours in w, so for a primitive substitution, where
    every letter occurs, this is the exact set of legal adjacencies.
    """
    rules = sub.rules
    seen = {r[i:i + 2] for r in rules for i in range(len(r) - 1)}
    stack = list(seen)
    while stack:
        x, y = stack.pop()
        pair = bytes((rules[x - 1][-1], rules[y - 1][0]))
        if pair not in seen:
            seen.add(pair)
            stack.append(pair)
    return seen


def fixed_point_seed(sub: Substitution):
    """Smallest power k with a legal two-sided seed, and the least such
    seed pair.

    Returns (k, left, right) where sigma^k(left) ends with left,
    sigma^k(right) starts with right, and the two-letter word left,right
    is a legal factor.  The bi-infinite fixed point of sigma^k seeded at
    left|right is then well defined.  A legal pair works at k exactly
    when k is a multiple of the lcm of the period of left under the
    last-letter map and that of right under the first-letter map, so the
    least k and, for it, the lexicographically least (left, right) are
    the least (lcm, left, right) over the legal pairs of periodic letters.
    """
    lefts = _periods([r[-1] for r in sub.rules])
    rights = _periods([r[0] for r in sub.rules])
    seeds = [(math.lcm(lefts[left - 1], rights[right - 1]), left, right)
             for left, right in legal_two_letter_words(sub)
             if lefts[left - 1] and rights[right - 1]]
    if not seeds:
        raise NoSeedFound("no legal pair of periodic letters")
    return min(seeds)


def one_sided_seed(sub: Substitution):
    """Least (k, letter) with sigma^k(letter) starting with that letter:
    the least (period, letter) of the first-letter map."""
    periods = _periods([r[0] for r in sub.rules])
    return min((k, c) for c, k in enumerate(periods, 1) if k)


def _forced_swaps(sub: Substitution, tau, a, b):
    """Extend the partial involution tau (a list indexed by letter, 0 for
    unset) by tau(a) = b and every swap it forces: tau(x) = y forces
    |rule(x)| = |rule(y)| and tau(rule(x)[k]) = rule(y)[k] for every k.
    The extended list, or None on a clash or a forced fixed point."""
    tau = tau[:]
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if tau[x]:
            if tau[x] != y:
                return None
            continue
        if x == y or tau[y]:
            return None
        tau[x], tau[y] = y, x
        rx, ry = sub.rule(x), sub.rule(y)
        if len(rx) != len(ry):
            return None
        pending.extend(zip(rx, ry))
    return tau


def commuting_fixed_point_free_involutions(sub: Substitution):
    """All letter involutions without fixed points that commute with the
    substitution (applying the swap before or after gives the same rules),
    as dicts, in lexicographic order of (tau(1), ..., tau(m)).

    Backtracking over the least unset letter a and tau(a) = b in
    increasing order, each choice closed under the swaps it forces
    (`_forced_swaps`).  Every letter reached from a by the rules is then
    set, so on a primitive substitution the first choice fixes tau and
    there are at most m - 1 candidates."""
    m = sub.size
    if m % 2:
        return []
    out = []

    def extend(tau):
        a = next((c for c in range(1, m + 1) if not tau[c]), None)
        if a is None:
            out.append({c: tau[c] for c in range(1, m + 1)})
            return
        for b in range(a + 1, m + 1):
            forced = _forced_swaps(sub, tau, a, b)
            if forced:
                extend(forced)

    extend([0] * (m + 1))
    return out
