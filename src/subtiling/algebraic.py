"""Exact arithmetic in Q(beta) for beta the dominant eigenvalue of a
substitution matrix.

A NumberField holds a monic irreducible integer minimal polynomial and a
shrinking isolating interval [lo, hi] = [num_lo/den, num_hi/den] of its
dominant real root beta > 1, kept as the three ints num_lo, num_hi and
den.  Field elements are coordinate vectors in the power basis
1, beta, ..., beta^(n-1).  Coordinates are in a normal form: an integral
coordinate is an int and only a coordinate with a denominator is a
Fraction.  Since an int and the equal Fraction compare and hash alike,
the form changes no equality, ordering or dictionary key; it keeps the
hot additions and subtractions in integer arithmetic.

Signs of nonzero elements are certified in two stages, filter then exact.

* Fixed-point filter.  Since lo > 1, lo^k <= beta^k <= hi^k for every
  k >= 0.  Rounding outward at P = FILTER_BITS, L_k = floor(2^P lo^k) and
  H_k = ceil(2^P hi^k) are integers with L_k <= 2^P beta^k <= H_k.
  Scaled by the lcm of its denominators, an element has integer
  coordinates a_k, and 2^P times its value lies between
  sum a_k (L_k if a_k > 0 else H_k) and sum a_k (H_k if a_k > 0 else L_k).
  A lower sum above zero or an upper sum below zero is the sign.  The
  filter never refines the interval.  The two sums are also exposed as
  an enclosure (fixed_point_bounds), as a window sample takes one per
  tile boundary it reads and the inflation step of `coincidence.Walk`
  one per subtile pair.
  The table is cached per generation.  A refinement only tightens it, so
  an enclosure taken earlier stays valid, and whatever it decides the
  filter decides too.
* Exact route.  When the filter cannot decide, the coordinate polynomial
  is evaluated by Horner's rule in integer interval arithmetic on
  [num_lo, num_hi]: scaled by the lcm of its denominators, the element's
  step j adds the next coordinate times den^j, so the result is the
  rational interval Horner enclosure on [lo, hi] times a positive
  integer.  The interval is bisected until the enclosure excludes zero
  by `polys.bisect`, the step that also isolates the root: it doubles
  num_lo, num_hi and den and takes the midpoint num_lo + num_hi of the
  old ends, decided by the sign of the minimal polynomial there in
  homogeneous integer Horner form.  The interval and the enclosures
  leave this module as these ints too; no rational interval is built.

Both stages compute with ints only, and neither has a tolerance.  The
dominant root is that of the factor whose largest root exceeds every
real root of its cofactor (`dominant_field`, also `verify`'s test).  A
product is Horner's rule over one factor's coordinates on the companion
step `times_beta`, and an inverse is a column of the integer adjugate
that `char_poly` computes too, divided by the norm.  The Pisot test
counts conjugates in the open unit disk exactly: the Cayley map
z = (1+w)/(1-w) takes the disk to the half-plane Re w < 0, and one
Cauchy index, read off one signed remainder chain, counts the roots
there; a root on the unit circle is q(-1) = 0 or a real root of the
chain's last entry.  Every verdict of this module is decided in exact
arithmetic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import polys
from .errors import FactorizationFailed

# Fixed-point scale: the filter encloses beta^k by integers over
# 2^FILTER_BITS.
FILTER_BITS = 64


def _canon(x):
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def common_denominator(values):
    """Least common denominator of int and Fraction values."""
    denom = 1
    for c in values:
        if type(c) is not int:
            denom = math.lcm(denom, c.denominator)
    return denom


def scaled_coords(coords, denom):
    """denom times a coordinate vector, as ints; every denominator of the
    coordinates must divide denom."""
    return tuple([c.numerator * (denom // c.denominator) for c in coords])


def _lowest_terms(text):
    """(p, q) in lowest terms of a string Fraction reads; "p/q" directly."""
    p, slash, q = text.partition("/")
    if not (slash and q.isdigit() and p.removeprefix("-").isdigit() and
            text.isascii() and q.strip("0")):
        return Fraction(text).as_integer_ratio()
    p, q = int(p), int(q)
    g = math.gcd(p, q)
    return p // g, q // g


def parse_shifts(values, degree, denom=1):
    """Shifts of a report as (integer vectors, D), D the lcm of `denom` and
    their denominators.  A shift that is not a list of exactly `degree`
    strings that Fraction reads raises ValueError or ZeroDivisionError."""
    rows = []
    for value in values:
        if (type(value) is not list or len(value) != degree or
                not all(type(s) is str for s in value)):
            raise ValueError(f"shift {value!r} is not {degree} fractions")
        rows.append(list(map(_lowest_terms, value)))
        denom = math.lcm(denom, *(q for _, q in rows[-1]))
    return [tuple([p * (denom // q) for p, q in row]) for row in rows], denom


def _faddeev_leverrier(matrix):
    """(coeffs, adjugate) for an integer matrix A of size m, by the
    Faddeev-LeVerrier recurrence in integers.

    coeffs are the characteristic polynomial's coefficients in descending
    order, c_0 = 1, ..., c_m.  adjugate holds the integer matrices
    N_0 = I and N_k = A N_(k-1) + c_k I for k < m, so that
    adj(xI - A) = sum N_k x^(m-1-k); each c_k is -tr(A N_(k-1)) / k."""
    m = len(matrix)
    rows = [[int(c) for c in row] for row in matrix]
    coeffs = [1]
    adjugate = []
    work = [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        for i in range(m):
            work[i][i] += coeffs[-1]
        adjugate.append(work)
        cols = list(zip(*work))
        work = [[sum(map(operator.mul, row, col)) for col in cols]
                for row in rows]
        coeff, rem = divmod(-sum(work[i][i] for i in range(m)), k)
        if rem:
            raise AssertionError("characteristic polynomial not integral")
        coeffs.append(coeff)
    return coeffs, adjugate


def char_poly(matrix):
    """Monic characteristic polynomial of an integer matrix, ascending
    coefficients, by the Faddeev-LeVerrier recurrence in integers."""
    coeffs, _ = _faddeev_leverrier(matrix)
    return coeffs[::-1]


class NumberField:
    """Q(beta) with beta > 1 the isolated dominant real root of minpoly."""

    def __init__(self, minpoly, lo, hi):
        minpoly = polys.normalize(minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = tuple(int(c) for c in minpoly)
        self.degree = polys.degree(minpoly)
        # beta lies in [num_lo / den, num_hi / den]
        if self.degree == 1:
            # beta is the integer -minpoly[0]; pin the interval to it.
            self.num_lo = self.num_hi = -self.minpoly[0]
            self.den = 1
        else:
            lo, hi = Fraction(lo), Fraction(hi)
            self.den = math.lcm(lo.denominator, hi.denominator)
            self.num_lo = lo.numerator * (self.den // lo.denominator)
            self.num_hi = hi.numerator * (self.den // hi.denominator)
            # the sign at the lower end is kept by every bisection step
            self._lo_sign = self._minpoly_sign(self.num_lo, self.den)
            if not (lo < hi and
                    self._lo_sign * self._minpoly_sign(self.num_hi,
                                                       self.den) < 0):
                raise ValueError(f"[{lo}, {hi}] does not isolate a root "
                                 "of the minimal polynomial")
        # beta^degree in the power basis
        self._companion = tuple(-c for c in self.minpoly[:-1])
        self.generation = 0
        # this generation's table at 2^FILTER_BITS, built on first use
        self._filter_table = None
        guard = 0
        while self.num_lo <= self.den:
            if self.num_hi <= self.den or guard > 512:
                raise ValueError("dominant root is not greater than one")
            self._refine_once()
            guard += 1

    # -- interval management -------------------------------------------

    def _minpoly_sign(self, num, den):
        """Sign of minpoly(num / den) for den > 0, from the homogeneous
        integer Horner sum of c_k num^k den^(n-k)."""
        return polys.sign_at(self.minpoly, num, den)

    def _refine_once(self):
        if self.degree == 1:
            raise AssertionError("rational beta never needs refinement")
        self.num_lo, self.num_hi, self.den = polys.bisect(
            self.minpoly, (self.num_lo, self.num_hi, self.den),
            lambda mid, den, s: s == self._lo_sign)
        self.generation += 1
        self._filter_table = None

    def ensure_width(self, width):
        width = Fraction(width)
        while ((self.num_hi - self.num_lo) * width.denominator >
               width.numerator * self.den):
            self._refine_once()

    def _table(self):
        """(L, H) with L[k] <= 2^FILTER_BITS * beta^k <= H[k] for
        k < degree, from the current interval, built once per generation."""
        if self._filter_table is None:
            lows, highs = [], []
            lo_pow = hi_pow = 1 << FILTER_BITS
            den_pow = 1
            for _ in range(self.degree):
                lows.append(lo_pow // den_pow)
                highs.append(-(-hi_pow // den_pow))
                lo_pow *= self.num_lo
                hi_pow *= self.num_hi
                den_pow *= self.den
            self._filter_table = tuple(lows), tuple(highs)
        return self._filter_table

    def fixed_point_bounds(self, ints):
        """Integers (lower, upper) enclosing 2^FILTER_BITS times
        sum ints[k] * beta^k, for integer coordinates ints.

        Each coordinate contributes min(a L_k, a H_k) to the lower sum and
        max(a L_k, a H_k) to the upper one.  These are superadditive and
        subadditive in a, so bounds of summands add up to bounds of the
        sum that are no tighter than the sum's own.  A refinement only
        tightens the table, so bounds taken earlier stay valid and contain
        the bounds taken later."""
        lows, highs = self._table()
        lower = upper = 0
        for a, low, high in zip(ints, lows, highs):
            if a > 0:
                lower += a * low
                upper += a * high
            elif a:
                lower += a * high
                upper += a * low
        return lower, upper

    def filter_sign(self, ints):
        """Sign of sum ints[k] * beta^k for integer coordinates when the
        table decides it, else 0.  Never refines."""
        lower, upper = self.fixed_point_bounds(ints)
        if lower > 0:
            return 1
        if upper < 0:
            return -1
        return 0

    def int_sign(self, ints):
        """-1, 0, or +1: the certified sign of sum ints[k] * beta^k for
        integer coordinates; FieldElem.sign() is this on an element's
        coordinates times the lcm of their denominators.

        A rational vector is decided exactly, then the fixed-point filter
        is tried, and only when it cannot decide is the Horner enclosure
        refined until it excludes zero.  The filter's sums and the
        enclosure scale with the vector, so a positive multiple of ints
        gets the same decisions and the same refinements: the vector may
        be taken over any common denominator."""
        if not any(ints[1:]):
            a = ints[0]
            return (a > 0) - (a < 0)
        return self.filter_sign(ints) or self._refined_sign(ints)

    def _horner_enclosure(self, ints):
        """Integers (lower, upper, scale), scale = den^(degree-1), such
        that [lower / scale, upper / scale] is the Horner enclosure of
        sum ints[k] * x^k on the interval.

        Step j of the Horner loop, with x*den in [num_lo, num_hi], adds
        the next coordinate times den^j."""
        num_lo, num_hi, den = self.num_lo, self.num_hi, self.den
        lower = upper = ints[-1]
        den_pow = 1
        for a in reversed(ints[:-1]):
            den_pow *= den
            # num_lo > 0, so these are the min and max of the four products
            if lower >= 0:
                lower, upper = lower * num_lo, upper * num_hi
            elif upper <= 0:
                lower, upper = lower * num_hi, upper * num_lo
            else:
                lower, upper = lower * num_hi, upper * num_hi
            a *= den_pow
            lower += a
            upper += a
        return lower, upper, den_pow

    def _refined_sign(self, ints):
        """Sign of a nonzero integer vector by Horner enclosure and
        refinement, which terminates because a nonzero vector of degree
        < n cannot vanish at a root of an irreducible polynomial of
        degree n."""
        for _ in range(10_000):
            lower, upper, _ = self._horner_enclosure(ints)
            if lower > 0:
                return 1
            if upper < 0:
                return -1
            self._refine_once()
        raise AssertionError("sign refinement failed to converge")

    def times_beta(self, ints):
        """beta times a coordinate tuple (companion matrix); the
        coordinates may be Fractions too."""
        top = ints[-1]
        base = (0,) + ints[:-1]
        if top:
            base = tuple([a + top * b for a, b in zip(base, self._companion)])
        return base

    # -- element constructors ------------------------------------------

    def element(self, coords):
        coords = [_canon(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        coords += [0] * (self.degree - len(coords))
        return FieldElem(self, tuple(coords))

    def zero(self):
        return self.element([])

    def rational(self, value):
        return self.element([value])

    def beta(self):
        if self.degree == 1:
            return self.rational(-self.minpoly[0])
        return self.element([0, 1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)


class FieldElem:
    """Element of Q(beta) as a rational vector in the power basis, each
    coordinate an int when integral and a Fraction otherwise."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, tuple(map(
            _canon, map(operator.add, self.coords, other.coords))))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.field, tuple(map(
            _canon, map(operator.sub, self.coords, other.coords))))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.field,
                             tuple(_canon(a * other) for a in self.coords))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Horner over the other factor: acc = beta * acc + b_j * self
        field = self.field
        acc = (0,) * field.degree
        for b in reversed(other.coords):
            acc = field.times_beta(acc)
            if b:
                acc = tuple([c + b * a for c, a in zip(acc, self.coords)])
        return FieldElem(field, tuple(map(_canon, acc)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self):
        """Multiplicative inverse: column 0 of the integer adjugate of the
        element's multiplication matrix, divided by its determinant, the
        norm.

        With the coordinates scaled to ints / scale, the matrix A whose
        column j is ints * beta^j has A^-1 = -N_(m-1) / c_m by
        `_faddeev_leverrier` at x = 0 (adj(-A) = N_(m-1) and
        det(-A) = c_m), and the inverse is scale times A^-1 applied to
        the coordinates of 1."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        ints, scale = self._ints()
        cols = [ints]
        for _ in range(field.degree - 1):
            cols.append(field.times_beta(cols[-1]))
        coeffs, adjugate = _faddeev_leverrier(list(zip(*cols)))
        norm = coeffs[-1]
        if not norm:
            raise AssertionError("element shares a factor with the minpoly")
        return FieldElem(field, tuple(_canon(Fraction(-scale * row[0], norm))
                                      for row in adjugate[-1]))

    # -- exact predicates ------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def _ints(self):
        """(ints, scale): the coordinates times the lcm of their
        denominators, as ints."""
        coords = self.coords
        scale = common_denominator(coords)
        return (coords if scale == 1 else scaled_coords(coords, scale)), scale

    def sign(self):
        """-1, 0, or +1, certified: `NumberField.int_sign` of the
        coordinates scaled to ints.

        A rational element is decided exactly.  Otherwise the fixed-point
        filter is tried first, and when it cannot decide the enclosing
        interval is refined until it excludes zero.
        """
        return self.field.int_sign(self._ints()[0])

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)


# ---------------------------------------------------------------------------
# Dominant-root field extraction
# ---------------------------------------------------------------------------


def dominant_field(factor, cofactor):
    """NumberField of the largest real root of the irreducible monic
    `factor` when it exceeds every real root of `cofactor`
    (`polys.dominates`), else None; the field starts from the factor's
    isolating interval, or from the point of an integer root."""
    interval = ((-factor[0], -factor[0], 1) if polys.degree(factor) == 1
                else polys.isolate_largest_real_root(factor))
    if interval is None or not polys.dominates(factor, interval, cofactor):
        return None
    num_lo, num_hi, den = interval
    return NumberField(factor, Fraction(num_lo, den), Fraction(num_hi, den))


def perron_factor(p):
    """NumberField of the largest real root of a monic integer polynomial
    p, a simple root as a primitive matrix's Perron root is: that of the
    first distinct factor, in sorted order, passing `dominant_field`."""
    for f in sorted(set(map(tuple, polys.factor_monic(p)))):
        field = dominant_field(f, polys.exact_int_divide(p, f))
        if field is not None:
            return field
    raise FactorizationFailed("polynomial has no simple largest real root")


# ---------------------------------------------------------------------------
# Pisot test: exact root counting in the unit disk
# ---------------------------------------------------------------------------


def count_roots_in_open_unit_disk(q):
    """Number of complex roots of q strictly inside the unit circle, or
    None when a root lies on the circle.  The Cayley map z = (1+w)/(1-w)
    takes the disk to the left half-plane: Q(w) = sum a_k (1+w)^k
    (1-w)^(n-k) keeps degree n unless q(-1) = 0, and i^(-n) Q(iy) =
    R(y) + i S(y) with deg R = n.  Q has (n - I) / 2 roots with Re w < 0,
    I the Cauchy index of S/R read off the signed remainder chain of R
    and S; a root on the circle is a real root of the chain's last entry,
    gcd(R, S)."""
    n = polys.degree(q)
    if n < 1:
        return 0
    image, minus_pow = [q[-1]], [1]
    for a in reversed(q[:-1]):
        minus_pow = polys.mul(minus_pow, [1, -1])
        image = polys.add(polys.mul(image, [1, 1]), polys.scale(minus_pow, a))
    if polys.degree(image) < n:
        return None
    re = [c * (1, 0, -1, 0)[(n - k) % 4] for k, c in enumerate(image)]
    im = [c * (0, -1, 0, 1)[(n - k) % 4] for k, c in enumerate(image)]
    chain = polys.signed_remainder_chain(re, im)
    if polys.count_real_roots(chain[-1]) > 0:
        return None
    return (n - polys.variations_at_neg_inf(chain) +
            polys.variations_at_pos_inf(chain)) // 2


def is_pisot(field: NumberField) -> bool:
    """True iff every conjugate of beta other than beta itself has modulus
    strictly below one (a root exactly on the circle fails the test)."""
    q = list(field.minpoly)
    n = field.degree
    if n == 1:
        return -q[0] >= 2
    return count_roots_in_open_unit_disk(q) == n - 1
