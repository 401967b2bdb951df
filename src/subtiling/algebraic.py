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
  k >= 0.  Rounding outward, L_k = floor(2^P lo^k) and
  H_k = ceil(2^P hi^k) are integers with L_k <= 2^P beta^k <= H_k
  (P = FILTER_BITS).  Scaled by the lcm of its denominators, an element
  has integer coordinates a_k, and 2^P times its value lies between
  sum a_k (L_k if a_k > 0 else H_k) and sum a_k (H_k if a_k > 0 else L_k).
  A lower sum above zero or an upper sum below zero is the sign.  The
  table of L_k and H_k is cached per refinement generation, and the
  filter never refines the interval.  The two sums are also exposed as
  an enclosure (fixed_point_bounds), which a patch takes once per tile
  boundary, on the integer vectors it holds.
* Exact route.  When the filter cannot decide, the coordinate polynomial
  is evaluated by Horner's rule in integer interval arithmetic on
  [num_lo, num_hi]: scaled by the lcm of its denominators, the element's
  step j adds the next coordinate times den^j, so the result is the
  rational interval Horner enclosure on [lo, hi] times a positive
  integer.  The interval is bisected until the enclosure excludes zero;
  a bisection doubles num_lo, num_hi and den and takes the midpoint
  num_lo + num_hi of the old ends, decided by the sign of the minimal
  polynomial there in homogeneous integer Horner form.  A RatInterval
  is built only at the boundary (interval()).

Both stages compute with ints only, and neither has a tolerance.  The
Pisot test counts conjugates in the open unit disk exactly, by a winding
number computed from signed remainder sequences; roots on the unit circle
are detected through the reciprocal-polynomial criterion.  Every verdict
of this module is decided in exact arithmetic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import polys
from .errors import FactorizationFailed

# Fixed-point scale of the sign filter: beta^k is enclosed by integers
# over 2^FILTER_BITS.  The rounding error is far below the 2^-20 interval
# width every analysis works at, so the width alone limits the filter.
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


def unscaled_coords(ints, denom):
    """The coordinate vector ints / denom in normal form; the inverse of
    scaled_coords."""
    if denom == 1:
        return tuple(ints)
    return tuple([_canon(Fraction(a, denom)) for a in ints])


class RatInterval:
    """Closed interval with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"

    @property
    def width(self):
        return self.hi - self.lo

    def __add__(self, other):
        if isinstance(other, RatInterval):
            return RatInterval(self.lo + other.lo, self.hi + other.hi)
        return RatInterval(self.lo + other, self.hi + other)

    def __mul__(self, other):
        if isinstance(other, RatInterval):
            vals = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
            return RatInterval(min(vals), max(vals))
        if other >= 0:
            return RatInterval(self.lo * other, self.hi * other)
        return RatInterval(self.hi * other, self.lo * other)

    def sign(self):
        """+1, -1, or None when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None


def char_poly(matrix):
    """Monic characteristic polynomial of an integer matrix, ascending
    coefficients, by the Faddeev-LeVerrier recurrence in integers."""
    m = len(matrix)
    rows = [[int(c) for c in row] for row in matrix]
    coeffs = [1]                    # descending: x^m, x^(m-1), ...
    work = [[0] * m for _ in range(m)]
    for k in range(1, m + 1):
        for i in range(m):
            work[i][i] += coeffs[-1]
        cols = list(zip(*work))
        work = [[sum(map(operator.mul, row, col)) for col in cols]
                for row in rows]
        coeff, rem = divmod(-sum(work[i][i] for i in range(m)), k)
        if rem:
            raise AssertionError("characteristic polynomial not integral")
        coeffs.append(coeff)
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
        self.generation = 0
        self._filter_table = None
        self._filter_gen = -1
        guard = 0
        while self.num_lo <= self.den:
            if self.num_hi <= self.den or guard > 512:
                raise ValueError("dominant root is not greater than one")
            self._refine_once()
            guard += 1
        # rows: coordinates of beta^(degree+j) for j = 0..degree-2
        table = []
        if self.degree >= 2:
            base = [-c for c in self.minpoly[:-1]]
            table.append(base)
            row = base
            for _ in range(self.degree - 2):
                overflow = row[-1]
                row = [0] + row[:-1]
                if overflow:
                    row = [a + overflow * b for a, b in zip(row, base)]
                table.append(row)
        self._reduction_rows = table

    # -- interval management -------------------------------------------

    def _minpoly_sign(self, num, den):
        """Sign of minpoly(num / den) for den > 0, from the homogeneous
        integer Horner sum of c_k num^k den^(n-k)."""
        coeffs = self.minpoly
        acc = coeffs[-1]
        den_pow = 1
        for c in reversed(coeffs[:-1]):
            den_pow *= den
            acc = acc * num + c * den_pow
        return (acc > 0) - (acc < 0)

    def _refine_once(self):
        if self.degree == 1:
            raise AssertionError("rational beta never needs refinement")
        # the midpoint over the doubled denominator
        mid = self.num_lo + self.num_hi
        self.num_lo *= 2
        self.num_hi *= 2
        self.den *= 2
        s = self._minpoly_sign(mid, self.den)
        if s == 0:
            raise AssertionError("irreducible minpoly has no rational root")
        if s == self._lo_sign:
            self.num_lo = mid
        else:
            self.num_hi = mid
        self.generation += 1

    def interval(self):
        return RatInterval(Fraction(self.num_lo, self.den),
                           Fraction(self.num_hi, self.den))

    def ensure_width(self, width):
        width = Fraction(width)
        while ((self.num_hi - self.num_lo) * width.denominator >
               width.numerator * self.den):
            self._refine_once()

    def _fixed_point_table(self):
        """(L, H) with L[k] <= 2^FILTER_BITS * beta^k <= H[k] for
        k < degree, from the current interval; rebuilt per generation."""
        if self._filter_gen != self.generation:
            lows, highs = [], []
            lo_pow = hi_pow = 1 << FILTER_BITS
            den_pow = 1
            for _ in range(self.degree):
                lows.append(lo_pow // den_pow)
                highs.append(-(-hi_pow // den_pow))
                lo_pow *= self.num_lo
                hi_pow *= self.num_hi
                den_pow *= self.den
            self._filter_table = (tuple(lows), tuple(highs))
            self._filter_gen = self.generation
        return self._filter_table

    def fixed_point_bounds(self, ints):
        """Integers (lower, upper) enclosing 2^FILTER_BITS times
        sum ints[k] * beta^k, for integer coordinates ints.

        Each coordinate contributes min(a L_k, a H_k) to the lower sum and
        max(a L_k, a H_k) to the upper one.  These are superadditive and
        subadditive in a, so bounds of summands add up to bounds of the
        sum that are no tighter than the sum's own; and a refinement only
        tightens the table, so bounds taken earlier stay valid."""
        lows, highs = self._fixed_point_table()
        lower = upper = 0
        for a, low, high in zip(ints, lows, highs):
            if a > 0:
                lower += a * low
                upper += a * high
            elif a:
                lower += a * high
                upper += a * low
        return lower, upper

    def filter_sign(self, coords):
        """Sign of sum coords[k] * beta^k when the fixed-point table
        decides it, else 0.  Integer arithmetic only; never refines."""
        # common_denominator and scaled_coords, inlined: this runs once
        # per certified sign
        denom = 1
        for c in coords:
            if type(c) is not int:
                denom = math.lcm(denom, c.denominator)
        if denom != 1:
            coords = [c.numerator * (denom // c.denominator) for c in coords]
        lower, upper = self.fixed_point_bounds(coords)
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

    # -- element constructors ------------------------------------------

    def element(self, coords):
        coords = [_canon(c) for c in coords]
        if len(coords) > self.degree:
            raise ValueError("coordinate vector longer than field degree")
        coords += [0] * (self.degree - len(coords))
        return FieldElem(self, tuple(coords))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([1])

    def rational(self, value):
        return self.element([value])

    def beta(self):
        if self.degree == 1:
            return self.rational(-self.minpoly[0])
        return self.element([0, 1])

    def _reduce(self, coords):
        """Reduce a coordinate list of length <= 2*degree-1 mod minpoly."""
        n = self.degree
        out = list(coords[:n]) + [0] * max(0, n - len(coords))
        for j, c in enumerate(coords[n:]):
            if c:
                row = self._reduction_rows[j]
                for t in range(n):
                    out[t] += c * row[t]
        return tuple(map(_canon, out))

    def __repr__(self):
        return f"NumberField(minpoly={list(self.minpoly)})"

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

    def __repr__(self):
        return f"FieldElem({[str(c) for c in self.coords]})"

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
        n = self.field.degree
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        return FieldElem(self.field, self.field._reduce(prod))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm
        against the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        minpoly = [Fraction(c) for c in self.field.minpoly]
        a = polys.normalize(list(self.coords))
        # Bezout: u*a + v*minpoly = gcd = constant
        r0, r1 = minpoly, a
        u0, u1 = [], [Fraction(1)]
        while polys.degree(r1) > 0:
            q, r = polys.divmod_rational(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, polys.sub(u0, polys.mul(q, u1))
        if not r1:
            raise AssertionError("element shares a factor with the minpoly")
        c = Fraction(r1[0])
        inv = [Fraction(x) / c for x in u1]
        return FieldElem(self.field, self.field._reduce(inv))

    # -- exact predicates ------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("element is irrational")
        return Fraction(self.coords[0])

    def _ints(self):
        """(ints, scale): the coordinates times the lcm of their
        denominators, as ints."""
        coords = self.coords
        scale = common_denominator(coords)
        return (coords if scale == 1 else scaled_coords(coords, scale)), scale

    def _enclosure(self):
        """Integers (lower, upper, scale), scale > 0, such that
        [lower / scale, upper / scale] is the Horner enclosure of the
        coordinate polynomial on the field's interval
        (`NumberField._horner_enclosure` of the scaled coordinates)."""
        ints, scale = self._ints()
        lower, upper, den_pow = self.field._horner_enclosure(ints)
        return lower, upper, scale * den_pow

    def interval(self):
        """Enclosing rational interval at the current refinement."""
        lower, upper, scale = self._enclosure()
        return RatInterval(Fraction(lower, scale), Fraction(upper, scale))

    def sign(self):
        """-1, 0, or +1, certified: `NumberField.int_sign` of the
        coordinates scaled to ints.

        A rational element is decided exactly.  Otherwise the fixed-point
        filter is tried first, and when it cannot decide the enclosing
        interval is refined until it excludes zero.
        """
        return self.field.int_sign(self._ints()[0])

    def _interval_sign(self):
        """Sign of a nonzero element by interval evaluation and refinement."""
        return self.field._refined_sign(self._ints()[0])

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.field == other.field and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0


# ---------------------------------------------------------------------------
# Dominant-root field extraction
# ---------------------------------------------------------------------------


def _largest_real_root_interval(factor):
    """Isolating interval of the largest real root of an irreducible monic
    factor, or None when the factor has no real root."""
    if polys.degree(factor) == 1:
        r = Fraction(-factor[0])
        return (r, r)
    iso = polys.isolate_largest_real_root(factor)
    return iso


def _interval_compare(p1, ivl1, p2, ivl2):
    """-1/+1 comparing the real roots isolated in ivl1 and ivl2; the roots
    belong to distinct irreducible polynomials so they are never equal."""
    lo1, hi1 = ivl1
    lo2, hi2 = ivl2
    while True:
        if hi1 < lo2:
            return -1
        if hi2 < lo1:
            return 1
        if hi1 - lo1 >= hi2 - lo2 and hi1 > lo1:
            lo1, hi1 = polys.refine_root_interval(p1, lo1, hi1)
        elif hi2 > lo2:
            lo2, hi2 = polys.refine_root_interval(p2, lo2, hi2)
        else:
            # both intervals are points; distinct rationals
            return -1 if lo1 < lo2 else 1


def perron_factor(p):
    """NumberField generated by the largest real root of a monic integer
    polynomial, e.g. a characteristic polynomial of a primitive matrix."""
    factors = polys.factor_monic(p)
    best = None
    for f in sorted(set(map(tuple, factors))):
        f = list(f)
        ivl = _largest_real_root_interval(f)
        if ivl is None:
            continue
        if best is None or _interval_compare(f, ivl, best[0], best[1]) > 0:
            best = (f, ivl)
    if best is None:
        raise FactorizationFailed("polynomial has no real root")
    minpoly, (lo, hi) = best
    field = NumberField(minpoly, lo, hi)
    return field


# ---------------------------------------------------------------------------
# Pisot test: exact root counting in the unit disk
# ---------------------------------------------------------------------------


def _reciprocal(p):
    return polys.normalize(list(reversed(p)))


def _halved_palindrome(q):
    """For palindromic q of even degree 2k, the degree-k polynomial r with
    q(x) = x^k * r(x + 1/x).  Uses p_j(y) = x^j + x^-j, p_j = y*p_(j-1) - p_(j-2)."""
    n = polys.degree(q)
    k = n // 2
    p_prev = [2]          # p_0
    p_cur = [0, 1]        # p_1
    r = [q[k]]
    for j in range(1, k + 1):
        r = polys.add(r, polys.scale(p_cur if j > 0 else p_prev, q[k + j]))
        p_prev, p_cur = p_cur, polys.sub(polys.mul([0, 1], p_cur), p_prev)
    return r


def has_root_on_unit_circle(q):
    """Exact test for an irreducible integer polynomial.

    A root on the unit circle forces q to agree with its reciprocal up to
    sign.  The anti-palindromic case is reducible for degree >= 2, so only
    the palindromic one remains; there the circle roots correspond to real
    roots of the halved polynomial in (-2, 2), counted by Sturm chains.
    """
    n = polys.degree(q)
    if n == 1:
        return abs(q[0]) == abs(q[1])
    rec = _reciprocal(q)
    if polys.normalize(polys.sub(q, rec)) and \
       polys.normalize(polys.add(q, rec)):
        return False
    if not polys.normalize(polys.add(q, rec)):
        # anti-palindromic: x = 1 is a root, contradicting irreducibility
        return polys.eval_at(q, 1) == 0
    if n % 2 == 1:
        # palindromic odd degree has root -1, contradicting irreducibility
        return polys.eval_at(q, -1) == 0
    r = _halved_palindrome(q)
    return polys.count_real_roots(r, Fraction(-2), Fraction(2)) > 0


def _circle_image(q):
    """Real and imaginary parts of (1+t^2)^n * q(z(t)) where
    z(t) = (1-t^2 + 2it)/(1+t^2) sweeps the unit circle."""
    n = polys.degree(q)
    re, im = [], []
    sq = [1, 0, 1]                      # 1 + t^2
    base_re, base_im = [1, 0, -1], [0, 2]   # (1+it)^2
    pow_re, pow_im = [1], []            # (1+it)^(2k)
    sq_pows = [[1]]
    for _ in range(n):
        sq_pows.append(polys.mul(sq_pows[-1], sq))
    for k, a in enumerate(q):
        if a:
            term_re = polys.scale(polys.mul(pow_re, sq_pows[n - k]), a)
            term_im = polys.scale(polys.mul(pow_im, sq_pows[n - k]), a)
            re = polys.add(re, term_re)
            im = polys.add(im, term_im)
        new_re = polys.sub(polys.mul(pow_re, base_re),
                           polys.mul(pow_im, base_im))
        new_im = polys.add(polys.mul(pow_re, base_im),
                           polys.mul(pow_im, base_re))
        pow_re, pow_im = new_re, new_im
    return re, im


def count_roots_in_open_unit_disk(q):
    """Number of complex roots of q strictly inside the unit circle,
    assuming none lie on the circle.  Winding number of the circle image,
    computed as a signed count of ray crossings via Tarski queries."""
    n = polys.degree(q)
    if n < 1:
        return 0
    re, im = _circle_image(q)
    common = polys.poly_gcd(re, im)
    if polys.count_real_roots(common) > 0:
        raise AssertionError("unexpected root on the unit circle")
    q_at_minus1 = polys.eval_at(q, -1)
    if q_at_minus1 == 0:
        raise ValueError("q(-1) = 0: root on the unit circle")
    crossings = polys.odd_multiplicity_part(im)
    if polys.degree(crossings) < 1:
        return 0
    u = polys.tarski_query(polys.derivative(crossings), crossings)
    w = polys.tarski_query(polys.mul(re, polys.derivative(crossings)),
                           crossings)
    if (u + w) % 2 or (u - w) % 2:
        raise AssertionError("inconsistent crossing parity")
    if q_at_minus1 < 0:
        # count crossings of the positive real axis
        return (u + w) // 2
    return -((u - w) // 2)


def is_pisot(field: NumberField) -> bool:
    """True iff every conjugate of beta other than beta itself has modulus
    strictly below one (a root exactly on the circle fails the test)."""
    q = list(field.minpoly)
    n = field.degree
    if n == 1:
        return -q[0] >= 2
    if has_root_on_unit_circle(q):
        return False
    return count_roots_in_open_unit_disk(q) == n - 1
