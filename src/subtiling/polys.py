"""Exact univariate polynomial arithmetic over Z.

A polynomial is a list of coefficients in ascending degree, so
[a0, a1, a2] stands for a0 + a1*x + a2*x**2.  The zero polynomial is
the empty list.  Nothing here ever touches a float.  Degrees stay small
(below ~20), so the classical algorithms are used throughout: signed
remainder sequences for Sturm chains and Tarski queries, a primitive
remainder sequence for gcds, Yun's algorithm for squarefree parts, Rabin's
test by a Frobenius matrix, and a bounded integer factor search for monic
polynomials, which `factor_monic` runs and `is_irreducible` reads.

Everything that takes a polynomial computes over Z.  Remainders are
pseudo-remainders (a positive multiple of the remainder over Q, so the
same signs and the same primitive part), exact division is integer
division, and a sign at a rational point a/b is the sign of the
homogeneous integer sum of c_k a^k b^(n-k).  A rational interval is a
triple (num_lo, num_hi, den) of ints, standing for
[num_lo / den, num_hi / den], and one bisection step, `bisect`, serves
root isolation here and the refinement of beta's interval in
`algebraic`.  No Fraction is made.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import DegreeCapExceeded, FactorizationFailed


def normalize(p):
    """Strip trailing zero coefficients."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def degree(p):
    return len(p) - 1


def leading(p):
    return p[-1] if p else 0


def add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def neg(p):
    return [-c for c in p]


def sub(p, q):
    return add(p, neg(q))


def scale(p, c):
    if c == 0:
        return []
    return [a * c for a in p]


def mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return normalize(out)


def eval_at(p, x):
    """Horner evaluation; works for int, Fraction, or interval x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return normalize([i * c for i, c in enumerate(p)][1:])


def exact_int_divide(p, q):
    """Return p // q when q divides p over Z, else None."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = normalize(p)
    lead = q[-1]
    dq = degree(q)
    quo = [0] * max(len(rem) - dq, 1)
    while len(rem) - 1 >= dq:
        c, r = divmod(rem[-1], lead)
        if r:
            return None
        k = len(rem) - 1 - dq
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = normalize(rem)
    if rem:
        return None
    return normalize(quo)


def pseudo_remainder(p, q):
    """A positive integer multiple of the remainder of p by q over Q:
    the remainder of |lc(q)|^e * p by q, e at most deg p - deg q + 1.
    For a monic q it is the remainder itself."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = normalize(p)
    lead = q[-1]
    scale, sgn = abs(lead), _sign(lead)
    dq = degree(q)
    while len(rem) - 1 >= dq:
        # scale * top - (top * sgn) * lead == 0
        c = rem[-1] * sgn
        k = len(rem) - 1 - dq
        if scale != 1:
            rem = [a * scale for a in rem]
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = normalize(rem)
    return rem


def content(p):
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g


def primitive_part(p):
    """Integer polynomial divided by its content, leading coefficient > 0."""
    p = normalize(p)
    if not p:
        return []
    g = content(p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def poly_gcd(p, q):
    """Primitive gcd over Z, leading coefficient > 0, by the primitive
    remainder sequence."""
    a, b = primitive_part(p), primitive_part(q)
    while b:
        a, b = b, primitive_part(pseudo_remainder(a, b))
    return a


def squarefree_part(p):
    """Primitive squarefree part.  The gcd g is primitive, so by Gauss's
    lemma it divides the primitive part of p over Z."""
    g = poly_gcd(p, derivative(p))
    if degree(g) < 1:
        return primitive_part(p)
    return exact_int_divide(primitive_part(p), g)


def yun_squarefree_decomposition(p):
    """Return [(q1, 1), (q2, 2), ...] with p = c * prod qi**i, qi pairwise
    coprime, squarefree, and primitive over Z.

    Every divisor is a primitive gcd, so by Gauss's lemma each exact
    quotient is integral and w, y and z stay the rational recurrence's
    own values; rescaling w and z independently would break it.
    """
    p = primitive_part(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    g = poly_gcd(p, dp)
    if degree(g) < 1:
        return [(p, 1)]
    out = []
    w = exact_int_divide(p, g)
    y = exact_int_divide(dp, g)
    z = sub(y, derivative(w))
    i = 1
    while degree(w) >= 1:
        if i > degree(p):
            raise AssertionError("squarefree decomposition failed to terminate")
        q = poly_gcd(w, z)
        if degree(q) >= 1:
            out.append((q, i))
            w = exact_int_divide(w, q)
            y = exact_int_divide(z, q)
        else:
            y = z
        z = sub(y, derivative(w))
        i += 1
    return out


def odd_multiplicity_part(p):
    """Product of the squarefree factors of odd multiplicity, signed so
    that p / result is nonnegative on all of R."""
    parts = yun_squarefree_decomposition(p)
    e = [1]
    for q, i in parts:
        if i % 2 == 1:
            e = mul(e, q)
    if leading(p) * leading(e) < 0:
        e = neg(e)
    return e


def _sign(x):
    return (x > 0) - (x < 0)


def sign_variations(signs):
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _positive_rescale(p):
    """Divide an integer polynomial by its content, a positive integer;
    the sign pattern is preserved."""
    p = normalize(p)
    if not p:
        return []
    g = content(p)
    return [c // g for c in p]


def signed_remainder_chain(f, g):
    """Generalized Sturm chain f, g, -rem(f, g), ... of integer
    polynomials; entries are rescaled by positive rationals, which leaves
    sign variations unchanged.  A pseudo-remainder is a positive multiple
    of the remainder, so each entry is the primitive remainder itself."""
    chain = [_positive_rescale(f)]
    g = _positive_rescale(g)
    if g:
        chain.append(g)
    while len(chain) >= 2 and chain[-1]:
        r = pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_positive_rescale(neg(r)))
    return chain


def sturm_chain(p):
    return signed_remainder_chain(p, derivative(p))


def sign_at(p, num, den):
    """Sign of an integer polynomial at num / den for den > 0: the sign
    of the homogeneous integer Horner sum of c_k num^k den^(n-k)."""
    if not p:
        return 0
    acc = p[-1]
    den_pow = 1
    for c in reversed(p[:-1]):
        den_pow *= den
        acc = acc * num + c * den_pow
    return _sign(acc)


def variations_at(chain, num, den):
    """Sign variations of the chain at num / den for den > 0."""
    return sign_variations([sign_at(p, num, den) for p in chain])


def variations_at_pos_inf(chain):
    return sign_variations([_sign(leading(p)) for p in chain])


def variations_at_neg_inf(chain):
    return sign_variations(
        [_sign(leading(p)) * (-1) ** (degree(p) % 2) for p in chain]
    )


def count_real_roots(p):
    """Distinct real roots of p."""
    p = squarefree_part(p)
    if degree(p) < 1:
        return 0
    chain = sturm_chain(p)
    return variations_at_neg_inf(chain) - variations_at_pos_inf(chain)


def tarski_query(g, f):
    """Sum of sign(g(x)) over the distinct real roots x of f."""
    if degree(f) < 1:
        return 0
    chain = signed_remainder_chain(f, mul(derivative(f), g))
    return variations_at_neg_inf(chain) - variations_at_pos_inf(chain)


def cauchy_root_bound(p):
    """(num, den) with every real root of p in [-num / den, num / den]."""
    p = normalize(p)
    lead = abs(p[-1])
    return lead + max(map(abs, p[:-1]), default=0), lead


def bisect(p, interval, above):
    """One bisection step of the interval (num_lo, num_hi, den), which
    stands for [num_lo / den, num_hi / den], over the doubled denominator:
    the upper half (mid, 2 num_hi, 2 den) when above(mid, 2 den, s), else
    the lower half (2 num_lo, mid, 2 den), where mid = num_lo + num_hi and
    s is the sign of p at the midpoint mid / (2 den).  A midpoint that is
    a root of p raises FactorizationFailed.

    On an interval where p changes sign, `above` is s == the sign at the
    lower end, which keeps the sign change."""
    num_lo, num_hi, den = interval
    mid, den = num_lo + num_hi, 2 * den
    s = sign_at(p, mid, den)
    if s == 0:
        raise FactorizationFailed("bisection midpoint is a rational root")
    if above(mid, den, s):
        return mid, 2 * num_hi, den
    return 2 * num_lo, mid, den


def isolate_largest_real_root(p):
    """Isolating interval (num_lo, num_hi, den) of the largest real root
    of p, which lies in (num_lo / den, num_hi / den], or None when p has
    no real root.

    The Cauchy interval is bisected, keeping the half above the midpoint
    while the Sturm chain counts a root there, until one root is left.
    Requires that bisection midpoints are never roots, which holds when p
    has no rational roots (callers factor those out first).
    """
    sf = squarefree_part(p)
    if degree(sf) < 1:
        return None
    chain = sturm_chain(sf)
    bound, den = cauchy_root_bound(sf)
    interval = (-bound, bound, den)
    v_lo = variations_at(chain, -bound, den)
    v_hi = variations_at(chain, bound, den)
    if v_lo == v_hi:
        return None
    # Invariant: the largest root lies in (lo, hi] and none lies above hi,
    # so v_hi stays; v_lo - v_hi roots lie in (lo, hi].
    while v_lo - v_hi > 1:
        interval = bisect(sf, interval, lambda mid, den, s:
                          variations_at(chain, mid, den) > v_hi)
        v_lo = variations_at(chain, interval[0], interval[2])
    return interval


# ---------------------------------------------------------------------------
# Irreducibility and factorization over Z (monic inputs)
# ---------------------------------------------------------------------------

IRREDUCIBILITY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
DEGREE_CAP = 12
FACTOR_WORK_CAP = 2_000_000


def _modp_normalize(p, m):
    return normalize([c % m for c in p])


def _modp_rem(p, q, m):
    inv = pow(q[-1], -1, m)
    rem = list(p)
    dq = len(q) - 1
    while len(rem) - 1 >= dq and rem:
        rem = normalize(rem)
        if len(rem) - 1 < dq:
            break
        c = rem[-1] * inv % m
        k = len(rem) - 1 - dq
        for i, b in enumerate(q):
            rem[k + i] = (rem[k + i] - c * b) % m
        rem[-1] = 0
    return normalize(rem)


def _modp_gcd(p, q, m):
    a, b = _modp_normalize(p, m), _modp_normalize(q, m)
    while b:
        a, b = b, _modp_rem(a, b, m)
    return a


def _modp_frobenius(f, m):
    """Rows x^(i*m) mod (f, m) for i < n = deg f, as length-n coefficient
    lists: the matrix of g -> g^m on F_m[x]/(f), since over F_m
    (sum g_i x^i)^m = sum g_i x^(i*m).  The powers of x are walked by
    multiplying by x, one reduction by the monic f per step."""
    n = len(f) - 1
    inv = pow(f[-1], -1, m)
    tail = [c * inv % m for c in f[:-1]]    # x^n = -sum tail[i] x^i
    power = [1] + [0] * (n - 1)
    rows = [power]
    for _ in range(n - 1):
        for _ in range(m):
            top = power[-1]
            power = [0] + power[:-1]
            if top:
                power = [(a - top * t) % m for a, t in zip(power, tail)]
        rows.append(power)
    return rows


def _modp_frobenius_apply(rows, g, m):
    """g^m mod (f, m) for a length-n coefficient list g, by the rows of
    _modp_frobenius."""
    out = [0] * len(rows)
    for c, row in zip(g, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return [a % m for a in out]


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible_mod_p(p, m):
    """Rabin's test over F_m; requires the leading coefficient to be a unit.

    f of degree n is irreducible iff x^(m^n) = x mod f and
    gcd(x^(m^(n/q)) - x, f) = 1 for every prime q dividing n.  The powers
    x^(m^k) come from k applications of the Frobenius matrix."""
    f = _modp_normalize(p, m)
    n = degree(p)
    if len(f) - 1 != n:
        return False
    if n == 1:
        return True
    frobenius = _modp_frobenius(f, m)
    x = [0, 1] + [0] * (n - 2)
    # x^(m^k) mod (f, m) for k = 0..n
    powers = [x]
    for _ in range(n):
        powers.append(_modp_frobenius_apply(frobenius, powers[-1], m))
    if powers[n] != x:
        return False
    for q in _prime_divisors(n):
        xq = powers[n // q]
        g = _modp_gcd(_modp_normalize(sub(xq, [0, 1]), m), f, m)
        if degree(g) >= 1:
            return False
    return True


def integer_roots(p):
    """Integer roots of a primitive integer polynomial, with multiplicity."""
    p = normalize(p)
    roots = []
    while p and p[0] == 0:
        roots.append(0)
        p = p[1:]
    if degree(p) < 1:
        return roots, p
    cands = set()
    a0 = abs(p[0])
    for d in range(1, isqrt(a0) + 1):
        if a0 % d == 0:
            cands.update((d, a0 // d, -d, -(a0 // d)))
    for r in sorted(cands):
        while degree(p) >= 1 and eval_at(p, r) == 0:
            roots.append(r)
            p = exact_int_divide(p, [-r, 1])
    return roots, p


def _divisor_pairs(n):
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.extend((d, -d))
            if d != n // d:
                out.extend((n // d, -(n // d)))
    return sorted(out)


def _l2_norm_ceiling(p):
    s = sum(c * c for c in p)
    r = isqrt(s)
    return r if r * r == s else r + 1


def _find_monic_factor(p):
    """Smallest-degree monic integer factor of monic p with no integer
    roots, or None if p is irreducible.  Coefficients are bounded by the
    Landau-Mignotte bound 2**d * |p|_2; candidates are pruned by requiring
    g(0) | p(0), g(1) | p(1) and g(-1) | p(-1).  More than
    FACTOR_WORK_CAP candidates raise FactorizationFailed."""
    n = degree(p)
    norm = _l2_norm_ceiling(p)
    p0, p1, pm1 = p[0], eval_at(p, 1), eval_at(p, -1)
    work = 0
    for d in range(2, n // 2 + 1):
        bound = (1 << d) * norm
        const_cands = [c for c in _divisor_pairs(p0) if abs(c) <= bound]
        mids = range(-bound, bound + 1)

        def candidates(level, coeffs):
            nonlocal work
            if level == d:
                g = coeffs + [1]
                g1, gm1 = eval_at(g, 1), eval_at(g, -1)
                if g1 == 0 or gm1 == 0:
                    return None
                if p1 % g1 != 0 or pm1 % gm1 != 0:
                    return None
                if exact_int_divide(p, g) is not None:
                    return g
                return None
            pool = const_cands if level == 0 else mids
            for c in pool:
                work += 1
                if work > FACTOR_WORK_CAP:
                    raise FactorizationFailed(
                        f"factor search exceeded {FACTOR_WORK_CAP} candidates"
                    )
                found = candidates(level + 1, coeffs + [c])
                if found is not None:
                    return found
            return None

        g = candidates(0, [])
        if g is not None:
            return g
    return None


def is_irreducible(p):
    """Irreducibility over Q for an integer polynomial of degree >= 1:
    whether `factor_monic` finds exactly one factor of its primitive part.

    Degree 1 is irreducible.  A degree above DEGREE_CAP raises
    DegreeCapExceeded, a primitive part of degree >= 2 that is not monic
    raises FactorizationFailed, and so does a factor search that exceeds
    FACTOR_WORK_CAP.
    """
    p = primitive_part(p)
    n = degree(p)
    if n < 1:
        return False
    if n > DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {n} exceeds cap {DEGREE_CAP}")
    if n == 1:
        return True
    if p[-1] != 1:
        raise FactorizationFailed(
            "complete factor search supports monic polynomials only"
        )
    return len(factor_monic(p)) == 1


def factor_monic(p):
    """Irreducible monic integer factors of a monic integer polynomial,
    with multiplicity, sorted by (degree, coefficients)."""
    if not p or p[-1] != 1:
        raise ValueError("factor_monic expects a monic integer polynomial")
    factors = []
    roots, rest = integer_roots(p)
    factors.extend([-r, 1] for r in roots)
    stack = [rest] if degree(rest) >= 1 else []
    while stack:
        q = stack.pop()
        if degree(q) == 1:
            factors.append(q)
            continue
        reducible = True
        for m in IRREDUCIBILITY_PRIMES:
            if is_irreducible_mod_p(q, m):
                reducible = False
                break
        if not reducible:
            factors.append(q)
            continue
        g = _find_monic_factor(q)
        if g is None:
            factors.append(q)
        else:
            stack.append(g)
            stack.append(exact_int_divide(q, g))
    return sorted(factors, key=lambda f: (degree(f), tuple(f)))
