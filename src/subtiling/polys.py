"""Exact univariate polynomial arithmetic over Z.

A polynomial is a list of coefficients in ascending degree, so
[a0, a1, a2] stands for a0 + a1*x + a2*x**2.  The zero polynomial is
the empty list.  Nothing here ever touches a float.  Degrees stay small
(below ~20), so the classical algorithms are used throughout: one
signed remainder sequence (`signed_remainder_chain`) for Sturm chains,
Cauchy indices and gcds, Yun's algorithm for squarefree
decompositions, and for monic polynomials `factor_monic`: Berlekamp's
algorithm modulo a prime, Hensel lifting and Zassenhaus's recombination
of the lifted factors.

Everything that takes a polynomial computes over Z.  Remainders are
pseudo-remainders (a positive multiple of the remainder over Q, so the
same signs and the same primitive part), exact division is integer
division, and a sign at a rational point a/b is the sign of the
homogeneous integer sum of c_k a^k b^(n-k).  A rational interval is a
triple (num_lo, num_hi, den) of ints, standing for
[num_lo / den, num_hi / den], and one bisection step, `bisect`, serves
root isolation and the dominance test (`dominates`) here and the
refinement of beta's interval in `algebraic`.  No Fraction is made.
Root counting, isolation and dominance build one remainder sequence per
squarefree polynomial (`squarefree_chain`).
"""

from __future__ import annotations

from itertools import combinations, count
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


def _positive_rescale(p):
    """Divide an integer polynomial by its content, a positive integer;
    the sign pattern is preserved."""
    p = normalize(p)
    g = content(p)
    return [c // g for c in p]


def primitive_part(p):
    """Integer polynomial divided by its content, leading coefficient > 0."""
    p = _positive_rescale(p)
    return neg(p) if p and p[-1] < 0 else p


def poly_gcd(p, q):
    """Primitive gcd over Z, leading coefficient > 0: the primitive part
    of the last entry of the signed remainder chain of p and q."""
    return primitive_part(signed_remainder_chain(p, q)[-1])


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


def squarefree_chain(p):
    """(q, sturm_chain(q)), q the primitive squarefree part of p: the chain
    of p ends in g = gcd(p, p') up to a constant, and unless g is constant,
    q is p over g's primitive part (exact by Gauss's lemma), chained again."""
    p = primitive_part(p)
    chain = sturm_chain(p)
    if degree(chain[-1]) < 1:
        return p, chain
    q = exact_int_divide(p, primitive_part(chain[-1]))
    return q, sturm_chain(q)


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
    """Distinct real roots of p, on the Sturm chain of p itself: divided
    by their common factor gcd(p, p'), its entries form a Sturm sequence
    of the squarefree part, with the same variations at infinity."""
    chain = sturm_chain(p)
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
    sf, chain = squarefree_chain(p)
    if degree(sf) < 1:
        return None
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


def dominates(minpoly, interval, cofactor) -> bool:
    """Whether the root beta of the irreducible monic `minpoly` in the
    isolating interval (num_lo / den, num_hi / den] (its point for degree
    1) exceeds every real root of the integer polynomial `cofactor`.

    A cofactor that minpoly divides has beta as a root.  Otherwise Sturm
    counts of its squarefree part decide on a copy of the interval,
    bisected as the field would bisect it: a root at or above the upper
    end lies above beta, and none above the lower end puts them all
    below beta.  Bisection ends, since no root of the cofactor is beta."""
    if exact_int_divide(cofactor, minpoly) is not None:
        return False
    q, chain = squarefree_chain(cofactor)
    at_infinity = variations_at_pos_inf(chain)
    num_lo, num_hi, den = interval
    lo_sign = sign_at(minpoly, num_lo, den)
    while True:
        v_hi = variations_at(chain, num_hi, den)
        if v_hi > at_infinity or sign_at(q, num_hi, den) == 0:
            return False
        if variations_at(chain, num_lo, den) == v_hi:
            return True
        num_lo, num_hi, den = bisect(minpoly, (num_lo, num_hi, den),
                                     lambda mid, d, s: s == lo_sign)


# ---------------------------------------------------------------------------
# Factorization over Z (monic inputs): Berlekamp, Hensel, Zassenhaus
# ---------------------------------------------------------------------------

# The most factors modulo a prime whose subsets `_factor_squarefree`
# recombines.
DEGREE_CAP = 12


def _modp_normalize(p, m):
    return normalize([c % m for c in p])


def _modp_divmod(p, q, m):
    """Quotient and remainder of p by q over F_m; q[-1] is a unit mod m."""
    inv = pow(q[-1], -1, m)
    rem = [c % m for c in p]
    dq = len(q) - 1
    quo = [0] * max(len(rem) - dq, 0)
    for k in reversed(range(len(quo))):
        c = quo[k] = rem[k + dq] * inv % m
        if c:
            for i, b in enumerate(q):
                rem[k + i] = (rem[k + i] - c * b) % m
    return normalize(quo), normalize(rem[:dq])


def _modp_gcd(p, q, m):
    """Monic gcd over F_m of p and q, not both zero mod m."""
    a, b = _modp_normalize(p, m), _modp_normalize(q, m)
    while b:
        a, b = b, _modp_divmod(a, b, m)[1]
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _modp_inverse(h, g, m):
    """The inverse of h modulo g over F_m, for h and g coprime mod m, by
    the extended Euclidean algorithm: r_i = t_i h mod g throughout."""
    r0, r1, t0, t1 = _modp_normalize(g, m), _modp_normalize(h, m), [], [1]
    while r1:
        q, r = _modp_divmod(r0, r1, m)
        r0, r1, t0, t1 = r1, r, t1, _modp_normalize(sub(t0, mul(q, t1)), m)
    inv = pow(r0[0], -1, m)
    return [c * inv % m for c in t0]


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


def _berlekamp_kernel(f, m):
    """A basis, 1 first, of the g in F_m[x]/(f) with g^m = g, as length-n
    coefficient lists: the left kernel of Q - I for the matrix Q of
    `_modp_frobenius`.  Its dimension is the number of distinct monic
    irreducible factors of f over F_m (Berlekamp), so for f squarefree
    mod m a kernel of dimension 1 proves f irreducible mod m."""
    rows = _modp_frobenius(f, m)
    n = len(rows)
    pivots = {}     # pivot column -> its equation, reduced at every pivot
    for j in range(n):
        # equation j: sum_i g_i (Q - I)[i][j] = 0
        eq = [(rows[i][j] - (i == j)) % m for i in range(n)]
        for col, row in pivots.items():
            c = eq[col]
            eq = [(a - c * b) % m for a, b in zip(eq, row)]
        col = next((i for i, a in enumerate(eq) if a), None)
        if col is not None:
            inv = pow(eq[col], -1, m)
            eq = [a * inv % m for a in eq]
            for i, row in pivots.items():
                c = row[col]
                pivots[i] = [(a - c * b) % m for a, b in zip(row, eq)]
            pivots[col] = eq
    return [[int(i == free) if i not in pivots else -pivots[i][free] % m
             for i in range(n)] for free in range(n) if free not in pivots]


def _berlekamp_split(f, kernel, m):
    """The monic irreducible factors of f over F_m, f squarefree mod m:
    each kernel element g splits every factor u into the gcds of u and
    g - s for s in F_m, since u divides g^m - g = prod_s (g - s)."""
    factors = [_modp_normalize(f, m)]
    for g in kernel[1:]:
        if len(factors) == len(kernel):
            break
        factors = [d for u in factors for s in range(m)
                   if degree(d := _modp_gcd(u, [g[0] - s] + g[1:], m)) >= 1]
    return factors


def _hensel_lift(f, factors, m, modulus):
    """Monic lifts mod `modulus`, a power of m, of the monic factors of f
    over F_m, which are pairwise coprime with product f.  Each factor g
    is lifted with its cofactor h by the linear Hensel step: with
    f = g h mod q, the corrections dg h + dh g = (f - g h) / q mod m are
    dg = (f - g h) / (q h) mod (g, m) and the exact quotient dh.  The
    lift of h is then split on."""
    lifted = []
    for g in factors[:-1]:
        h = _modp_divmod(f, g, m)[0]
        h_inv = _modp_inverse(h, g, m)
        q = m
        while q < modulus:
            e = _modp_normalize([c // q for c in sub(f, mul(g, h))], m)
            dg = _modp_divmod(mul(h_inv, e), g, m)[1]
            dh = _modp_divmod(sub(e, mul(dg, h)), g, m)[0]
            g, h, q = add(g, scale(dg, q)), add(h, scale(dh, q)), q * m
        lifted.append(g)
        f = h
    return lifted + [f]


def _recombine(f, lifted, modulus):
    """The irreducible factors of f over Z from its monic lifts mod
    `modulus`: the product of each subset of at most half of the lifts,
    smallest subsets first, is taken to symmetric residues and tried as
    a divisor of f (Zassenhaus)."""
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [1]
            for i in subset:
                g = [c % modulus for c in mul(g, lifted[i])]
            g = [c - modulus if 2 * c > modulus else c for c in g]
            quo = exact_int_divide(f, g)
            if quo is not None:
                factors.append(g)
                f = quo
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _factor_squarefree(f):
    """Irreducible factors of a monic squarefree integer polynomial f of
    degree n >= 1.

    The primes m for which f stays squarefree mod m are walked from 2;
    the others are the finitely many prime factors of the discriminant.
    The first whose Berlekamp kernel has dimension 1 proves f irreducible,
    and f is returned with no lifting.  Otherwise the walk stops at the
    third and keeps the one with the fewest factors r mod m.  The
    recombination tries up to 2^(r-1) subsets, so r above DEGREE_CAP
    raises DegreeCapExceeded.  The factors are lifted to m^k above twice
    the Landau-Mignotte bound 2^n |f|_2 on the coefficients of a factor.
    """
    df = derivative(f)
    good = []
    for m in count(2):
        if all(m % d for d in range(2, isqrt(m) + 1)) and \
                degree(_modp_gcd(f, df, m)) == 0:
            kernel = _berlekamp_kernel(f, m)
            if len(kernel) == 1:
                return [f]
            good.append((len(kernel), m, kernel))
            if len(good) == 3:
                break
    r, m, kernel = min(good)
    if r > DEGREE_CAP:
        raise DegreeCapExceeded(
            f"{r} factors modulo {m} exceed cap {DEGREE_CAP}")
    bound = 2 * (1 << degree(f)) * (isqrt(sum(c * c for c in f)) + 1)
    modulus = m
    while modulus <= bound:
        modulus *= m
    lifted = _hensel_lift(f, _berlekamp_split(f, kernel, m), m, modulus)
    return _recombine(f, lifted, modulus)


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


def factor_monic(p):
    """Irreducible monic integer factors of a monic integer polynomial,
    with multiplicity, sorted by (degree, coefficients): its integer
    roots, then `_factor_squarefree` of each part of Yun's squarefree
    decomposition of the rest."""
    if not p or p[-1] != 1:
        raise ValueError("factor_monic expects a monic integer polynomial")
    roots, rest = integer_roots(p)
    factors = [[-r, 1] for r in roots]
    for part, multiplicity in yun_squarefree_decomposition(rest):
        factors += _factor_squarefree(part) * multiplicity
    return sorted(factors, key=lambda f: (degree(f), tuple(f)))
