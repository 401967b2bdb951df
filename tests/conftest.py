import math
import operator
import random
import sys
from array import array
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import settings

from subtiling import cli, coincidence
from subtiling import polys as P
from subtiling import spectrum as SP
from subtiling import suspension
from subtiling import words as W
from subtiling.algebraic import (FieldElem, NumberField, common_denominator,
                                 scaled_coords)
from subtiling.errors import NoSeedFound
from subtiling.lattices import module_from_int_rows
from subtiling.suspension import SuspensionSystem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

# One profile for every hypothesis test: each draw is the same on every
# run, and no example is timed
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def _sub(name):
    return cli.corpus_lookup(name).substitution()


_SYSTEMS = {}

# The base K of the letter weights 1 + K^(c-1) that words.walk_zeros
# walks by (words._weight_table): the largest K with K^(m-2) <= 126, and
# 1 from m = 9 on.  A zero of the weighted walk where the letter counts
# differ needs a count gap of at least K in some letter.
WALK_BASE = {3: 126, 4: 11, 6: 3, 9: 1, 12: 1, 40: 1}

# the byte e as the signed byte e - 127
_UNBIAS = bytes((e - 127) % 256 for e in range(256))


def ref_walk_zeros(u, v, m):
    """Reference for words.walk_zeros: the zeros of the weighted walk,
    one Python int per letter.

    The steps w(u_i) - w(v_i) are made without a loop in Python: the
    bytes w(u_i) + 127 - w(v_i) lie in 0..253, so one integer sum of the
    two translated words adds them with no carry between bytes, and a
    translate takes off the 127.  The walk runs over the signed bytes.
    """
    plus = W._weight_table(m)
    minus = bytes(127 - w if w else 0 for w in plus)
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


def false_zero_pairs(m, count=30, seed=41):
    """Balanced word pairs over 1..m, m a key of WALK_BASE, whose weighted
    count walk vanishes at prefixes with different letter counts.

    The first two pairs hold the least such gaps: K ones against one two,
    and K letters m - 2 against one m - 1, each made up in the last
    letter; at the second, letters 1..m - 3 agree.  The others shuffle
    runs of one letter up to K + 2 long between the two words."""
    k = WALK_BASE[m]
    pairs = []
    for a, b in ((1, 2), (m - 2, m - 1)):
        head, tail = bytes([a] * k + [m]), bytes([b] + [m] * k)
        pairs.append((head + tail, tail + head))
    rng = random.Random(seed + m)
    for _ in range(count - 2):
        runs = [bytes([rng.randint(1, m)]) * rng.randint(1, k + 2)
                for _ in range(rng.randint(1, 12))]
        u = b"".join(runs)
        rng.shuffle(runs)
        pairs.append((u, b"".join(runs)))
    return pairs


def involutions_by_matching(sub):
    """Reference: every perfect matching of the letters, in the order of
    the least unmatched letter's partner, kept when its swap commutes with
    the rules."""
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
            pairings([c for c in remaining[1:] if c != b], mapping)
            del mapping[a], mapping[b]

    pairings(list(range(1, m + 1)), {})
    return [tau for tau in out
            if all(bytes(tau[c] for c in sub.rule(x)) == sub.rule(tau[x])
                   for x in range(1, m + 1))]


def swap_commuting_substitution(rng, tau, max_len=3):
    """A primitive substitution that commutes with the letter involution
    tau (a dict): a random rule for the least letter of each swapped
    pair, its swap for the other, drawn until the matrix is primitive."""
    m = len(tau)
    while True:
        rules = [None] * m
        for x in sorted(tau):
            if rules[x - 1] is None:
                word = bytes(rng.randint(1, m)
                             for _ in range(rng.randint(1, max_len)))
                rules[x - 1] = word
                rules[tau[x] - 1] = bytes(tau[c] for c in word)
        sub = W.Substitution(rules)
        if W.is_primitive(W.substitution_matrix(sub)):
            return sub


def benchmark_substitutions():
    """(name, substitution) for every corpus entry, every spec of the
    benchmark and every member of its beta family."""
    out = [(spec.name, spec.substitution()) for spec in cli.corpus()]
    for path in sorted((PERFBENCH / "specs").glob("*.spec")):
        spec = cli.parse_spec(path.read_text(encoding="utf-8"),
                              name=path.stem)
        out.append((path.stem, spec.substitution()))
    for ks in workloads.BETA_FAMILY:
        spec = cli.parse_spec(workloads.beta_spec_text(ks))
        out.append((workloads.beta_name(ks), spec.substitution()))
    return out


def ref_pair_closure(sub, seeds, length_cap):
    """Reference for spectrum._pair_closure: the closure by breadth-first
    levels, (nodes, edges, bound_hit) as it returns them.  A component
    over the pair length cap, length_cap // (longest rule) letters, ends
    the run where it is made, more than PAIR_CAP nodes end it, checked
    after each image is split, and the iteration cap ends the run after
    ITER_CAP levels."""
    m = sub.size
    widest = max(len(r) for r in sub.rules)
    nodes, edges = {}, {}

    def add(pair, new):
        comps = [SP._canonical(c) for c in SP.split_balanced(*pair, m)]
        for comp in comps:
            if comp not in nodes:
                if len(comp[0]) * widest > length_cap:
                    return None
                nodes[comp] = None
                new.append(comp)
        return comps

    length_hit = f"pair length cap {length_cap}"
    frontier = []
    if any(add(pair, frontier) is None for pair in seeds):
        return nodes, edges, length_hit
    for _ in range(SP.ITER_CAP):
        if not frontier:
            break
        nxt = []
        for u, v in frontier:
            succ = add((sub.apply(u), sub.apply(v)), nxt)
            if succ is None:
                return nodes, edges, length_hit
            edges[u, v] = succ
            if len(nodes) > SP.PAIR_CAP:
                return nodes, edges, f"pair cap {SP.PAIR_CAP}"
        frontier = nxt
    return nodes, edges, f"iteration cap {SP.ITER_CAP}" if frontier else None


def power(x, k):
    """x ** k for a FieldElem x and an int k, by repeated squaring."""
    if k < 0:
        return power(x.inverse(), -k)
    result = x.field.rational(1)
    while k:
        if k & 1:
            result = result * x
        x = x * x
        k >>= 1
    return result


def module_from_vectors(vectors, width):
    """The canonical ZModule spanned by rational coordinate vectors."""
    rat = [[Fraction(c) for c in v] for v in vectors]
    denom = math.lcm(*(c.denominator for v in rat for c in v))
    return module_from_int_rows(
        [[c.numerator * (denom // c.denominator) for c in v] for v in rat],
        denom, width)


def unscaled_coords(ints, denom):
    """The coordinate vector ints / denom in the normal form of FieldElem
    coordinates: an int when integral, else a Fraction."""
    return tuple([f.numerator if f.denominator == 1 else f
                  for f in (Fraction(a, denom) for a in ints)])


def position(patch, k):
    """Reference: boundary k of a patch as a FieldElem."""
    return FieldElem(patch.field, unscaled_coords(patch.points[k],
                                                  patch.denom))


def exact_tiles(patch):
    """Reference: the tiles of a patch as (FieldElem position, color)."""
    return [(position(patch, k), c) for k, c in enumerate(patch.colors)]


def fieldelem_point_sets(patch, refpoints, window):
    """Reference: per color, the FieldElem points p + c_color of the
    patch tiles in the window, by the exact test on every tile."""
    lo, hi = window
    assert patch.covers(lo, hi)
    refs = elements(patch.field, *refpoints)
    per_color = [[] for _ in refs]
    for pos, c in exact_tiles(patch):
        x = pos + refs[c - 1]
        if (x - lo).sign() >= 0 and (x - hi).sign() <= 0:
            per_color[c - 1].append(x)
    return per_color


def fieldelem_differences(pts):
    """Reference: the differences y - x of FieldElem points, both signs,
    first seen first, as `suspension.return_vectors` orders them."""
    seen = {}
    for i, x in enumerate(pts):
        for y in pts[i:]:
            d = y - x
            seen[d.coords] = d
            seen[(-d).coords] = -d
    return list(seen.values())


def elements(field, vectors, denom):
    """Integer vectors over a denominator as FieldElems; with the
    (vectors, denom) pair of `suspension.control_points`, the reference
    points."""
    return [FieldElem(field, unscaled_coords(v, denom)) for v in vectors]


def length_elements(system):
    """Reference: the prototile lengths as FieldElems, rebuilt from the
    (vectors, denom) pair `SuspensionSystem.lengths` holds."""
    return elements(system.field, *system.lengths)


def interval_of(x):
    """The Horner enclosure (lo, hi) of a FieldElem on its field's
    current interval, as Fractions: `NumberField._horner_enclosure` of
    its coordinates scaled to ints."""
    scale = common_denominator(x.coords)
    lower, upper, den_pow = x.field._horner_enclosure(
        scaled_coords(x.coords, scale))
    return Fraction(lower, scale * den_pow), Fraction(upper, scale * den_pow)


def beta_interval(field):
    """The field's current interval of beta, (lo, hi) as Fractions."""
    return interval_ends((field.num_lo, field.num_hi, field.den))


def subtile_offset_elements(system):
    """Reference: `SuspensionSystem.subtile_offsets` as FieldElems."""
    return [elements(system.field, offsets, system._length_denom)
            for offsets in system.subtile_offsets]


def as_refpoints(elems):
    """FieldElem reference points as the (vectors, least common
    denominator) pair `suspension.control_points` returns."""
    denom = common_denominator(c for e in elems for c in e.coords)
    return tuple(scaled_coords(e.coords, denom) for e in elems), denom


def inflated_prototile(system, letter, level):
    """sigma^level(letter) laid out from 0 by `patch_from_word`."""
    return system.patch_from_word(system.sub.iterate(letter, level),
                                  (0,) * system.field.degree)


def key_coords(keys, denom):
    """Overlap class keys over a denominator as (moved, anchor, shift
    coordinates), in order."""
    return [(m, a, unscaled_coords(shift, denom)) for m, a, shift in keys]


def sweep_translation(patch, y):
    """The classes `spectrum._sweep` finds for one FieldElem translation
    y, whose denominators divide the patch's, as `key_coords`."""
    assert patch.denom % common_denominator(y.coords) == 0
    shift = scaled_coords(y.coords, patch.denom)
    largest = max(abs(a) for v in patch.points for a in v)
    packing = SP._Packing(patch.field.degree,
                          2 * largest + max(map(abs, shift)))
    keys = SP._sweep(patch, packing, [packing.pack(shift)],
                     SP.DEFAULT_NODE_CAP)
    return key_coords(keys, patch.denom)


def successors(system, moved, anchor, shift):
    """`coincidence.Walk.successors` of the class of a FieldElem shift, on
    a walk over the lcm of the lengths' and the shift's denominators, as
    `key_coords`."""
    denom = math.lcm(system._length_denom, common_denominator(shift.coords))
    origins = ((0,) * system.field.degree,) * system.size
    walk = coincidence.Walk(system, (origins, denom))
    key = (moved, anchor, scaled_coords(shift.coords, denom))
    return key_coords(walk.successors(key), denom)


def ref_children(walk, key):
    """Reference: `coincidence.Walk.children` with every subtile-pair
    enclosure taken afresh, so that it and the parent's enclosure always
    share one generation; the children are kept per class, as the walk
    keeps them."""
    if key in walk._children:
        return walk._children[key]
    field, lengths = walk.system.field, walk.lengths
    moved, anchor, shift = key
    bounds = field.fixed_point_bounds

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    rule = walk.system.sub.rule
    pairs = []
    for k, (mc, m_off) in enumerate(zip(rule(moved),
                                        walk.offsets[moved - 1])):
        for ac, a_off in zip(rule(anchor), walk.offsets[anchor - 1]):
            delta = sub(m_off, a_off)
            pairs.append((k, mc, ac, delta, *bounds(add(delta, lengths[mc])),
                          *bounds(sub(lengths[ac], delta))))
    base = field.times_beta(shift)
    base_lo, base_hi = bounds(base)
    out = [[] for _ in rule(moved)]
    for k, mc, ac, delta, m_lo, m_hi, a_lo, a_hi in pairs:
        child = add(base, delta)
        if base_lo + m_lo <= 0:
            if base_hi + m_hi < 0 or \
                    field.int_sign(add(child, lengths[mc])) <= 0:
                continue
        if a_lo - base_hi <= 0:
            if a_hi - base_lo < 0 or \
                    field.int_sign(sub(lengths[ac], child)) <= 0:
                continue
        out[k].append((mc, ac, child))
    walk._children[key] = out
    return out


def system_for(name):
    """Session-wide SuspensionSystem cache keyed by corpus id."""
    if name not in _SYSTEMS:
        _SYSTEMS[name] = SuspensionSystem(_sub(name))
    return _SYSTEMS[name]


@pytest.fixture(scope="session")
def fib():
    return _sub("fibonacci")


@pytest.fixture(scope="session")
def tm():
    return _sub("thue-morse")


@pytest.fixture(scope="session")
def aba():
    return _sub("aba-left")


@pytest.fixture(scope="session")
def fib2():
    return _sub("fib2")


@pytest.fixture(scope="session")
def rauzy():
    return _sub("rauzy")


@pytest.fixture(scope="session")
def rauzy2():
    return _sub("rauzy2-left")


@pytest.fixture(scope="session")
def sys_fib():
    return system_for("fibonacci")


@pytest.fixture(scope="session")
def sys_tm():
    return system_for("thue-morse")


@pytest.fixture(scope="session")
def sys_aba():
    return system_for("aba-left")


@pytest.fixture(scope="session")
def sys_fib2():
    return system_for("fib2")


@pytest.fixture(scope="session")
def sys_rauzy():
    return system_for("rauzy")


@pytest.fixture(scope="session")
def sys_rauzy2():
    return system_for("rauzy2-left")


# A two-to-one extension whose characteristic polynomial
# (x^6 - x^5 - 1)(x^6 - x^5 + 1) has at least two factors modulo every
# prime.
TWELVE_LETTERS = """
letters a b c d e f A B C D E F
rule a = a B
rule b = c
rule c = d
rule d = e
rule e = f
rule f = a
rule A = A b
rule B = C
rule C = D
rule D = E
rule E = F
rule F = A
"""


# A primitive 6-letter substitution whose characteristic polynomial is an
# irreducible sextic with at least two factors modulo every prime.
SIX_LETTERS = """
letters a b c d e f
rule a = a b c c d
rule b = a c d d e e
rule c = a f f
rule d = b b c e f
rule e = a a c c d
rule f = a c c e e
"""


# A runaway non-Pisot four-letter input (x^4 - x^2 - 13x - 9) whose
# fixed-point patches are far wider than their windows: 161,502 tiles
# cover the window of 16 tile lengths.
FOUR_LETTERS = ("letters a b c d\nrule a = d\nrule b = a d\n"
                "rule c = b b b a\nrule d = c c b c\n")


_REPORTS = {}

CORPUS_IDS = (
    "thue-morse", "fibonacci", "aba-left", "aba-gamma",
    "fib2", "rauzy", "rauzy2-left", "rauzy2-gamma",
)


def report_for(name):
    """Full analysis report per corpus id, computed once per session."""
    if name not in _REPORTS:
        spec = cli.corpus_lookup(name)
        _REPORTS[name] = cli.run_analysis(spec)
    return _REPORTS[name]


@pytest.fixture(scope="session")
def corpus_reports():
    return {name: report_for(name) for name in CORPUS_IDS}


# -- references: the field setup over Q that the integer routines replaced ----


def ref_divmod_rational(p, q):
    """Reference: exact division with remainder over Q."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    lead = Fraction(q[-1])
    dq = P.degree(q)
    quo = [Fraction(0)] * max(len(rem) - dq, 1)
    while len(P.normalize(rem)) - 1 >= dq:
        rem = P.normalize(rem)
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem[-1] = 0
    return P.normalize(quo), P.normalize(rem)


def ref_exact_int_divide(p, q):
    """Reference: p // q over Z through division over Q, else None."""
    quo, rem = ref_divmod_rational(p, q)
    if rem or any(Fraction(c).denominator != 1 for c in quo):
        return None
    return P.normalize([int(c) for c in quo])


def ref_positive_rescale(p):
    """Reference: a rational polynomial divided by a positive rational to
    coprime integers."""
    p = P.normalize(p)
    if not p:
        return []
    lcm = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(Fraction(c) * lcm) for c in p]
    g = P.content(ints)
    return [c // g for c in ints]


def ref_to_integer(p):
    """Reference: a rational polynomial with cleared denominators,
    primitive."""
    return P.primitive_part(ref_positive_rescale(p))


def ref_poly_gcd(p, q):
    """Reference: primitive gcd by Euclid over Q."""
    a = [Fraction(c) for c in P.normalize(p)]
    b = [Fraction(c) for c in P.normalize(q)]
    while b:
        a, b = b, ref_divmod_rational(a, b)[1]
    return ref_to_integer(a)


def ref_squarefree_part(p):
    g = ref_poly_gcd(p, P.derivative(p))
    if P.degree(g) < 1:
        return P.primitive_part(p)
    return ref_to_integer(ref_divmod_rational(p, g)[0])


def ref_squarefree_chain(p):
    """Reference: the squarefree part over Q and its remainder chain."""
    sf = ref_squarefree_part(p)
    return sf, ref_remainder_chain(sf, P.derivative(sf))


def ref_yun_squarefree_decomposition(p):
    """Reference: Yun's algorithm with every quotient over Q."""
    p = P.primitive_part(p)
    if P.degree(p) < 1:
        return []
    dp = P.derivative(p)
    g = ref_poly_gcd(p, dp)
    if P.degree(g) < 1:
        return [(p, 1)]
    out = []
    w = ref_divmod_rational(p, g)[0]
    z = P.sub(ref_divmod_rational(dp, g)[0], P.derivative(w))
    i = 1
    while P.degree(w) >= 1:
        q = ref_poly_gcd(w, z)
        y = z
        if P.degree(q) >= 1:
            out.append((q, i))
            w = ref_divmod_rational(w, q)[0]
            y = ref_divmod_rational(z, q)[0]
        z = P.sub(y, P.derivative(w))
        i += 1
    return out


def ref_remainder_chain(f, g):
    """Reference: the signed remainder chain by remainders over Q, each
    entry rescaled to coprime integers by a positive rational."""
    chain = [ref_positive_rescale(f)]
    g = ref_positive_rescale(g)
    if g:
        chain.append(g)
    while len(chain) >= 2 and chain[-1]:
        r = ref_divmod_rational(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(ref_positive_rescale(P.neg(r)))
    return chain


def ref_variations_at(chain, num, den=1):
    """Reference: sign variations by Horner evaluation over Q."""
    signs = [P._sign(P.eval_at(p, Fraction(num, den))) for p in chain]
    return P.sign_variations(signs)


def ref_count_real_roots(p):
    """Reference: Sturm's count over Q on the squarefree part, between
    the ends of the Cauchy interval."""
    sf = ref_squarefree_part(p)
    if P.degree(sf) < 1:
        return 0
    chain = ref_remainder_chain(sf, P.derivative(sf))
    bound = 1 + Fraction(max(map(abs, sf[:-1])), abs(sf[-1]))
    return ref_variations_at(chain, -bound) - ref_variations_at(chain, bound)


def interval_ends(interval):
    """The ends (lo, hi) of an interval (num_lo, num_hi, den), as
    Fractions."""
    num_lo, num_hi, den = interval
    return Fraction(num_lo, den), Fraction(num_hi, den)


def ref_isolate_largest_real_root(p):
    """Reference: bisection with every sign taken over Q, to the interval
    (num_lo, num_hi, den) over the lcm of the ends' denominators."""
    sf = ref_squarefree_part(p)
    if P.degree(sf) < 1:
        return None
    chain = ref_remainder_chain(sf, P.derivative(sf))
    bound = 1 + Fraction(max(map(abs, sf[:-1])), abs(sf[-1]))
    lo, hi = -bound, bound

    def roots_in(a, b):
        return ref_variations_at(chain, a) - ref_variations_at(chain, b)

    if roots_in(lo, hi) == 0:
        return None
    while roots_in(lo, hi) > 1:
        mid = (lo + hi) / 2
        if P.eval_at(sf, mid) == 0:
            raise P.FactorizationFailed("bisection midpoint hit a root")
        if roots_in(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    den = math.lcm(lo.denominator, hi.denominator)
    return (lo.numerator * (den // lo.denominator),
            hi.numerator * (den // hi.denominator), den)


def ref_refine_root_interval(p, lo, hi):
    """Reference: one bisection step of [lo, hi], on which p changes sign,
    over Q."""
    mid = (lo + hi) / 2
    s_mid = P._sign(P.eval_at(p, mid))
    if s_mid == 0:
        raise P.FactorizationFailed("rational root inside isolating interval")
    return (mid, hi) if s_mid == P._sign(P.eval_at(p, lo)) else (lo, mid)


def _ref_modp_mul(p, q, m):
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = (out[i + j] + a * b) % m
    return P.normalize(out)


def _ref_modp_pow_x(exp, f, m):
    """Reference: x**exp mod (f, m) by binary exponentiation."""
    def rem(p):
        return P._modp_divmod(p, f, m)[1]

    result, base = [1], rem([0, 1])
    while exp:
        if exp & 1:
            result = rem(_ref_modp_mul(result, base, m))
        base = rem(_ref_modp_mul(base, base, m))
        exp >>= 1
    return result


def ref_prime_divisors(n):
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


def ref_is_irreducible_mod_p(p, m):
    """Reference: Rabin's test with x^(m^k) by binary exponentiation.

    f of degree n is irreducible iff x^(m^n) = x mod f and
    gcd(x^(m^(n/q)) - x, f) = 1 for every prime q dividing n."""
    f = P._modp_normalize(p, m)
    n = P.degree(p)
    if len(f) - 1 != n:
        return False
    if n == 1:
        return True
    if P._modp_normalize(P.sub(_ref_modp_pow_x(m ** n, f, m), [0, 1]), m):
        return False
    for q in ref_prime_divisors(n):
        xq = _ref_modp_pow_x(m ** (n // q), f, m)
        g = P._modp_gcd(P._modp_normalize(P.sub(xq, [0, 1]), m), f, m)
        if P.degree(g) >= 1:
            return False
    return True


# The factorization that Berlekamp and Hensel lifting replaced: integer
# roots, Rabin's test at nine primes, then a bounded search for a monic
# factor with coefficients up to the Landau-Mignotte bound.
REF_IRREDUCIBILITY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
REF_FACTOR_WORK_CAP = 2_000_000


def _ref_divisor_pairs(n):
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.extend((d, -d))
            if d != n // d:
                out.extend((n // d, -(n // d)))
    return sorted(out)


def _ref_find_monic_factor(p):
    """Smallest-degree monic integer factor of monic p with no integer
    roots, or None if p is irreducible.  Coefficients are bounded by the
    Landau-Mignotte bound 2**d * |p|_2; candidates are pruned by requiring
    g(0) | p(0), g(1) | p(1) and g(-1) | p(-1).  More than
    REF_FACTOR_WORK_CAP candidates raise FactorizationFailed."""
    n = P.degree(p)
    norm = math.isqrt(sum(c * c for c in p) - 1) + 1
    p0, p1, pm1 = p[0], P.eval_at(p, 1), P.eval_at(p, -1)
    work = 0
    for d in range(2, n // 2 + 1):
        bound = (1 << d) * norm
        const_cands = [c for c in _ref_divisor_pairs(p0) if abs(c) <= bound]
        mids = range(-bound, bound + 1)

        def candidates(level, coeffs):
            nonlocal work
            if level == d:
                g = coeffs + [1]
                g1, gm1 = P.eval_at(g, 1), P.eval_at(g, -1)
                if g1 == 0 or gm1 == 0:
                    return None
                if p1 % g1 != 0 or pm1 % gm1 != 0:
                    return None
                if P.exact_int_divide(p, g) is not None:
                    return g
                return None
            pool = const_cands if level == 0 else mids
            for c in pool:
                work += 1
                if work > REF_FACTOR_WORK_CAP:
                    raise P.FactorizationFailed(
                        f"factor search exceeded {REF_FACTOR_WORK_CAP} "
                        "candidates")
                found = candidates(level + 1, coeffs + [c])
                if found is not None:
                    return found
            return None

        g = candidates(0, [])
        if g is not None:
            return g
    return None


def ref_factor_monic(p):
    """Reference: irreducible monic factors by Rabin's test and the
    bounded candidate search, sorted by (degree, coefficients)."""
    factors = []
    roots, rest = P.integer_roots(p)
    factors.extend([-r, 1] for r in roots)
    stack = [rest] if P.degree(rest) >= 1 else []
    while stack:
        q = stack.pop()
        if P.degree(q) == 1 or any(ref_is_irreducible_mod_p(q, m)
                                   for m in REF_IRREDUCIBILITY_PRIMES):
            factors.append(q)
            continue
        g = _ref_find_monic_factor(q)
        if g is None:
            factors.append(q)
        else:
            stack.extend((g, P.exact_int_divide(q, g)))
    return sorted(factors, key=lambda f: (P.degree(f), tuple(f)))


def _ref_compare_roots(p1, ivl1, p2, ivl2):
    """-1/+1 comparing the real roots of the distinct irreducible p1 and
    p2 isolated by the intervals (num_lo, num_hi, den): the wider
    interval is bisected until the two are apart."""
    (lo1, hi1, d1), (lo2, hi2, d2) = ivl1, ivl2
    s1, s2 = P.sign_at(p1, lo1, d1), P.sign_at(p2, lo2, d2)
    while True:
        if hi1 * d2 < lo2 * d1:
            return -1
        if hi2 * d1 < lo1 * d2:
            return 1
        if (hi1 - lo1) * d2 >= (hi2 - lo2) * d1 and hi1 > lo1:
            lo1, hi1, d1 = P.bisect(p1, (lo1, hi1, d1),
                                    lambda mid, den, s: s == s1)
        elif hi2 > lo2:
            lo2, hi2, d2 = P.bisect(p2, (lo2, hi2, d2),
                                    lambda mid, den, s: s == s2)
        else:
            # both intervals are points; distinct rationals
            return -1 if lo1 * d2 < lo2 * d1 else 1


def ref_perron_factor(p):
    """Reference: algebraic.perron_factor by a tournament, the largest
    root of the distinct factors found by pairwise comparison of their
    isolating intervals; the field starts from the winner's interval."""
    best = None
    for f in sorted(set(map(tuple, P.factor_monic(p)))):
        f = list(f)
        ivl = ((-f[0], -f[0], 1) if P.degree(f) == 1
               else P.isolate_largest_real_root(f))
        if ivl is None:
            continue
        if best is None or _ref_compare_roots(f, ivl, *best) > 0:
            best = (f, ivl)
    minpoly, (num_lo, num_hi, den) = best
    return NumberField(minpoly, Fraction(num_lo, den), Fraction(num_hi, den))


def ref_smith_normal_form(matrix):
    """Reference: the invariant factors by pivoting on an entry of least
    absolute value, then the divisibility fix."""
    mat = [list(r) for r in matrix]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    diag = []
    top = 0
    while top < rows and top < cols:
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(mat[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for r in mat:
            r[top], r[bj] = r[bj], r[top]
        again = False
        for i in range(top + 1, rows):
            if mat[i][top]:
                q = mat[i][top] // mat[top][top]
                for t in range(cols):
                    mat[i][t] -= q * mat[top][t]
                if mat[i][top]:
                    again = True
        for j in range(top + 1, cols):
            if mat[top][j]:
                q = mat[top][j] // mat[top][top]
                for r in mat:
                    r[j] -= q * r[top]
                if mat[top][j]:
                    again = True
        if again:
            continue
        diag.append(abs(mat[top][top]))
        top += 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = math.gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag


def ref_inverse(elem):
    """Reference: FieldElem.inverse by the extended Euclidean algorithm
    against the minimal polynomial, over Q."""
    field = elem.field
    r0, r1 = [Fraction(c) for c in field.minpoly], P.normalize(
        list(elem.coords))
    u0, u1 = [], [Fraction(1)]
    while P.degree(r1) > 0:
        q, r = ref_divmod_rational(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, P.sub(u0, P.mul(q, u1))
    c = Fraction(r1[0])
    return field.element([Fraction(x) / c for x in u1])


def ref_is_primitive(matrix):
    """Reference: words.is_primitive over boolean list matrices, each
    entry of a product an `any` over its m terms."""
    m = len(matrix)
    adj = [[bool(matrix[i][j]) for j in range(m)] for i in range(m)]

    def bool_mul(a, b):
        return [[any(a[i][t] and b[t][j] for t in range(m))
                 for j in range(m)] for i in range(m)]

    result = [[i == j for j in range(m)] for i in range(m)]
    base = adj
    e = m * m - 2 * m + 2
    while e:
        if e & 1:
            result = bool_mul(result, base)
        base = bool_mul(base, base)
        e >>= 1
    return all(all(row) for row in result)


def ref_minpoly_sign(field, num, den):
    """Reference: NumberField._minpoly_sign by its own Horner loop."""
    acc = field.minpoly[-1]
    den_pow = 1
    for c in reversed(field.minpoly[:-1]):
        den_pow *= den
        acc = acc * num + c * den_pow
    return P._sign(acc)


def _solve_kernel(rows, field):
    """Spanning vector of the one-dimensional kernel of a matrix over the
    field, with a one at its free column.

    Gauss-Jordan elimination with exact pivoting; fails unless the kernel
    has dimension exactly one.  It also solves a square system A x = b
    with a unique solution: that is the kernel of the augmented matrix
    [A | -b], and its free column is the last one.
    """
    m = len(rows)
    width = len(rows[0])
    mat = [list(row) for row in rows]
    pivots = {}
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, m) if not mat[i][col].is_zero()),
                     None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(m):
            if i != r and not mat[i][col].is_zero():
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots[col] = r
        r += 1
    free = [c for c in range(width) if c not in pivots]
    assert len(free) == 1, f"kernel dimension {len(free)} (expected 1)"
    fc = free[0]
    vec = [field.zero()] * width
    vec[fc] = field.rational(1)
    for col, row in pivots.items():
        vec[col] = -mat[row][fc]
    return vec


def ref_control_points(system, tile_map):
    """Reference: the control points by Gauss-Jordan over Q(beta), as the
    kernel of [A | -o] for the system beta c_j - c_g(j) = o_j."""
    suspension.validate_tile_map(system.sub, tile_map)
    m = system.size
    field = system.field
    offsets = subtile_offset_elements(system)
    rows = []
    for j in range(m):
        idx = tile_map[j]
        row = [field.zero()] * m
        row[j] = row[j] + field.beta()
        g = system.sub.rule(j + 1)[idx - 1] - 1
        row[g] = row[g] - field.rational(1)
        rows.append(row + [-offsets[j][idx - 1]])
    vec = _solve_kernel(rows, field)
    assert not vec[-1].is_zero()
    return tuple(vec[:-1])


def ref_is_admissible(system, refpoints):
    """Reference: admissibility in FieldElem arithmetic, max(-c_i) and
    min(len_i - c_i) taken left to right by the explicit .sign() of each
    difference, as max and min took them through FieldElem's order
    comparisons."""
    refs = elements(system.field, *refpoints)
    lower = -refs[0]
    for c in refs[1:]:
        if (-c - lower).sign() > 0:
            lower = -c
    lengths = length_elements(system)
    upper = lengths[0] - refs[0]
    for length, c in zip(lengths[1:], refs[1:]):
        if (length - c - upper).sign() < 0:
            upper = length - c
    return (upper - lower).sign() > 0


def ref_prototile_lengths(sub, field):
    """Reference: the left eigenvector by Gauss-Jordan over Q(beta)."""
    matrix = W.substitution_matrix(sub)
    m = sub.size
    beta = field.beta()
    rows = [[field.rational(matrix[i][j]) - (beta if i == j else 0)
             for i in range(m)] for j in range(m)]
    vec = _solve_kernel(rows, field)
    inv = vec[-1].inverse()
    lengths = tuple(v * inv for v in vec)
    assert all(length.sign() > 0 for length in lengths)
    return lengths


def ref_first_letter_map(sub):
    return tuple(r[0] for r in sub.rules)


def ref_last_letter_map(sub):
    return tuple(r[-1] for r in sub.rules)


def ref_iterate_map(f, k, x):
    for _ in range(k):
        x = f[x - 1]
    return x


def ref_legal_two_letter_words(sub):
    """Reference: the factors of sigma^k(c), for the least k making every
    image at least two letters long, closed under taking factors of the
    image of a known factor."""
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


def ref_fixed_point_seed(sub):
    """Reference: the least power k, searched up to m^2 m!, at which a
    legal pair left|right has sigma^k(left) ending with left and
    sigma^k(right) starting with right, and the least such pair."""
    legal = ref_legal_two_letter_words(sub)
    first = ref_first_letter_map(sub)
    last = ref_last_letter_map(sub)
    m = sub.size
    bound = m * m * math.factorial(m)
    for k in range(1, bound + 1):
        rights = [c for c in range(1, m + 1)
                  if ref_iterate_map(first, k, c) == c]
        if not rights:
            continue
        lefts = [c for c in range(1, m + 1)
                 if ref_iterate_map(last, k, c) == c]
        if not lefts:
            continue
        for left in lefts:
            for right in rights:
                if bytes([left, right]) in legal:
                    return k, left, right
    raise NoSeedFound("no legal seed pair within the search bound")


def ref_one_sided_seed(sub):
    """Reference: the least (k, letter) with f^k(letter) = letter for the
    first-letter map f, searched up to k = m."""
    first = ref_first_letter_map(sub)
    for k in range(1, sub.size + 1):
        for c in range(1, sub.size + 1):
            if ref_iterate_map(first, k, c) == c:
                return k, c
    raise NoSeedFound("first-letter map has no periodic letter")


# the module attributes the references stand in for
RATIONAL_SETUP = (
    (P, "exact_int_divide", ref_exact_int_divide),
    (P, "poly_gcd", ref_poly_gcd),
    (P, "squarefree_chain", ref_squarefree_chain),
    (P, "signed_remainder_chain", ref_remainder_chain),
    (P, "variations_at", ref_variations_at),
    (P, "isolate_largest_real_root", ref_isolate_largest_real_root),
    (suspension, "prototile_lengths", ref_prototile_lengths),
    (NumberField, "_minpoly_sign", ref_minpoly_sign),
)


def with_rational_setup(fn, *args):
    """fn(*args) with every setup routine replaced by its reference over
    Q, as the field setup ran before it moved to integers."""
    with pytest.MonkeyPatch.context() as mp:
        for module, name, ref in RATIONAL_SETUP:
            mp.setattr(module, name, ref)
        return fn(*args)
