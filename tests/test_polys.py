import random
from fractions import Fraction

import pytest

from subtiling import algebraic as A
from subtiling import polys as P

from conftest import ref_divmod_rational, ref_factor_monic


def test_arithmetic_basics():
    assert P.add([1, 2], [3, -2]) == [4]
    assert P.mul([1, 1], [1, 1]) == [1, 2, 1]
    assert P.mul([], [1, 2]) == []
    assert P.eval_at([1, 2, 3], 2) == 1 + 4 + 12
    assert P.derivative([5, 1, 4]) == [1, 8]
    assert P.normalize([1, 0, 0]) == [1]


def test_division_exact():
    p = P.mul([-1, 1], [2, 3, 1])
    assert P.exact_int_divide(p, [-1, 1]) == [2, 3, 1]
    assert P.exact_int_divide(p, [2, 3, 1]) == [-1, 1]
    assert P.exact_int_divide([1, 1], [2, 1]) is None


def test_gcd_and_squarefree():
    p = P.mul(P.mul([-1, 1], [-1, 1]), [1, 1])
    g = P.poly_gcd(p, P.derivative(p))
    assert g == [-1, 1]
    assert P.squarefree_chain(p)[0] == [-1, 0, 1]


def test_yun_decomposition():
    # (x-1)^3 (x+1)^2 (x-5)
    p = [1]
    for f, k in (([-1, 1], 3), ([1, 1], 2), ([-5, 1], 1)):
        for _ in range(k):
            p = P.mul(p, f)
    dec = dict((tuple(q), i) for q, i in P.yun_squarefree_decomposition(p))
    assert dec == {(-5, 1): 1, (1, 1): 2, (-1, 1): 3}


def test_sturm_counts():
    assert P.count_real_roots([-1, -1, 1]) == 2
    assert P.count_real_roots([1, 0, 1]) == 0
    # roots in (a, b] are variations at a minus variations at b
    chain = P.sturm_chain([-1, -1, 1])
    assert P.variations_at(chain, 0, 1) - P.variations_at(chain, 2, 1) == 1
    assert P.variations_at(chain, -2, 1) - P.variations_at(chain, 0, 1) == 1
    assert P.variations_at(chain, -1, 2) - P.variations_at(chain, 1, 2) == 0
    # double root counted once
    assert P.count_real_roots(P.mul([-1, 1], [-1, 1])) == 1


def test_sturm_against_random_products():
    rng = random.Random(7)
    for _ in range(50):
        roots = sorted(rng.randint(-8, 8) for _ in range(rng.randint(1, 5)))
        p = [1]
        for r in roots:
            p = P.mul(p, [-r, 1])
        assert P.count_real_roots(p) == len(set(roots))


def test_isolate_largest_root():
    num_lo, num_hi, den = P.isolate_largest_real_root([-1, -1, 1])
    lo, hi = Fraction(num_lo, den), Fraction(num_hi, den)
    assert P.eval_at([-1, -1, 1], lo) * P.eval_at([-1, -1, 1], hi) < 0
    # golden ratio is the largest root
    assert lo < Fraction(1618, 1000) < hi or hi - lo < Fraction(1, 4)
    assert P.isolate_largest_real_root([1, 0, 1]) is None


def test_integer_roots():
    roots, rest = P.integer_roots([0, -2, 1])
    assert sorted(roots) == [0, 2] and rest == [1]
    roots, rest = P.integer_roots([-1, -1, 1])
    assert roots == [] and rest == [-1, -1, 1]


def test_irreducibility():
    def irreducible(p):
        return len(P.factor_monic(p)) == 1

    assert irreducible([-1, -1, 1])
    assert not irreducible([0, -2, 1])
    assert irreducible([-1, -1, -1, 1])
    assert not irreducible([3, -4, 1])
    assert irreducible([1, 0, 0, 0, 1])       # x^4+1, mod-p never works
    assert not irreducible([1, 2, 3, 2, 1])   # (x^2+x+1)^2
    assert irreducible([7, 1])


def test_factor_monic():
    assert sorted(map(tuple, P.factor_monic([0, -2, 1]))) == [(-2, 1), (0, 1)]
    assert sorted(map(tuple, P.factor_monic([3, -4, 1]))) == [(-3, 1), (-1, 1)]
    prod = P.mul([-1, -1, 1], [1, 1, 1])
    fs = sorted(map(tuple, P.factor_monic(prod)))
    assert fs == sorted([(-1, -1, 1), (1, 1, 1)])


def test_factor_monic_matches_the_reference_on_characteristic_polynomials():
    rng = random.Random(26)
    compared = reducible = 0
    for _ in range(120):
        n = rng.randint(2, 5)
        cp = A.char_poly([[rng.randint(0, 3) for _ in range(n)]
                          for _ in range(n)])
        try:
            expected = ref_factor_monic(cp)
        except P.FactorizationFailed:
            continue
        assert P.factor_monic(cp) == expected, cp
        compared += 1
        reducible += len(expected) > 1
    assert compared > 100 and reducible > 20


# monic irreducibles over Q, several of them reducible modulo every prime:
# x^4 + 1, the Swinnerton-Dyer x^4 - 10x^2 + 1, the cyclotomic
# polynomials of order 3, 4, 5, 6, 7, 9 and 12, x^6 - x^5 - 1 and
# x^6 - x^5 + 1 (the 12-letter extension), and the 6-letter sextic
IRREDUCIBLES = (
    [1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [1, 1, 1], [1, 0, 1],
    [1, 1, 1, 1, 1], [1, -1, 1], [1] * 7, [1, 0, 0, 1, 0, 0, 1],
    [1, 0, -1, 0, 1], [-1, 0, 0, 0, 0, -1, 1], [1, 0, 0, 0, 0, -1, 1],
    [20, 31, -5, -20, -12, -1, 1], [-2, 1], [3, 1], [1, 1],
    [-1, -1, 1], [-1, -1, -1, 1],
)


def _product(factors):
    p = [1]
    for f in factors:
        p = P.mul(p, f)
    return p


def test_factor_random_products():
    rng = random.Random(11)
    cases = [[f] for f in IRREDUCIBLES]
    cases.append([[-1] + [0] * 11 + [-1, 1]])       # x^13 - x^12 - 1
    while len(cases) < 100:
        chosen = []
        for f in rng.sample(IRREDUCIBLES, rng.randint(2, 4)):
            for _ in range(rng.choice([1, 1, 2])):
                if sum(map(P.degree, chosen)) + P.degree(f) <= 12:
                    chosen.append(f)
        if len(chosen) > 1:
            cases.append(chosen)
    for chosen in cases:
        got = P.factor_monic(_product(chosen))
        assert got == sorted(chosen, key=lambda f: (P.degree(f), tuple(f)))
        assert _product(got) == _product(chosen)


def test_modular_factor_count_is_capped(monkeypatch):
    # both have at least two factors modulo every prime; the least count
    # for x^4 + 1 is first met at 3
    monkeypatch.setattr(P, "DEGREE_CAP", 1)
    with pytest.raises(P.DegreeCapExceeded) as err:
        P.factor_monic([1, 0, 0, 0, 1])
    assert str(err.value) == "2 factors modulo 3 exceed cap 1"
    with pytest.raises(P.DegreeCapExceeded):
        P.factor_monic([1, 0, -10, 0, 1])
    assert P.factor_monic([-1, -1, 1]) == [[-1, -1, 1]]


def test_a_prime_that_proves_irreducibility_ends_the_factorization(
        monkeypatch):
    # a Berlekamp kernel of dimension 1 returns f with no Hensel lifting;
    # x^4 + 1, reducible modulo every prime, is still lifted
    lifted = []
    hensel_lift = P._hensel_lift
    monkeypatch.setattr(P, "_hensel_lift", lambda *args: lifted.append(
        args[0]) or hensel_lift(*args))
    for f in ([-1, -1, 1], [-1, -1, -1, 1], [-1, 0, 1, 1]):
        assert P.factor_monic(f) == [f]
    assert lifted == []
    assert P.factor_monic([1, 0, 0, 0, 1]) == [[1, 0, 0, 0, 1]]
    assert lifted == [[1, 0, 0, 0, 1]]


def test_pseudo_remainder_is_a_positive_multiple_of_the_remainder():
    rng = random.Random(3)
    for _ in range(40):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + \
            [rng.choice([-3, -1, 1, 2])]
        r = P.pseudo_remainder(p, q)
        exact = ref_divmod_rational(p, q)[1]
        assert len(r) == len(exact)
        if r:
            ratio = Fraction(r[-1]) / exact[-1]
            assert ratio > 0 and [ratio * c for c in exact] == r
    # a monic divisor gives the remainder itself
    assert P.pseudo_remainder([1, 0, 0, 1], [-1, -1, 1]) == [2, 2]


def test_sign_at_matches_rational_evaluation():
    rng = random.Random(4)
    for _ in range(200):
        p = [rng.randint(-5, 5) for _ in range(rng.randint(0, 7))]
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        value = P.eval_at(p, x)
        assert P.sign_at(p, x.numerator, x.denominator) == \
            (value > 0) - (value < 0)
