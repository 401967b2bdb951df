"""The per-input field setup over Z against its references over Q.

`polys` factors the characteristic polynomial, isolates the Perron root
and tests irreducibility in integers, with one bisection step for root
isolation, root comparison and beta's refinements;
`suspension.prototile_lengths` reads the lengths off the adjugate, and
`words.is_primitive` multiplies bitmask rows.  The routines they
replaced live in conftest as references; every result must be equal,
down to the isolating intervals and the number of refinements of beta's
interval.
"""

import random

import pytest

from subtiling import algebraic as A
from subtiling import polys as P
from subtiling import suspension as S
from subtiling import words as W

from conftest import (REF_IRREDUCIBILITY_PRIMES, benchmark_substitutions,
                      interval_ends, ref_exact_int_divide, ref_factor_monic,
                      ref_is_irreducible_mod_p, ref_is_primitive,
                      ref_isolate_largest_real_root, ref_poly_gcd,
                      ref_refine_root_interval, ref_remainder_chain,
                      ref_squarefree_part, ref_yun_squarefree_decomposition,
                      with_rational_setup)

INPUTS = benchmark_substitutions()


def _outcome(fn, *args):
    """fn(*args), or the type of what it raised."""
    try:
        return fn(*args)
    except (P.FactorizationFailed, ZeroDivisionError) as exc:
        return type(exc)


def _random_poly(rng):
    """An integer polynomial of degree 1..12: random coefficients, or a
    product of small factors, some repeated, so that gcds, squarefree
    parts and rational roots occur."""
    if rng.random() < 0.5:
        n = rng.randint(1, 12)
        lead = rng.choice([1, 1, 1, -1, 2, 3, 6])
        return [rng.randint(-9, 9) for _ in range(n)] + [lead]
    p = [rng.choice([1, -1, 2])]
    while P.degree(p) < 12:
        f = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]
        if P.degree(p) + P.degree(f) * 2 > 12:
            break
        p = P.mul(p, f)
        if rng.random() < 0.3:
            p = P.mul(p, f)
    return p if P.degree(p) >= 1 else [1, 1]


def test_berlekamp_counts_one_factor_exactly_when_rabin_says_irreducible():
    rng = random.Random(15)
    tested = irreducible = 0
    for _ in range(60):
        p = _random_poly(rng)
        for m in REF_IRREDUCIBILITY_PRIMES:
            if p[-1] % m:
                f = P._modp_normalize(p, m)
                squarefree = P.degree(
                    P._modp_gcd(f, P.derivative(f), m)) == 0
                kernel = P._berlekamp_kernel(f, m)
                got = squarefree and len(kernel) == 1
                assert got == ref_is_irreducible_mod_p(p, m), (p, m)
                tested += 1
                irreducible += got
                if squarefree:
                    # the split is into len(kernel) irreducible factors
                    # whose product is f up to a unit
                    factors = P._berlekamp_split(f, kernel, m)
                    assert len(factors) == len(kernel)
                    assert all(ref_is_irreducible_mod_p(g, m)
                               for g in factors)
                    prod = [1]
                    for g in factors:
                        prod = P._modp_normalize(P.mul(prod, g), m)
                    assert P._modp_gcd(prod, prod, m) == \
                        P._modp_gcd(f, f, m)
    assert tested > 400 and irreducible > 40


def test_remainders_and_divisions_match_rational_ones_on_random_polynomials():
    rng = random.Random(16)
    for _ in range(80):
        p, q = _random_poly(rng), _random_poly(rng)
        dp = P.derivative(p)
        assert P.signed_remainder_chain(p, dp) == ref_remainder_chain(p, dp)
        assert P.signed_remainder_chain(p, q) == ref_remainder_chain(p, q)
        assert P.poly_gcd(p, q) == ref_poly_gcd(p, q)
        pq = P.mul(p, q)
        assert P.poly_gcd(pq, P.mul(q, dp)) == ref_poly_gcd(pq, P.mul(q, dp))
        for a, b in ((pq, q), (p, q), (q, p), (dp, p)):
            assert P.exact_int_divide(a, b) == ref_exact_int_divide(a, b)
        assert P.squarefree_part(pq) == ref_squarefree_part(pq)
        assert P.yun_squarefree_decomposition(pq) == \
            ref_yun_squarefree_decomposition(pq)


def _ends_or_outcome(outcome):
    """The ends of an interval as Fractions; None or an exception type
    as it is."""
    return interval_ends(outcome) if isinstance(outcome, tuple) else outcome


def test_root_isolation_matches_rational_signs_on_random_polynomials():
    # the shared bisection step keeps the sign change as the rational one
    rng = random.Random(17)
    isolated = 0
    for _ in range(150):
        p = _random_poly(rng)
        got = _outcome(P.isolate_largest_real_root, p)
        assert _ends_or_outcome(got) == \
            _ends_or_outcome(_outcome(ref_isolate_largest_real_root, p)), p
        if isinstance(got, tuple) and got[0] < got[1]:
            isolated += 1
            sf = P.squarefree_part(p)
            interval, (lo, hi) = got, interval_ends(got)
            lo_sign = P.sign_at(sf, got[0], got[2])
            for _ in range(8):
                step = _outcome(P.bisect, sf, interval,
                                lambda mid, den, s: s == lo_sign)
                ref = _outcome(ref_refine_root_interval, sf, lo, hi)
                assert _ends_or_outcome(step) == ref
                if not isinstance(step, tuple):
                    break
                interval, (lo, hi) = step, ref
    assert isolated > 50


def test_primitivity_matches_the_boolean_list_products():
    matrices = [W.substitution_matrix(sub) for _, sub in INPUTS]
    rng = random.Random(18)
    for m in range(1, 9):
        for density in (0.15, 0.3, 0.5, 0.8):
            matrices += [[[int(rng.random() < density) for _ in range(m)]
                          for _ in range(m)] for _ in range(6)]
        # a cycle through every letter: irreducible but imprimitive,
        # until a chord of another length makes it primitive
        cycle = [[int(j == (i + 1) % m) for j in range(m)] for i in range(m)]
        matrices.append(cycle)
        matrices.append([row[:] for row in cycle])
        matrices[-1][0][0] = 1
    got = [W.is_primitive(mat) for mat in matrices]
    assert got == [ref_is_primitive(mat) for mat in matrices]
    assert all(got[:len(INPUTS)])
    assert 40 < sum(got) < len(got) - 40


@pytest.mark.parametrize("name, sub", INPUTS, ids=[i[0] for i in INPUTS])
def test_setup_matches_the_rational_setup(name, sub):
    cp = A.char_poly(W.substitution_matrix(sub))
    factors = P.factor_monic(cp)
    assert factors == with_rational_setup(P.factor_monic, cp)
    assert factors == ref_factor_monic(cp)
    sf = P.squarefree_part(cp)
    assert P.sturm_chain(sf) == ref_remainder_chain(sf, P.derivative(sf))
    for f in factors:
        assert _ends_or_outcome(P.isolate_largest_real_root(f)) == \
            _ends_or_outcome(ref_isolate_largest_real_root(f))
    # the Tarski chain of the Pisot test's disk count
    system = S.SuspensionSystem(sub)
    re, im = A._circle_image(list(system.field.minpoly))
    crossings = P.odd_multiplicity_part(im)
    g = P.mul(re, P.derivative(crossings))
    assert P.signed_remainder_chain(crossings, g) == \
        ref_remainder_chain(crossings, g)
    # same lengths, field, interval, and refinements of it
    reference = with_rational_setup(S.SuspensionSystem, sub)
    assert system.lengths == reference.lengths

    def state(field):
        return (field.minpoly, field.num_lo, field.num_hi, field.den,
                field.generation)

    assert state(system.field) == state(reference.field)


def test_field_setup_divides_over_q_only_in_its_one_inverse(monkeypatch):
    # perron_factor runs on integers alone (polys imports no fractions,
    # tests/test_imports.py), and a SuspensionSystem makes one
    # FieldElem.inverse, whose one division is by the norm
    inverses = []
    inverse = A.FieldElem.inverse

    def counted_inverse(self):
        inverses.append(self)
        return inverse(self)

    monkeypatch.setattr(A.FieldElem, "inverse", counted_inverse)
    for name, sub in INPUTS:
        A.perron_factor(A.char_poly(W.substitution_matrix(sub)))
        assert inverses == [], name
        S.SuspensionSystem(sub)
        assert len(inverses) == 1, name
        inverses.clear()
