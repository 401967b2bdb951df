import random
from fractions import Fraction

import pytest

from subtiling import cli
from subtiling import lattices as L
from subtiling import suspension as S
from subtiling.errors import NotASubmodule

from conftest import system_for


def test_module_from_integers():
    m = L.module_from_vectors([[3], [5]], 1)
    assert m == L.ZModule(1, ((1,),), 1)


def test_module_from_thirds():
    m = L.module_from_vectors([[2], [Fraction(2, 3)]], 1)
    assert m == L.ZModule(3, ((2,),), 1)   # (2/3) Z


def test_module_rank_two(sys_fib):
    one = sys_fib.field.one()
    phi = sys_fib.beta
    m = L.module_from([one, phi])
    assert m.rank == 2
    assert m.contains(one + phi * 3)
    assert not m.contains(phi / 2)


def test_module_idempotent():
    rng = random.Random(9)
    for _ in range(25):
        vecs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(3)] for _ in range(rng.randint(1, 5))]
        m = L.module_from_vectors(vecs, 3)
        again = L.module_from_vectors(
            [[Fraction(c, m.denom) for c in row] for row in m.basis], 3
        )
        assert m == again


def test_membership_brute_force():
    rng = random.Random(12)
    for _ in range(20):
        base = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        m = L.module_from_vectors(base, 2)
        if m.is_zero():
            continue
        for _ in range(10):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combo = [a * base[0][i] + b * base[1][i] for i in range(2)]
            assert m.contains_vector(combo)


def test_quotient_examples():
    z = L.module_from_vectors([[1]], 1)
    two = L.module_from_vectors([[2]], 1)
    thirds = L.module_from_vectors([[Fraction(2, 3)]], 1)
    assert L.quotient(z, two).invariant_factors == (2,)
    assert L.quotient(thirds, two).invariant_factors == (3,)
    assert L.quotient(z, z).is_trivial()
    with pytest.raises(NotASubmodule):
        L.quotient(two, z)


def test_quotient_order_matches_determinant_index():
    rng = random.Random(21)
    for _ in range(25):
        sup_rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        sup = L.module_from_vectors(sup_rows, 2)
        if sup.rank != 2:
            continue
        mult = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = mult[0][0] * mult[1][1] - mult[0][1] * mult[1][0]
        if det == 0:
            continue
        sub_rows = [
            [
                sum(mult[i][t] * Fraction(sup.basis[t][j], sup.denom)
                    for t in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        sub = L.module_from_vectors(sub_rows, 2)
        group = L.quotient(sup, sub)
        order = group.order()
        assert order == abs(det)


def test_quotient_free_rank():
    plane = L.module_from_vectors([[1, 0], [0, 1]], 2)
    line = L.module_from_vectors([[2, 0]], 2)
    g = L.quotient(plane, line)
    assert g.free_rank == 1 and g.invariant_factors == (2,)


def test_smith_normal_form():
    assert L.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert L.smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert L.smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert L.smith_normal_form([[0, 0], [0, 0]]) == []


def test_height_groups_for_aba(sys_aba):
    res0 = L.height_group(sys_aba, S.left_endpoint_points(sys_aba))
    assert str(res0.group) == "Z/2Z"
    assert not res0.unstable
    assert res0.stabilized_at <= 64
    gamma = S.control_points(sys_aba, (2, 1))
    res1 = L.height_group(sys_aba, gamma)
    assert str(res1.group) == "Z/3Z"
    assert not res1.unstable


def test_height_group_trivial_for_irreducible(sys_fib, sys_rauzy):
    for system in (sys_fib, sys_rauzy):
        res = L.height_group(system, S.left_endpoint_points(system))
        assert res.group.is_trivial()
        assert not res.unstable


def test_height_group_fib2_trivial(sys_fib2):
    res = L.height_group(sys_fib2, S.left_endpoint_points(sys_fib2))
    assert res.group.is_trivial()


def test_height_lattices_nest_with_window(sys_aba):
    # bigger windows only grow the sampled lattice
    from subtiling.suspension import reference_point_sets, return_vectors
    zeros = S.left_endpoint_points(sys_aba)
    previous = None
    for size in (8, 16, 32):
        lo, hi = sys_aba.window(size)
        patch = sys_aba.patch_covering(lo, hi)
        pts = reference_point_sets(patch, zeros, (lo, hi))
        _, cross = return_vectors(pts)
        mod = L.module_from_vectors([d.coords for d in cross], 1)
        if previous is not None:
            for row in previous.basis:
                coords = [Fraction(c, previous.denom) for c in row]
                assert mod.contains_vector(coords)
        previous = mod


@pytest.mark.parametrize("name", ["thue-morse", "aba-gamma", "fib2",
                                  "rauzy2-gamma"])
def test_return_lattices_match_all_pair_differences(name):
    # base-point differences span the lattices of all pairwise ones; the
    # window of 2 tile lengths leaves some colors with one point or none
    spec = cli.corpus_lookup(name)
    system = system_for(name)
    refs = (S.control_points(system, spec.tilemap) if spec.tilemap
            else S.left_endpoint_points(system))
    width = system.field.degree
    for size in (2, 16, 64):
        lo, hi = system.window(size)
        pts = S.reference_point_sets(system.patch_covering(lo, hi), refs,
                                     (lo, hi))
        per_color, cross = S.return_vectors(pts)
        expected = (
            L.module_from_vectors([d.coords for d in cross], width),
            L.module_from_vectors(
                [d.coords for pc in per_color for d in pc], width),
        )
        assert L.return_lattices(system, refs, size) == expected


def test_eventual_membership_tm(sys_tm):
    zmod = L.module_from_vectors([[1]], 1)
    beta = sys_tm.beta
    f = sys_tm.field
    assert L.eventual_membership(f.rational(Fraction(1, 2)), zmod, beta, 10) == 1
    assert L.eventual_membership(f.rational(Fraction(1, 4)), zmod, beta, 10) == 2
    assert L.eventual_membership(f.rational(Fraction(1, 3)), zmod, beta, 24) is None
    assert L.eventual_membership(f.rational(5), zmod, beta, 10) == 0


def test_return_module_verdicts(sys_fib, sys_fib2, sys_aba):
    res = L.differences_in_return_module(
        sys_fib, S.left_endpoint_points(sys_fib), 16, 64
    )
    assert res.status == "HOLDS" and res.max_power == 0
    res2 = L.differences_in_return_module(
        sys_fib2, S.left_endpoint_points(sys_fib2), 16, 64
    )
    assert res2.status == "HOLDS" and res2.max_power == 0
    res3 = L.differences_in_return_module(
        sys_aba, S.left_endpoint_points(sys_aba), 16, 64
    )
    assert res3.status == "UNKNOWN"    # odd powers of 3 never land in 2Z
