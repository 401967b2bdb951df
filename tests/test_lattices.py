import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from subtiling import cli
from subtiling import lattices as L
from subtiling import suspension as S
from subtiling.errors import NotASubmodule

from conftest import (fieldelem_differences, fieldelem_point_sets,
                      module_from_vectors, ref_smith_normal_form, report_for,
                      system_for)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRIVIAL = L.AbelianGroup(())


def test_module_from_integers():
    m = module_from_vectors([[3], [5]], 1)
    assert m == L.ZModule(1, ((1,),), 1)


def test_module_from_thirds():
    m = module_from_vectors([[2], [Fraction(2, 3)]], 1)
    assert m == L.ZModule(3, ((2,),), 1)   # (2/3) Z


def test_module_rank_two(sys_fib):
    one = sys_fib.field.rational(1)
    phi = sys_fib.field.beta()
    m = module_from_vectors([one.coords, phi.coords], 2)
    assert m.rank == 2
    assert m.coordinates_of((one + phi * 3).coords, 1) == [1, 3]
    assert m.coordinates_of(phi.coords, 2) is None    # phi / 2


def test_module_idempotent():
    rng = random.Random(9)
    for _ in range(25):
        vecs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(3)] for _ in range(rng.randint(1, 5))]
        m = module_from_vectors(vecs, 3)
        again = module_from_vectors(
            [[Fraction(c, m.denom) for c in row] for row in m.basis], 3
        )
        assert m == again


def test_membership_brute_force():
    rng = random.Random(12)
    for _ in range(20):
        base = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        m = module_from_vectors(base, 2)
        if m.is_zero():
            continue
        for _ in range(10):
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combo = [a * base[0][i] + b * base[1][i] for i in range(2)]
            assert m.coordinates_of(combo, 1) is not None


def test_quotient_examples():
    z = module_from_vectors([[1]], 1)
    two = module_from_vectors([[2]], 1)
    thirds = module_from_vectors([[Fraction(2, 3)]], 1)
    assert L.quotient(z, two).invariant_factors == (2,)
    assert L.quotient(thirds, two).invariant_factors == (3,)
    assert L.quotient(z, z) == TRIVIAL
    with pytest.raises(NotASubmodule):
        L.quotient(two, z)


def test_quotient_of_equal_lattices_runs_no_smith_form(monkeypatch):
    monkeypatch.setattr(L, "smith_normal_form", None)
    plane = module_from_vectors([[Fraction(1, 2), 1], [0, 3]], 2)
    # the same module from other generators is the same canonical ZModule
    again = module_from_vectors([[Fraction(1, 2), 4], [Fraction(1, 2), 1]], 2)
    assert plane == again
    assert L.quotient(plane, again) == TRIVIAL


def test_quotient_order_matches_determinant_index():
    rng = random.Random(21)
    for _ in range(25):
        sup_rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        sup = module_from_vectors(sup_rows, 2)
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
        sub = module_from_vectors(sub_rows, 2)
        group = L.quotient(sup, sub)
        assert group.free_rank == 0
        assert math.prod(group.invariant_factors) == abs(det)


def test_quotient_free_rank():
    plane = module_from_vectors([[1, 0], [0, 1]], 2)
    line = module_from_vectors([[2, 0]], 2)
    g = L.quotient(plane, line)
    assert g.free_rank == 1 and g.invariant_factors == (2,)


def test_smith_normal_form():
    assert L.smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert L.smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert L.smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert L.smith_normal_form([[0, 0], [0, 0]]) == []


def test_smith_normal_form_matches_the_pivot_elimination():
    # alternating Hermite forms against the least-entry pivot search
    rng = random.Random(22)
    ranks = set()
    for _ in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        scale = rng.choice([1, 2, 3, 6, 12])
        sparse = rng.random() < 0.4
        matrix = [[0 if sparse and rng.random() < 0.6 else
                   scale * rng.randint(-9, 9) for _ in range(cols)]
                  for _ in range(rows)]
        if rng.random() < 0.2:
            matrix.append([sum(row[j] for row in matrix) for j in range(cols)])
        got = L.smith_normal_form(matrix)
        assert got == ref_smith_normal_form(matrix), matrix
        ranks.add(len(got))
    assert ranks == set(range(7))


def _group(res):
    return L.quotient(res.sup, res.sub)


def test_height_groups_for_aba(sys_aba):
    res0 = L.height_group(sys_aba, S.left_endpoint_points(sys_aba))
    assert str(_group(res0)) == "Z/2Z"
    assert res0.stabilized_at <= 64
    gamma = S.control_points(sys_aba, (2, 1))
    res1 = L.height_group(sys_aba, gamma)
    assert str(_group(res1)) == "Z/3Z"
    assert res1.stabilized_at is not None


def test_height_group_trivial_for_irreducible(sys_fib, sys_rauzy):
    for system in (sys_fib, sys_rauzy):
        res = L.height_group(system, S.left_endpoint_points(system))
        assert _group(res) == TRIVIAL
        assert res.stabilized_at is not None


def test_height_group_fib2_trivial(sys_fib2):
    res = L.height_group(sys_fib2, S.left_endpoint_points(sys_fib2))
    assert _group(res) == TRIVIAL


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
        mod = L.module_from_int_rows(cross, pts.denom, 1)
        if previous is not None:
            for row in previous.basis:
                assert mod.coordinates_of(row, previous.denom) is not None
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
        per_color = fieldelem_point_sets(system.patch_covering(lo, hi), refs,
                                         (lo, hi))
        cross = fieldelem_differences([x for pc in per_color for x in pc])
        expected = (
            module_from_vectors([d.coords for d in cross], width),
            module_from_vectors(
                [d.coords for pc in per_color
                 for d in fieldelem_differences(pc)], width),
        )
        assert L.return_lattices(system, refs, size) == expected


def test_eventual_membership_tm(sys_tm):
    zmod = module_from_vectors([[1]], 1)
    f = sys_tm.field
    assert L.eventual_membership((1,), 2, zmod, f, 10) == 1
    assert L.eventual_membership((1,), 4, zmod, f, 10) == 2
    assert L.eventual_membership((1,), 3, zmod, f, 24) is None
    assert L.eventual_membership((5,), 1, zmod, f, 10) == 0


def test_return_module_verdicts(sys_fib, sys_fib2, sys_aba):
    res = L.differences_in_return_module(
        sys_fib, S.left_endpoint_points(sys_fib), 16, 64
    )
    assert set(res.witnesses) == {0} and res.bound_hit is None
    res2 = L.differences_in_return_module(
        sys_fib2, S.left_endpoint_points(sys_fib2), 16, 64
    )
    assert set(res2.witnesses) == {0} and res2.bound_hit is None
    res3 = L.differences_in_return_module(
        sys_aba, S.left_endpoint_points(sys_aba), 16, 64
    )
    assert None in res3.witnesses    # odd powers of 3 never land in 2Z


def test_window_lattices_sampled_once(monkeypatch):
    # fib2 agrees at 16, so height_group samples windows 16 and 32 only;
    # the return-module check samples the window of 64 itself, once
    system = S.SuspensionSystem(cli.corpus_lookup("fib2").substitution())
    refs = S.left_endpoint_points(system)
    calls = []
    build = L.module_from_int_rows
    monkeypatch.setattr(L, "module_from_int_rows",
                        lambda *args: calls.append(1) or build(*args))
    res = L.height_group(system, refs)
    assert res.stabilized_at == 16
    assert len(calls) == 4
    L.differences_in_return_module(system, refs, 16, 64)
    assert len(calls) == 6
    ret = L.differences_in_return_module(system, refs, 16, 64)
    assert len(calls) == 6
    assert ret.sup == L.return_lattices(system, refs, 64)[0]


def test_height_group_samples_until_two_windows_agree():
    # pentanacci first agrees at 32, so the window of 128 is never sampled
    text = (PERFBENCH / "specs" / "pentanacci.spec").read_text(
        encoding="utf-8")
    spec = cli.parse_spec(text, name="pentanacci")
    system = S.SuspensionSystem(spec.substitution())
    refs, _ = cli._reference_points(system, spec)
    res = L.height_group(system, refs)
    assert res.stabilized_at == 32
    assert {key[:2] for key in system.lattice_samples} == {
        system.window(size) for size in (16, 32, 64)}
    assert len(system.lattice_samples) == 3


def test_height_group_unstable_samples_every_window(monkeypatch):
    # a pair that changes on every window: all four are sampled and the
    # group is the last window's quotient, (1/size)Z / Z
    sampled = []

    def fake(system, refpoints, size):
        sampled.append(size)
        return (module_from_vectors([[Fraction(1, size)]], 1),
                module_from_vectors([[1]], 1))

    monkeypatch.setattr(L, "return_lattices", fake)
    res = L.height_group(None, ())
    assert sampled == list(L.WINDOW_SCHEDULE)
    assert res.stabilized_at is None
    assert _group(res) == L.AbelianGroup((L.WINDOW_SCHEDULE[-1],))
    assert (res.sup, res.sub) == fake(None, (), L.WINDOW_SCHEDULE[-1])


@pytest.mark.parametrize("name", ["fibonacci", "aba-left"])
def test_report_windows_are_the_schedule(name):
    # the report names the schedule, not the windows that were sampled
    height = report_for(name)["checks"]["height_group"]
    assert height["stabilized_at_window"] == 16
    assert height["windows"] == [16, 32, 64, 128]
