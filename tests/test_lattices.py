import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subtiling import algebraic, cli
from subtiling import lattices as L
from subtiling import spectrum as SP
from subtiling import suspension as S
from subtiling.errors import NotASubmodule

import workloads
from conftest import (FOUR_LETTERS, fieldelem_differences,
                      fieldelem_point_sets, module_from_vectors,
                      ref_smith_normal_form, report_for, system_for)

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


def test_quotient_by_the_zero_module_is_free():
    plane = module_from_vectors([[Fraction(1, 2), 1], [0, 3]], 2)
    zero = module_from_vectors([[0, 0]], 2)
    assert zero.is_zero()
    assert L.quotient(plane, zero) == L.AbelianGroup((), free_rank=2)


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
                                  "rauzy2-gamma", "pentanacci"])
def test_return_lattices_match_all_pair_differences(name):
    # neighbour steps span the lattices of all pairwise differences; the
    # window of 2 tile lengths leaves some colors with one point or none
    if name == "pentanacci":
        spec = _off_corpus_spec(name)
        system = S.SuspensionSystem(spec.substitution())
    else:
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


@given(st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.lists(st.integers(-50, 50), min_size=width,
                                      max_size=width), max_size=12))),
       st.integers(1, 12))
def test_neighbour_steps_span_the_differences_to_the_first_point(sample,
                                                                denom):
    # by telescoping, the distinct steps x_(i+1) - x_i span the module of
    # the differences x - x_0, for no point, one or many
    width, points = sample
    expected = L.module_from_int_rows(
        [[a - b for a, b in zip(x, points[0])] for x in points[1:]],
        denom, width)
    assert L._step_span([points], denom, width) == expected


def test_eventual_membership_tm(sys_tm):
    zmod = module_from_vectors([[1]], 1)
    f = sys_tm.field
    assert L.eventual_membership((1,), 2, zmod, f) == 1
    assert L.eventual_membership((1,), 4, zmod, f) == 2
    assert L.eventual_membership((1,), 3, zmod, f) is None
    assert L.eventual_membership((5,), 1, zmod, f) == 0


def _returns(system, refs):
    """Eventual return on the height group of the reference points."""
    return L.differences_in_return_module(system,
                                          L.height_group(system, refs))


def test_return_module_verdicts(sys_fib, sys_fib2, sys_aba):
    res = _returns(sys_fib, S.left_endpoint_points(sys_fib))
    assert set(res.witnesses) == {0} and res.bound_hit is None
    res2 = _returns(sys_fib2, S.left_endpoint_points(sys_fib2))
    assert set(res2.witnesses) == {0} and res2.bound_hit is None
    res3 = _returns(sys_aba, S.left_endpoint_points(sys_aba))
    assert None in res3.witnesses    # odd powers of 3 never land in 2Z
    assert res3.bound_hit == "power bound 16"


def test_window_lattices_sampled_once(monkeypatch):
    # fib2 agrees at 16, so height_group samples windows 16 and 32 only;
    # eventual return reads the same lattices and builds none of its own
    _assert_window_lattices_sampled_once(monkeypatch,
                                         cli.corpus_lookup("fib2"))


def test_window_lattices_sampled_once_nonunimodular(monkeypatch):
    # the same on nonunimodular, whose walk refines beta's interval and
    # moves the windows of a fresh system
    _assert_window_lattices_sampled_once(monkeypatch,
                                         _off_corpus_spec("nonunimodular"))


def _assert_window_lattices_sampled_once(monkeypatch, spec):
    system = S.SuspensionSystem(spec.substitution())
    refs, _ = cli._reference_points(system, spec)
    calls = []
    build = L.module_from_int_rows
    monkeypatch.setattr(L, "module_from_int_rows",
                        lambda *args: calls.append(1) or build(*args))
    res = L.height_group(system, refs)
    assert res.stabilized_at == 16
    assert len(calls) == 4
    ret = L.differences_in_return_module(system, res)
    assert len(calls) == 4
    assert ret.sup == res.sup


def _off_corpus_spec(name):
    if name.startswith("beta-"):
        text = workloads.beta_spec_text([int(k) for k in name[5:]])
    else:
        text = (PERFBENCH / "specs" / f"{name}.spec").read_text(
            encoding="utf-8")
    return cli.parse_spec(text, name=name)


@pytest.mark.parametrize("name", ["pentanacci", "beta-222"])
def test_eventual_return_reads_every_color(monkeypatch, name):
    # the window of 16 holds no point of pentanacci's e and one of
    # beta-222's c; eventual return reads the height group's stable
    # window of 32, where every color has two points or more
    spec = _off_corpus_spec(name)
    system = S.SuspensionSystem(spec.substitution())
    refs, _ = cli._reference_points(system, spec)
    samples = []        # the point sets of the windows, in schedule order
    sample = L.reference_point_sets
    monkeypatch.setattr(L, "reference_point_sets", lambda *args:
                        samples.append(sample(*args)) or samples[-1])
    res = L.height_group(system, refs)
    ret = L.differences_in_return_module(system, res)
    assert res.stabilized_at == 32 and len(samples) == 3
    assert ret.sup == res.sup and ret.bound_hit is None
    assert min(map(len, samples[0].points)) < 2
    assert len(samples[1].points) == system.size
    assert min(map(len, samples[1].points)) >= 2


def test_height_group_samples_until_two_windows_agree(monkeypatch):
    # pentanacci first agrees at 32, so the window of 128 is never sampled;
    # an analysis samples the same windows once, as eventual return reads
    # the height group's lattices from the report
    spec = _off_corpus_spec("pentanacci")
    system = S.SuspensionSystem(spec.substitution())
    refs, _ = cli._reference_points(system, spec)
    sampled = []
    sample = L.return_lattices
    monkeypatch.setattr(L, "return_lattices", lambda system, refs, size:
                        sampled.append(size) or sample(system, refs, size))
    res = L.height_group(system, refs)
    assert res.stabilized_at == 32
    assert sampled == [16, 32, 64]
    checks = cli.run_analysis(spec, overrides={"window": 16,
                                               "node_cap": 2000})["checks"]
    assert sampled == [16, 32, 64] * 2
    assert checks["eventual_return_module"]["generators"] == [
        SP.format_shift(row, res.sup.denom) for row in res.sup.basis]


def test_four_letter_height_group_encloses_only_its_windows(monkeypatch):
    # a deterministic work guard on a runaway input: its windows of 16, 32
    # and 64 lie in one fixed-point patch of 161,502 tiles, and the three
    # samples enclose the boundaries near each window, not every one
    spec = cli.parse_spec(FOUR_LETTERS)
    system = S.SuspensionSystem(spec.substitution())
    refs, _ = cli._reference_points(system, spec)
    calls = []
    bounds = algebraic.NumberField.fixed_point_bounds
    monkeypatch.setattr(algebraic.NumberField, "fixed_point_bounds",
                        lambda self, ints: calls.append(1) or
                        bounds(self, ints))
    res = L.height_group(system, refs)
    assert len(calls) <= 300
    assert res.stabilized_at == 32 and _group(res) == TRIVIAL
    assert len(system.patch_covering(*system.window(64))) == 161502


def test_height_group_unstable_samples_every_window(monkeypatch):
    # a pair that changes on every window: all four are sampled and the
    # group is the last window's quotient, (1/size)Z / Z
    sampled = []

    def fake(system, refpoints, size):
        sampled.append(size)
        return (module_from_vectors([[Fraction(1, size)]], 1),
                module_from_vectors([[1]], 1))

    monkeypatch.setattr(L, "return_lattices", fake)
    tm = cli.corpus_lookup("thue-morse").substitution()
    res = L.height_group(S.SuspensionSystem(tm), ())
    assert sampled == list(L.WINDOW_SCHEDULE)
    assert res.stabilized_at is None
    assert _group(res) == L.AbelianGroup((L.WINDOW_SCHEDULE[-1],))
    assert (res.sup, res.sub) == fake(None, (), L.WINDOW_SCHEDULE[-1])


def test_return_module_names_the_window_it_read(monkeypatch):
    # no stable window: the last window's lattices are read, and named,
    # although every generator returns; a stable window with no same-color
    # return vector is named too
    tm = cli.corpus_lookup("thue-morse").substitution()

    def unstable(system, refpoints, size):
        return (module_from_vectors([[Fraction(1, size)]], 1),
                module_from_vectors([[1]], 1))

    monkeypatch.setattr(L, "return_lattices", unstable)
    res = _returns(S.SuspensionSystem(tm), ())
    assert res.witnesses == (7,) and res.bound_hit == "window 128"
    monkeypatch.setattr(L, "return_lattices", lambda *args: (
        module_from_vectors([[1]], 1), L.ZModule(1, (), 1)))
    res = _returns(S.SuspensionSystem(tm), ())
    assert res.witnesses == (None,) and res.bound_hit == "window 16"


@pytest.mark.parametrize("name", ["fibonacci", "aba-left"])
def test_report_windows_are_the_schedule(name):
    # the report names the schedule, not the windows that were sampled
    height = report_for(name)["checks"]["height_group"]
    assert height["stabilized_at_window"] == 16
    assert height["windows"] == [16, 32, 64, 128]
