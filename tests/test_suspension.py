import gc
import itertools
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtiling import algebraic, cli, polys, spectrum
from subtiling import suspension as S
from subtiling.algebraic import scaled_coords
from subtiling.errors import (EigenvectorDefect, FactRejected,
                              WindowNotCovered)

from conftest import (CORPUS_IDS, as_refpoints, elements, exact_tiles,
                      fieldelem_differences, fieldelem_point_sets,
                      inflated_prototile, interval_of, length_elements,
                      position, power, ref_control_points, ref_is_admissible,
                      subtile_offset_elements, system_for)

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


def test_prototile_lengths(sys_fib, sys_tm, sys_fib2):
    # golden mean system: lengths (phi, 1)
    lengths = length_elements(sys_fib)
    assert lengths[0] == sys_fib.field.beta()
    assert lengths[1] == 1
    # constant length: all ones
    assert all(length == 1 for length in length_elements(sys_tm))
    # the four-letter extension keeps the two-letter lengths
    b = sys_fib2.field.beta()
    lengths = length_elements(sys_fib2)
    assert lengths[0] == b and lengths[2] == b
    assert lengths[1] == 1 and lengths[3] == 1


def test_prototile_lengths_need_beta_to_be_an_eigenvalue(fib):
    # the tribonacci root is no eigenvalue of the fibonacci matrix, so no
    # row of the adjugate is an eigenvector
    tribonacci = algebraic.perron_factor([-1, -1, -1, 1])
    with pytest.raises(EigenvectorDefect, match="not an eigenvalue"):
        S.prototile_lengths(fib, tribonacci)


def test_lengths_satisfy_tile_equation(sys_fib, sys_tm, sys_aba, sys_fib2,
                                       sys_rauzy, sys_rauzy2):
    for system in (sys_fib, sys_tm, sys_aba, sys_fib2, sys_rauzy, sys_rauzy2):
        lengths = length_elements(system)
        for j in range(1, system.size + 1):
            total = system.field.zero()
            for c in system.sub.rule(j):
                total = total + lengths[c - 1]
            assert total == system.field.beta() * lengths[j - 1]


def test_lengths_positive(sys_rauzy2):
    for length in length_elements(sys_rauzy2):
        assert length.sign() == 1


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def _state(system):
    """What setup fixes: the field, its interval and generation, and the
    layout of the lengths."""
    field = system.field
    return (system.matrix, system.char_poly, field.minpoly,
            (field.num_lo, field.num_hi, field.den, field.generation),
            system.lengths, system._length_denom, system._length_columns,
            system.seed, system.subtile_offsets)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda path: path.stem)
def test_from_facts_is_the_computed_system(path):
    # the same field, interval and refinements, and the same layout
    report = cli.json.loads(path.read_text(encoding="utf-8"))
    sub = cli._spec_from_report(report).substitution()
    assert _state(S.SuspensionSystem.from_facts(sub, report["facts"])) == \
        _state(S.SuspensionSystem(sub))


def test_from_facts_names_a_missing_or_changed_fact(fib):
    facts = {"characteristic_polynomial": [-1, -1, 1],
             "minimal_polynomial": [-1, -1, 1],
             "prototile_lengths": [["0/1", "1/1"], ["1/1", "0/1"]]}
    assert length_elements(S.SuspensionSystem.from_facts(fib, facts))[0] == \
        algebraic.perron_factor([-1, -1, 1]).beta()
    for key, value, message in (
            ("characteristic_polynomial", [-1, -1, 2],
             "not that of the substitution matrix"),
            ("minimal_polynomial", [-1, -1, 2],
             "not a monic integer polynomial"),
            ("minimal_polynomial", [-1.0, -1, 1],
             "not a monic integer polynomial"),
            ("minimal_polynomial", [-1, -1, -1, 1],
             "does not divide the characteristic polynomial"),
            ("prototile_lengths", [["0/1", "1/1"]], "not 2 lengths"),
            ("prototile_lengths", [["0/1", "1/1"], ["1/1"]],
             "shift ['1/1'] is not 2 fractions"),
            ("prototile_lengths", [["0/1", "-1/1"], ["1/1", "0/1"]],
             "not a beta-eigenvector"),
            (None, None, "missing")):
        edited = {k: v for k, v in facts.items() if k != "prototile_lengths"}
        if key is not None:
            edited = dict(facts, **{key: value})
        with pytest.raises(FactRejected) as err:
            S.SuspensionSystem.from_facts(fib, edited)
        assert str(err.value) == f"{key or 'prototile_lengths'}: {message}"


# beta = the golden mean, about 1.618, with x^2 - x - 1; (cofactor,
# whether beta exceeds each of its real roots)
DOMINANCE = (
    ([1], True), ([-1, 1], True), ([-2, 1], False), ([-8, 5], True),
    ([-21, 13], True), ([-34, 21], False), ([-2, 0, 1], True),
    ([-3, 0, 1], False), ([-1, -1, 1], False), ([1, 1, 1], True),
    ([-2, 1, 0, 0, 1], True),
)


@pytest.mark.parametrize("cofactor, dominates", DOMINANCE)
def test_dominance_by_sturm_counts(cofactor, dominates):
    minpoly = [-1, -1, 1]
    interval = polys.isolate_largest_real_root(minpoly)
    assert polys.dominates(minpoly, interval, cofactor) is dominates
    # a root at the upper end of the interval lies above beta
    num_lo, num_hi, den = interval
    assert polys.dominates(minpoly, interval, [-num_hi, den]) is False
    assert polys.dominates(minpoly, interval, [-num_lo, den]) is True


def test_dominance_over_an_integer_beta():
    # thue-morse: beta = 2 with the cofactor x; beta = 1 is dominated
    assert polys.dominates([-2, 1], (2, 2, 1), [0, 1]) is True
    assert polys.dominates([-2, 1], (2, 2, 1), [-2, 1]) is False
    assert polys.dominates([-1, 1], (1, 1, 1), [-2, 1]) is False


def test_generate_patch_examples(sys_fib, sys_tm, sys_aba):
    p = inflated_prototile(sys_fib, 1, 2)
    assert list(p.colors) == [1, 2, 1]
    assert position(p, 0) == 0
    assert position(p, 1) == sys_fib.field.beta()
    assert position(p, 2) == sys_fib.field.beta() + 1

    p = inflated_prototile(sys_tm, 1, 2)
    assert [(t[0].coords, t[1]) for t in exact_tiles(p)] == \
        [((0,), 1), ((1,), 2), ((2,), 2), ((3,), 1)]

    p = inflated_prototile(sys_aba, 1, 1)
    assert [(t[0].coords, t[1]) for t in exact_tiles(p)] == \
        [((0,), 1), ((1,), 2), ((2,), 1)]


def test_patch_length_scales(sys_fib, sys_rauzy2):
    for system in (sys_fib, sys_rauzy2):
        lengths = length_elements(system)
        for j in range(1, system.size + 1):
            for n in range(0, 5):
                patch = inflated_prototile(system, j, n)
                expected = power(system.field.beta(), n) * lengths[j - 1]
                assert position(patch, len(patch)) - position(patch, 0) == \
                    expected


def test_subdivision_self_consistency(sys_fib):
    # inflating the level-n patch tile by tile gives the level-(n+1) patch
    for n in range(0, 4):
        small = inflated_prototile(sys_fib, 1, n)
        big = inflated_prototile(sys_fib, 1, n + 1)
        rebuilt = []
        for pos, c in exact_tiles(small):
            base = sys_fib.field.beta() * pos
            for off, sub_c in zip(subtile_offset_elements(sys_fib)[c - 1],
                                  sys_fib.sub.rule(c)):
                rebuilt.append((base + off, sub_c))
        assert len(rebuilt) == len(big)
        for (p1, c1), (p2, c2) in zip(rebuilt, exact_tiles(big)):
            assert c1 == c2 and p1 == p2


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_subtile_offsets_are_level_one_boundaries(name):
    # the offsets of a rule are its addition chain from zero, as integer
    # vectors over the lengths' denominator, and the first boundaries of
    # the level-one prototile
    system = system_for(name)
    for letter, rule in enumerate(system.sub.rules, start=1):
        chain, _ = _addition_chain(system, rule, system.field.zero())
        offsets = system.subtile_offsets[letter - 1]
        assert all(type(a) is int for off in offsets for a in off)
        assert [off.coords for off in subtile_offset_elements(system)[
            letter - 1]] == [pos.coords for pos, _ in chain]
        patch = inflated_prototile(system, letter, 1)
        assert offsets == tuple(patch.points[:len(rule)])


def test_control_points_leftmost_is_zero(sys_fib, sys_rauzy2):
    for system in (sys_fib, sys_rauzy2):
        vectors, denom = S.control_points(system, (1,) * system.size)
        assert denom == 1 and not any(map(any, vectors))


def _spec_system(name):
    spec = cli.parse_spec((SPECS / f"{name}.spec").read_text(
        encoding="utf-8"), name=name)
    return S.SuspensionSystem(spec.substitution())


def test_control_points_match_gauss_jordan():
    # the functional-graph solve against Gauss-Jordan over Q(beta): the
    # corpus tile maps, and every tile map of fibonacci, rauzy, plastic
    # and the non-unimodular a -> aaab, b -> ab, whose beta^-1 has a
    # denominator
    cases = [(system_for(name), [cli.corpus_lookup(name).tilemap])
             for name in ("aba-gamma", "rauzy2-gamma")]
    for system in (system_for("fibonacci"), system_for("rauzy"),
                   _spec_system("plastic"), _spec_system("nonunimodular")):
        cases.append((system, itertools.product(
            *(range(1, len(rule) + 1) for rule in system.sub.rules))))
    trees = 0
    for system, tile_maps in cases:
        for tile_map in tile_maps:
            points = S.control_points(system, tile_map)
            expected = ref_control_points(system, tile_map)
            assert elements(system.field, *points) == list(expected), tile_map
            # integer vectors over their least common denominator
            assert points == as_refpoints(expected), tile_map
            # g is not a permutation: a tree hangs off one of its cycles
            colors = {system.sub.rule(letter)[idx - 1]
                      for letter, idx in enumerate(tile_map, 1)}
            trees += len(colors) < system.size
    assert trees >= 3


def test_control_points_aba(sys_aba):
    refs = S.control_points(sys_aba, (2, 1))
    assert refs == (((1,), (0,)), 3)
    cp = elements(sys_aba.field, *refs)
    assert cp[0] == Fraction(1, 3)
    assert cp[1] == 0
    assert S.is_admissible(sys_aba, refs)


def test_control_points_rauzy2(sys_rauzy2):
    gamma = (2, 2, 1, 1, 1, 1)
    refs = S.control_points(sys_rauzy2, gamma)
    cp = elements(sys_rauzy2.field, *refs)
    b = sys_rauzy2.field.beta()
    assert cp[0] == 1 and cp[1] == 1
    assert cp[2] == b.inverse()
    assert all(cp[i].is_zero() for i in (3, 4, 5))
    assert S.is_admissible(sys_rauzy2, refs)
    # fixed-point equations hold exactly
    offsets = subtile_offset_elements(sys_rauzy2)
    for j, idx in enumerate(gamma, start=1):
        target = sys_rauzy2.sub.rule(j)[idx - 1]
        offset = offsets[j - 1][idx - 1]
        assert b * cp[j - 1] == offset + cp[target - 1]


def test_admissibility(sys_aba):
    zeros = S.left_endpoint_points(sys_aba)
    assert S.is_admissible(sys_aba, zeros)
    # pushing one reference point a full tile away kills the intersection
    assert zeros == (((0,), (0,)), 1)
    bad = (((2,), (0,)), 1)
    assert not S.is_admissible(sys_aba, bad)


# every corpus entry and every benchmark spec
ADMISSIBILITY_SPECS = cli.corpus() + [
    cli.parse_spec(path.read_text(encoding="utf-8"), name=path.stem)
    for path in sorted(SPECS.glob("*.spec"))]


@pytest.mark.parametrize("spec", ADMISSIBILITY_SPECS,
                         ids=[spec.name for spec in ADMISSIBILITY_SPECS])
def test_admissibility_matches_fieldelem_signs(spec):
    # the same answer after the same refinements, each side on a fresh
    # system: the integer extremes compare the differences the FieldElem
    # ones did, in the same order
    def run(admissible):
        system = S.SuspensionSystem(spec.substitution())
        refs, _ = cli._reference_points(system, spec)
        before = system.field.generation
        return admissible(system, refs), system.field.generation - before

    outcome = run(S.is_admissible)
    assert outcome == run(ref_is_admissible)
    assert outcome[0] is True


@pytest.mark.parametrize("push", [1, -1])
def test_admissibility_fails_a_full_tile_length_away(push):
    # rauzy with a's reference point moved by +-len_a: the shifted
    # prototiles share no interval of positive length
    spec = cli.corpus_lookup("rauzy")
    outcomes = []
    for admissible in (S.is_admissible, ref_is_admissible):
        system = S.SuspensionSystem(spec.substitution())
        refs = elements(system.field, *S.left_endpoint_points(system))
        refs[0] = refs[0] + push * length_elements(system)[0]
        before = system.field.generation
        outcomes.append((admissible(system, as_refpoints(refs)),
                         system.field.generation - before))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is False


def test_tile_map_validation(sys_fib):
    with pytest.raises(ValueError):
        S.control_points(sys_fib, (3, 1))    # rule of letter 1 has length 2
    with pytest.raises(ValueError):
        S.control_points(sys_fib, (1,))


def _rationals(vectors, denom):
    """Integer vectors of a degree-one field over denom as Fractions."""
    return [Fraction(v[0], denom) for v in vectors]


def test_point_sets_aba(sys_aba):
    window = (Fraction(-4), Fraction(4))
    patch = sys_aba.patch_covering(*window)
    pts = S.reference_point_sets(
        patch, S.left_endpoint_points(sys_aba), window
    )
    la = sorted(_rationals(pts.points[0], pts.denom))
    lb = sorted(_rationals(pts.points[1], pts.denom))
    assert la == [-3, -1, 1, 3]
    assert lb == [-4, -2, 0, 2, 4]
    # the points are the tile starts at the indices, in patch order
    for color, (indices, points) in enumerate(zip(pts.indices, pts.points),
                                              start=1):
        assert list(indices) == sorted(indices)
        assert [position(patch, k) for k in indices] == \
            elements(sys_aba.field, points, pts.denom)
        assert all(patch.colors[k] == color for k in indices)


def test_point_sets_shift_covariance(sys_aba):
    window = (Fraction(-6), Fraction(6))
    patch = sys_aba.patch_covering(Fraction(-8), Fraction(8))
    zeros = S.left_endpoint_points(sys_aba)
    shift = sys_aba.field.rational(Fraction(1, 3))
    shifted_refs = as_refpoints(
        [c + shift for c in elements(sys_aba.field, *zeros)])
    base = S.reference_point_sets(patch, zeros, window)
    moved = S.reference_point_sets(
        patch, shifted_refs,
        (window[0] + Fraction(1, 3), window[1] + Fraction(1, 3)),
    )
    assert moved.indices == base.indices
    for color in (1, 2):
        lhs = [x + shift for x in elements(
            sys_aba.field, base.points[color - 1], base.denom)]
        assert [e.coords for e in lhs] == [e.coords for e in elements(
            sys_aba.field, moved.points[color - 1], moved.denom)]


def test_window_not_covered(sys_aba):
    patch = sys_aba.two_sided_patch(1)
    with pytest.raises(WindowNotCovered):
        S.reference_point_sets(
            patch, S.left_endpoint_points(sys_aba),
            (Fraction(-1000), Fraction(1000)),
        )


def test_return_vectors_aba(sys_aba):
    window = (Fraction(-4), Fraction(4))
    patch = sys_aba.patch_covering(*window)
    pts = S.reference_point_sets(
        patch, S.left_endpoint_points(sys_aba), window
    )
    per_color, cross = S.return_vectors(pts)
    da = set(_rationals(per_color[0], pts.denom))
    dc = set(_rationals(cross, pts.denom))
    assert {0, 2, -2, 4, -4}.issubset(da)
    assert {0, 1, -1, 2, -2}.issubset(dc)
    assert all(d % 2 == 0 for d in da)
    assert S.return_vectors(pts, cross=False) == (per_color, ())


def test_return_vectors_tm(sys_tm):
    window = (Fraction(-8), Fraction(8))
    patch = sys_tm.patch_covering(*window)
    pts = S.reference_point_sets(
        patch, S.left_endpoint_points(sys_tm), window
    )
    per_color, _ = S.return_vectors(pts)
    d0 = set(_rationals(per_color[0], pts.denom))
    assert {3, 5, 6, -3, -5, -6}.issubset(d0)


def test_return_vectors_match_fieldelem_differences(sys_rauzy):
    # the same differences in the same order as FieldElem subtraction
    window = sys_rauzy.window(16)
    patch = sys_rauzy.patch_covering(*window)
    refs = S.control_points(sys_rauzy, (2, 1, 1))
    pts = S.reference_point_sets(patch, refs, window)
    per_color, cross = S.return_vectors(pts)
    points = [elements(sys_rauzy.field, p, pts.denom) for p in pts.points]
    assert [elements(sys_rauzy.field, d, pts.denom) for d in per_color] == \
        [fieldelem_differences(p) for p in points]
    assert elements(sys_rauzy.field, cross, pts.denom) == \
        fieldelem_differences([x for p in points for x in p])


def test_tiny_window_single_points(sys_fib):
    window = (Fraction(0), Fraction(1, 2))   # shorter than every tile
    patch = sys_fib.patch_covering(Fraction(-2), Fraction(2))
    pts = S.reference_point_sets(
        patch, S.left_endpoint_points(sys_fib), window
    )
    per_color, _ = S.return_vectors(pts)
    for diffs in per_color:
        assert not any(any(d) for d in diffs)


def test_length_coordinate_rank(sys_fib, sys_rauzy):
    # irreducible systems: the m lengths are linearly independent over Q
    for system in (sys_fib, sys_rauzy):
        m = system.size
        rows = [list(length.coords) for length in length_elements(system)]
        rank = 0
        cols = list(range(len(rows[0])))
        mat = [row[:] for row in rows]
        for col in cols:
            pivot = next(
                (r for r in range(rank, m) if mat[r][col] != 0), None
            )
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            for r in range(m):
                if r != rank and mat[r][col] != 0:
                    f = mat[r][col] / mat[rank][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
            rank += 1
        assert rank == m


def test_generate_patch_two_sided_junction(sys_fib):
    k, left, right = sys_fib.seed
    patch = S.generate_patch(sys_fib, (left, right), k)
    # the junction tile starts exactly at zero, its predecessor ends there
    junction = patch.junction_index
    assert position(patch, junction).is_zero()
    prev_pos, prev_color = exact_tiles(patch)[junction - 1]
    assert prev_pos + length_elements(sys_fib)[prev_color - 1] == 0


def test_patch_embedding_matches_exact_boundaries(sys_fib, sys_rauzy2):
    scale = 1 << 64
    for system in (sys_fib, sys_rauzy2):
        patch = system.patch_covering(*system.window(16))
        lows, highs = patch.enclosures()
        assert patch.enclosures() == (lows, highs)
        assert patch.enclosures()[0] is lows
        tiles, end = _addition_chain(system, patch.colors,
                                     position(patch, 0))
        bounds = [pos for pos, _ in tiles] + [end]
        assert len(patch.points) == len(lows) == len(bounds) == len(patch) + 1
        system.field.ensure_width(Fraction(1, 1 << 80))
        for k, (b, point, low, high) in enumerate(
                zip(bounds, patch.points, lows, highs)):
            assert [Fraction(a, patch.denom) for a in point] == list(b.coords)
            assert position(patch, k).coords == b.coords
            lo, hi = interval_of(b)
            assert low <= scale * patch.denom * hi
            assert scale * patch.denom * lo <= high
        lengths = length_elements(system)
        for k, color in enumerate(patch.colors):
            # contiguous: tile k ends where tile k + 1 starts
            assert position(patch, k) + lengths[color - 1] == bounds[k + 1]


def test_dropped_system_is_freed_without_cyclic_gc():
    # a patch keeps no reference to its system, so reference counting
    # alone frees a system together with its cached patches
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = S.SuspensionSystem(cli.corpus_lookup("rauzy").substitution())
        patch = system.two_sided_patch(2)
        patch.enclosures()
        covering = system.patch_covering(*system.window(64))
        covering.enclosures()
        refs = (weakref.ref(system), weakref.ref(patch),
                weakref.ref(covering))
        del system, patch, covering
        assert [r() for r in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def _addition_chain(system, word, start):
    """Reference: tile positions by one field addition per tile."""
    tiles = []
    pos = start
    lengths = length_elements(system)
    for c in word:
        tiles.append((pos, c))
        pos = pos + lengths[c - 1]
    return tiles, pos


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_prefix_sum_patch_equals_addition_chain(name):
    system = system_for(name)
    k, left, right = system.seed
    word = system.sub.iterate(left, 2 * k) + system.sub.iterate(right, 2 * k)
    for start in (system.field.zero(), length_elements(system)[0]):
        patch = system.patch_from_word(
            word, scaled_coords(start.coords, system._length_denom))
        tiles, end = _addition_chain(system, word, start)
        assert len(patch) == len(word)
        assert [(pos.coords, c) for pos, c in exact_tiles(patch)] == \
            [(pos.coords, c) for pos, c in tiles]
        assert position(patch, len(patch)).coords == end.coords
        # the same normal form: int where integral, Fraction otherwise
        assert [tuple(map(type, pos.coords))
                for pos, _ in exact_tiles(patch)] == \
            [tuple(map(type, pos.coords)) for pos, _ in tiles]
    patch = S.generate_patch(system, (left, right), 2 * k)
    left_len = _addition_chain(system, system.sub.iterate(left, 2 * k),
                               system.field.zero())[1]
    assert position(patch, 0) == -left_len
    assert position(patch, patch.junction_index).is_zero()


# a -> ab, b -> aab: lengths (beta - 1)/2 and 1, with a denominator 2
HALVES = "letters a b\nrule a = a b\nrule b = a a b\n"


@pytest.mark.parametrize("name", ["rauzy2-gamma", "halves"])
def test_patch_command_prints_the_addition_chain(name, tmp_path, capsys):
    # golden: `subtiling patch` prints each tile of the two-sided patch
    # as the exact positions of one field addition per tile
    if name == "halves":
        path = tmp_path / "halves.spec"
        path.write_text(HALVES, encoding="utf-8")
        spec, source = cli.parse_spec(HALVES), str(path)
    else:
        spec, source = cli.corpus_lookup(name), name
    system = S.SuspensionSystem(spec.substitution())
    _, left, right = system.seed
    left_word = system.sub.iterate(left, 2)
    left_len = _addition_chain(system, left_word, system.field.zero())[1]
    tiles, _ = _addition_chain(
        system, left_word + system.sub.iterate(right, 2), -left_len)
    if name == "halves":
        assert any(type(c) is Fraction
                   for pos, _ in tiles for c in pos.coords)
    expected = [" ".join([spec.token(c)] + [spectrum._frac_str(x)
                                            for x in pos.coords])
                for pos, c in tiles]
    assert cli.main(["patch", source, "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_fixed_point_patches_are_cached(sys_fib, sys_rauzy2):
    for system in (sys_fib, sys_rauzy2):
        assert system.two_sided_patch(3) is system.two_sided_patch(3)
        k, left, right = system.seed
        assert S.generate_patch(system, (left, right), 3 * k) is \
            system.two_sided_patch(3)
        patch = system.patch_covering(*system.window(16))
        assert system.patch_covering(*system.window(16)) is patch


# (corpus id, tile map or None for the left endpoints); the rauzy,
# rauzy2-gamma and aba-gamma maps give control points with coordinates
# 1/2, 1/2 and 2/3, whose denominators do not divide a patch's
POINT_SET_CASES = (
    ("fibonacci", None), ("fib2", None), ("rauzy", (2, 1, 1)),
    ("rauzy2-gamma", (2, 1, 1, 2, 1, 1)), ("aba-gamma", (2, 3)),
)


def _fresh_setting(name, tile_map, size):
    """A new system, so that its beta interval starts unrefined, its
    reference points and a patch covering a window of size + 4."""
    system = S.SuspensionSystem(cli.corpus_lookup(name).substitution())
    refs = (S.left_endpoint_points(system) if tile_map is None
            else S.control_points(system, tile_map))
    patch = system.patch_covering(*system.window(size + 4))
    return system, refs, patch


@st.composite
def _window_end(draw, system, refs, patch, size):
    """A rational window end: any rational, or one in the enclosure of a
    reference point, of a point off one by +-beta^-k, or of a cut through
    a tile."""
    kind = draw(st.sampled_from(["rational", "point", "near", "cut"]))
    if kind == "rational":
        # inside the window of `size`, as every tile is at least 1 long
        q = draw(st.sampled_from([1, 3, 16]))
        return Fraction(draw(st.integers(-size * q // 2, size * q // 2)), q)
    j = patch.junction_index + draw(st.integers(-size // 2, size // 2 - 1))
    pos, c = exact_tiles(patch)[j]
    ref = elements(system.field, *refs)[c - 1]
    if kind == "point":
        end = pos + ref
    elif kind == "near":
        sign = draw(st.sampled_from([1, -1]))
        end = pos + ref + sign * power(system.field.beta(),
                                       -draw(st.integers(4, 24)))
    else:
        end = pos + length_elements(system)[c - 1] * draw(
            st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)]))
    lo, hi = interval_of(end)
    return draw(st.sampled_from([lo, hi, (lo + hi) / 2]))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pruned_point_sets_match_fieldelem_loop(data):
    # same points in the same order after the same refinements, each side
    # on a fresh system, for rational window ends on, near and between
    # the points; the probe's beta interval is 2^-40 wide, so that the
    # enclosures of points are close to them
    name, tile_map = data.draw(st.sampled_from(POINT_SET_CASES))
    size = data.draw(st.sampled_from([4, 16]))
    probe = _fresh_setting(name, tile_map, size)
    probe[0].field.ensure_width(Fraction(1, 1 << 40))
    ends = [data.draw(_window_end(*probe, size)) for _ in range(2)]
    results = []
    for point_sets in (fieldelem_point_sets, _integer_point_sets):
        system, refs, patch = _fresh_setting(name, tile_map, size)
        window = tuple(ends)
        before = system.field.generation
        per_color = point_sets(patch, refs, window)
        results.append(([[x.coords for x in pts] for pts in per_color],
                         system.field.generation - before))
    assert results[0] == results[1]


def _integer_point_sets(patch, refpoints, window):
    """`reference_point_sets` as FieldElem points per color, each checked
    against the tile its index names."""
    pts = S.reference_point_sets(patch, refpoints, window)
    refs = elements(patch.field, *refpoints)
    per_color = []
    for color, (indices, points) in enumerate(zip(pts.indices, pts.points),
                                              start=1):
        elems = elements(patch.field, points, pts.denom)
        assert list(indices) == sorted(indices)
        assert all(patch.colors[k] == color and
                   position(patch, k) + refs[color - 1] == x
                   for k, x in zip(indices, elems))
        per_color.append(elems)
    return per_color
