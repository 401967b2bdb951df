"""Acceptance suite: one test per criterion, exact assertions throughout.

Every check runs at its stated bound (level bound 12, window 64 tile
lengths, power bound 16) and every comparison is an exact equality in
Q(beta); there are no numerical tolerances anywhere.
"""


from subtiling import cli, coincidence, lattices, spectrum, suspension, words

from conftest import (CORPUS_IDS, inflated_prototile, key_coords,
                      length_elements, position, power, report_for,
                      system_for)


def _ok(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS  {text}")


def _agg(report, check):
    return report["checks"][check]["aggregate"]


def test_criterion_1_corpus_verdict_table():
    tm = report_for("thue-morse")
    assert tm["checks"]["overlap_coincidence"]["status"] == "FAILS"
    sys_tm = system_for("thue-morse")
    lo, hi = sys_tm.window(64)
    patch = sys_tm.patch_covering(lo, hi)
    pts = suspension.reference_point_sets(
        patch, suspension.left_endpoint_points(sys_tm), (lo, hi)
    )
    per_color, _ = suspension.return_vectors(pts)
    lat0 = lattices.module_from_int_rows(per_color[0], pts.denom, 1)
    assert lat0 == lattices.ZModule(1, ((1,),), 1)
    f = sys_tm.field
    assert lattices.eventual_membership((1,), 2, lat0, f, 16) == 1
    assert lattices.eventual_membership((1,), 4, lat0, f, 16) == 2

    fib2 = report_for("fib2")
    assert fib2["checks"]["overlap_coincidence"]["status"] == "FAILS"
    assert _agg(fib2, "prefix_strong") == "FAILS"
    assert _agg(fib2, "suffix_strong") == "FAILS"
    assert fib2["checks"]["height_group"]["group"]["display"] == "trivial"
    assert fib2["checks"]["height_group"]["status"] == "DECIDED"
    erm = fib2["checks"]["eventual_return_module"]
    assert erm["status"] == "HOLDS" and erm["max_power"] == 0

    r2l = report_for("rauzy2-left")
    assert r2l["checks"]["overlap_coincidence"]["status"] == "HOLDS"
    assert r2l["checks"]["height_group"]["group"]["display"] == "Z/2Z"
    assert _agg(r2l, "prefix_strong") == "FAILS"
    assert _agg(r2l, "suffix_strong") == "FAILS"

    r2g = report_for("rauzy2-gamma")
    assert r2g["facts"]["admissible"] is True
    sim = r2g["checks"]["simultaneous"]
    assert sim["status"] == "HOLDS" and sim["witness"]["level"] <= 12
    assert r2g["checks"]["height_group"]["group"]["display"] == "trivial"

    aba_l = report_for("aba-left")
    aba_g = report_for("aba-gamma")
    for rep in (aba_l, aba_g):
        assert _agg(rep, "prefix_strong") == "FAILS"
        assert _agg(rep, "suffix_strong") == "FAILS"
    assert aba_l["checks"]["height_group"]["group"]["display"] == "Z/2Z"
    assert aba_g["checks"]["height_group"]["group"]["display"] == "Z/3Z"
    geo = aba_g["checks"]["geometric_strong"]["pairs"]["a|b"]
    assert geo["status"] == "HOLDS" and geo["witness"]["level"] == 1

    _ok(1, "corpus verdict table reproduced exactly")


def test_criterion_2_overlap_implies_simultaneous():
    applicable = []
    for name in CORPUS_IDS:
        report = report_for(name)
        checks = report["checks"]
        if checks["overlap_coincidence"]["status"] != "HOLDS":
            continue
        if report["facts"]["admissible"] is not True:
            continue
        if checks["eventual_return_module"]["status"] != "HOLDS":
            continue
        applicable.append(name)
        assert checks["simultaneous"]["status"] == "HOLDS", name
        outcome = cli.verify_report(report)
        assert outcome["replayed"]["simultaneous"] is True, name
    assert set(applicable) >= {"fibonacci", "rauzy", "rauzy2-gamma",
                               "aba-gamma"}
    _ok(2, f"simultaneous coincidence + exact witness replay on "
           f"{sorted(applicable)}")


def test_criterion_3_prefix_simultaneous_for_irreducible_holders():
    expected_minima = {"fibonacci": (1, 1), "rauzy": (1, 1)}
    quoted_witnesses = {"fibonacci": (2, 1), "rauzy": (3, 4)}
    for name, minimum in expected_minima.items():
        report = report_for(name)
        assert report["facts"]["characteristic_irreducible"] is True
        assert report["facts"]["pisot"] is True
        assert report["checks"]["overlap_coincidence"]["status"] == "HOLDS"
        check = report["checks"]["prefix_simultaneous"]
        assert check["status"] == "HOLDS", name
        witness = check["witness"]
        sub = cli.corpus_lookup(name).substitution()
        # the reported witness is valid and lexicographically minimal
        assert (witness["level"], witness["prefix_length"]) == minimum
        assert _balanced_prefixes(sub, *minimum)
        # the larger quoted pairs satisfy the same property (not minimal)
        assert _balanced_prefixes(sub, *quoted_witnesses[name])
    _ok(3, "balanced common prefixes with identical final letters; "
           "minima (1,1)/(1,1); quoted pairs (2,1)/(3,4) valid witnesses")


def _balanced_prefixes(sub, level, length):
    images = [sub.iterate(c, level) for c in range(1, sub.size + 1)]
    if any(len(w) < length for w in images):
        return False
    counts = {words.abelianization(w[:length], sub.size) for w in images}
    finals = {w[length - 1] for w in images}
    return len(counts) == 1 and len(finals) == 1


def test_criterion_4_trivial_height_for_irreducible_left_endpoints():
    checked = []
    for name in CORPUS_IDS:
        report = report_for(name)
        if report["facts"]["characteristic_irreducible"] is not True:
            continue
        if report["facts"]["reference_point_kind"] != "left-endpoints":
            continue
        height = report["checks"]["height_group"]
        assert height["group"]["display"] == "trivial", name
        assert height["status"] == "DECIDED"
        assert height["stabilized_at_window"] <= 64, name
        checked.append(name)
    assert set(checked) == {"fibonacci", "rauzy"}
    _ok(4, f"trivial height groups, stabilized by window 64: {checked}")


def test_criterion_5_length_coordinates_have_full_rank():
    checked = []
    for name in CORPUS_IDS:
        report = report_for(name)
        if report["facts"]["characteristic_irreducible"] is not True:
            continue
        system = system_for(name)
        m = system.size
        mat = [list(length) for length in system.lengths[0]]
        assert _rational_rank(mat) == m, name
        checked.append(name)
    assert checked
    _ok(5, f"prototile lengths rationally independent: {sorted(set(checked))}")


def _rational_rank(rows):
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0),
                     None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_criterion_6_cross_algorithm_agreement():
    agreements = []
    for name in CORPUS_IDS:
        report = report_for(name)
        checks = report["checks"]
        assert checks["spectral"]["disagreement_detected"] is False, name
        overlap = checks["overlap_coincidence"]["status"]
        balanced = checks["balanced_pairs"]["status"]
        advisory = checks["balanced_pairs"].get("advisory", False)
        if overlap in ("HOLDS", "FAILS") and balanced in ("HOLDS", "FAILS"):
            if overlap == balanced:
                agreements.append(name)
            else:
                # the one legitimate mismatch: the pair-iteration criterion
                # is out of scope for the reducible periodic two-letter
                # system, whose tiling is trivially pure discrete while the
                # rotation pair cycles forever
                assert advisory, name
                assert name in ("aba-left", "aba-gamma"), name
    assert {"thue-morse", "fibonacci", "rauzy"} <= set(agreements)
    _ok(6, f"procedures agree wherever both decide (scope noted): "
           f"{sorted(agreements)}")


def test_criterion_7_exact_identities_and_node_invariants():
    names = ("thue-morse", "fibonacci", "aba-left", "fib2", "rauzy",
             "rauzy2-left")
    for name in names:
        system = system_for(name)
        lengths = length_elements(system)
        for j in range(1, system.size + 1):
            for n in range(0, 7):
                patch = inflated_prototile(system, j, n)
                expected = power(system.field.beta(), n) * lengths[j - 1]
                diff = position(patch, len(patch)) - position(patch, 0) - \
                    expected
                assert diff.is_zero(), (name, j, n)
        # regenerate the closure and re-verify each node
        refs = suspension.left_endpoint_points(system)
        step, seeds = spectrum._seed_keys(system, refs, system.window(64),
                                          spectrum.DEFAULT_NODE_CAP)
        classes = dict(seeds)
        queue = list(seeds)
        while queue:
            key = queue.pop()
            children = step.successors(key)
            if key[0] == key[1] and not any(key[2]):
                assert all(m == a and not any(shift)
                           for m, a, shift in children), name
            for (moved, anchor, coords), child in zip(
                    key_coords(children, step.denom), children):
                shift = system.field.element(coords)
                lo = -lengths[moved - 1]
                hi = lengths[anchor - 1]
                assert (shift - lo).sign() > 0, name
                assert (hi - shift).sign() > 0, name
                if child not in classes:
                    classes[child] = None
                    queue.append(child)
    _ok(7, "patch lengths equal scaled prototile lengths (n <= 6); "
           "displacement and absorption invariants hold on every node")


def test_criterion_8_prefix_agrees_with_geometry_at_left_endpoints():
    for name in ("thue-morse", "fibonacci", "aba-left", "fib2", "rauzy",
                 "rauzy2-left"):
        system = system_for(name)
        sub = system.sub
        refs = suspension.left_endpoint_points(system)
        word_side = coincidence.prefix_strong(sub, level_bound=8)
        tile_side = coincidence.geometric_strong(system, refs, level_bound=8)
        for pair in word_side:
            w, t = word_side[pair], tile_side[pair]
            assert (w.status == "HOLDS") == (t.status == "HOLDS"), \
                (name, pair)
            if w.status == "HOLDS":
                assert w.witness.level == t.witness.level, (name, pair)
    _ok(8, "combinatorial and geometric routes agree on all pairs to L=8")
