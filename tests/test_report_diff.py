"""The leaf classes of tests/report_diff.py, on hand-made report pairs."""

import pytest

from report_diff import (ABSENT, changes, leaves, read_allow, refused,
                         table)

BEFORE = {
    "facts": {"pisot": True, "reference_points": [["0/1"], ["1/1"]]},
    "checks": {
        "prefix_strong": {"aggregate": "UNKNOWN", "pairs": {
            "a|b": {"status": "UNKNOWN"}, "a|c": {"status": "HOLDS"}}},
        "height_group": {"status": "UNSTABLE", "group": {"display": "Z"}},
        "overlap_coincidence": {"status": "HOLDS", "certificate": {}},
        "balanced_pairs": {"status": "UNKNOWN",
                           "bound_hit": "pair length cap 100000"},
        "spectral": {"status": "PURE_DISCRETE", "agreement": "agree"},
    },
    "cost": {"balanced_pairs": None, "seed_power": 2},
}


def _edited(*edits):
    """A deep copy of BEFORE with each (path, value) set; ABSENT deletes."""
    report = _copy(BEFORE)
    for path, value in edits:
        node = report
        for key in path[:-1]:
            node = node[key]
        if value is ABSENT:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return report


def _copy(node):
    if isinstance(node, dict):
        return {key: _copy(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_copy(value) for value in node]
    return node


def _classes(after, before=BEFORE):
    return [(leaf, cls) for _, leaf, _, _, cls in
            changes({"x": before}, {"x": after})]


def test_leaves_are_dotted_paths_in_report_order():
    found = dict(leaves(BEFORE))
    assert list(found)[:3] == ["facts.pisot", "facts.reference_points.0.0",
                               "facts.reference_points.1.0"]
    assert found["checks.prefix_strong.pairs.a|b.status"] == "UNKNOWN"
    assert found["checks.overlap_coincidence.certificate"] == {}


def test_an_identical_report_has_no_changes():
    assert changes({"x": BEFORE}, {"x": _copy(BEFORE)}) == []


@pytest.mark.parametrize("path,value,cls", [
    (("checks", "prefix_strong", "pairs", "a|b", "status"), "FAILS",
     "tightened"),
    (("checks", "height_group", "status"), "DECIDED", "tightened"),
    (("checks", "prefix_strong", "pairs", "a|c", "status"), "UNKNOWN",
     "loosened"),
    (("checks", "overlap_coincidence", "status"), "UNKNOWN", "loosened"),
    (("checks", "overlap_coincidence", "status"), "FAILS", "flipped"),
    (("checks", "spectral", "status"), "NOT_PURE_DISCRETE", "flipped"),
    (("checks", "balanced_pairs", "bound_hit"), "pair length cap 2000",
     "cost/bound_hit"),
    (("cost", "seed_power"), 3, "cost/bound_hit"),
    (("cost", "balanced_pairs"), 12, "cost/bound_hit"),
    (("checks", "spectral", "agreement"), "not-applicable", "other"),
    (("checks", "height_group", "group", "display"), "Z/2", "other"),
    (("facts", "pisot"), False, "other"),
    (("checks", "balanced_pairs", "advisory"), True, "added"),
    (("checks", "spectral", "agreement"), ABSENT, "removed"),
    (("checks", "balanced_pairs", "bound_hit"), ABSENT, "removed"),
])
def test_each_changed_leaf_gets_its_class(path, value, cls):
    assert _classes(_edited((path, value))) == [(".".join(path), cls)]


def test_a_pair_that_goes_away_loses_its_verdict():
    after = _edited((("checks", "prefix_strong", "pairs", "a|c"), ABSENT))
    assert _classes(after) == [
        ("checks.prefix_strong.pairs.a|c.status", "loosened")]


def test_a_status_that_only_moves_between_undecided_ones_is_other():
    before = _edited((("checks", "height_group", "status"), "UNKNOWN"))
    assert _classes(BEFORE, before) == [("checks.height_group.status",
                                         "other")]


def test_a_check_that_turns_into_an_error_loses_its_verdict():
    after = _edited((("checks", "overlap_coincidence"), {"error": "boom"}))
    assert _classes(after) == [
        ("checks.overlap_coincidence.status", "loosened"),
        ("checks.overlap_coincidence.certificate", "removed"),
        ("checks.overlap_coincidence.error", "added")]


def test_a_value_of_another_type_is_a_change():
    after = _edited((("cost", "seed_power"), 2.0))
    assert _classes(after) == [("cost.seed_power", "cost/bound_hit")]


def test_an_input_only_one_side_has_is_all_added():
    rows = changes({}, {"x": {"checks": {"spectral": {"status": "HOLDS"}}}})
    assert rows == [("x", "checks.spectral.status", ABSENT, "HOLDS",
                     "added")]


def test_loosened_and_flipped_leaves_are_refused_unless_allowed():
    after = _edited(
        (("checks", "overlap_coincidence", "status"), "FAILS"),
        (("checks", "prefix_strong", "pairs", "a|c", "status"), "UNKNOWN"),
        (("checks", "prefix_strong", "pairs", "a|b", "status"), "HOLDS"),
        (("cost", "seed_power"), 3))
    rows = changes({"x": BEFORE}, {"x": after})
    assert [row[4] for row in refused(rows)] == ["loosened", "flipped"]
    allowed = read_allow(
        "# leaves a documented fix may change\n\n"
        "x checks.overlap_coincidence.status the closure was unsound\n")
    assert allowed == {("x", "checks.overlap_coincidence.status")}
    assert [row[1] for row in refused(rows, allowed)] == [
        "checks.prefix_strong.pairs.a|c.status"]
    text = table(rows, allowed)
    assert text.splitlines()[0] == (
        "4 changed leaves: 1 tightened, 1 loosened, 1 flipped, "
        "1 cost/bound_hit")
    assert "| flipped (allowed) |" in text
    assert "| loosened |" in text


def test_an_allow_line_needs_a_reason():
    with pytest.raises(ValueError, match="line 2"):
        read_allow("x a.status why\nx b.status\n")


def test_the_table_escapes_the_pipes_of_pair_keys():
    after = _edited(
        (("checks", "prefix_strong", "pairs", "a|b", "status"), "FAILS"))
    row = table(changes({"x": BEFORE}, {"x": after})).splitlines()[-1]
    assert row == ("| x | `checks.prefix_strong.pairs.a\\|b.status` | "
                   '`"UNKNOWN"` | `"FAILS"` | tightened |')
