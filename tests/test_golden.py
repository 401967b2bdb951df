"""The golden reports of tests/golden: each one is acceptable as
perfbench/make_fixtures.py judges a fixture, and their UNKNOWN claims are
counted against a pinned census.

`test_cli.test_reports_match_committed_fixtures` compares `analyze` with
these files byte for byte; `golden_reports.py` rewrites them.
"""

import collections
import json
import re

import pytest

from golden_reports import GOLDEN, NAMES, problems

# UNKNOWN status nodes per check across the golden reports.  A change
# that moves a count updates it here and gives the delta, and why, in
# CHANGES.md; a count may rise only with a documented reason.
UNKNOWN_CENSUS = {
    "prefix_strong": 16,
    "suffix_strong": 31,
    "geometric_strong": 2,
    "simultaneous": 1,
    "prefix_simultaneous": 1,
    "eventual_return_module": 2,
    "balanced_pairs": 4,
    "overlap_coincidence": 1,
    "spectral": 1,
}


# what a `bound_hit` may name: a cap with its value, a window, or the
# scope of the overlap closure
KNOWN_CAP = re.compile(r"(level bound|node cap|word cap|power bound"
                       r"|pair length cap|pair cap|iteration cap) \d+"
                       r"|window .+|not Pisot")


def _golden(name):
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _unknown_nodes(node):
    """Every object at or under a node whose status is UNKNOWN."""
    if isinstance(node, dict):
        if node.get("status") == "UNKNOWN":
            yield node
        for value in node.values():
            yield from _unknown_nodes(value)
    elif isinstance(node, list):
        for item in node:
            yield from _unknown_nodes(item)


def test_there_is_one_golden_report_per_input():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == \
        sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_golden_report_meets_the_oracle_and_passes_verify(name):
    assert problems(name, _golden(name)) == []


def test_a_golden_report_the_oracle_refutes_is_refused():
    report = json.loads(_golden("thue-morse"))
    report["checks"]["spectral"]["status"] = "PURE_DISCRETE"
    found = problems("thue-morse", json.dumps(report))
    assert found and found[-1] == "thue-morse: report does not pass verify"


def test_the_unknown_census_is_pinned():
    census = collections.Counter()
    for name in NAMES:
        for check, entry in json.loads(_golden(name))["checks"].items():
            census[check] += sum(1 for _ in _unknown_nodes(entry))
    assert {check: n for check, n in census.items() if n} == UNKNOWN_CENSUS
    assert sum(UNKNOWN_CENSUS.values()) == 59


def _unnamed_caps(checks):
    """The UNKNOWN nodes of a checks section, but for the derived
    `spectral`, whose `bound_hit` names no known cap."""
    return [node for check, entry in checks.items() if check != "spectral"
            for node in _unknown_nodes(entry)
            if not KNOWN_CAP.fullmatch(node.get("bound_hit") or "")]


@pytest.mark.parametrize("name", NAMES)
def test_every_unknown_names_its_cap(name):
    assert _unnamed_caps(json.loads(_golden(name))["checks"]) == []


def test_an_unknown_that_names_no_cap_is_found():
    checks = json.loads(_golden("rauzy2-left"))["checks"]
    pair = checks["prefix_strong"]["pairs"]["a|B"]
    del pair["bound_hit"]
    checks["balanced_pairs"]["bound_hit"] = "pair cap"
    assert _unnamed_caps(checks) == [pair, checks["balanced_pairs"]]
