"""The golden reports of tests/golden: each one is acceptable as
perfbench/make_fixtures.py judges a fixture, and their UNKNOWN claims are
counted against a pinned census.

`test_cli.test_reports_match_committed_fixtures` compares `analyze` with
these files byte for byte; `golden_reports.py` rewrites them.
"""

import collections
import json

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


def _golden(name):
    return (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def _unknowns(node):
    """The number of "status": "UNKNOWN" entries at or under a node."""
    if isinstance(node, dict):
        return sum(1 if key == "status" and value == "UNKNOWN"
                   else _unknowns(value) for key, value in node.items())
    if isinstance(node, list):
        return sum(map(_unknowns, node))
    return 0


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
            census[check] += _unknowns(entry)
    assert {check: n for check, n in census.items() if n} == UNKNOWN_CENSUS
    assert sum(UNKNOWN_CENSUS.values()) == 59
