"""The golden reports of tests/golden: each one is acceptable as
perfbench/make_fixtures.py judges a fixture, and their UNKNOWN claims are
counted against a pinned census.  Rauzy at the tile map (2, 1, 1), which
has no golden report, is pinned by the sha256 of its `analyze` output.

`test_cli.test_reports_match_committed_fixtures` compares `analyze` with
these files byte for byte; `golden_reports.py` rewrites them.
"""

import collections
import hashlib
import json
import re

import pytest

from golden_reports import GOLDEN, NAMES, RAUZY_211, problems
from subtiling import cli

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


# sha256 of `analyze` on RAUZY_211 at the default bounds, serialized as
# tests/test_pinned_outputs.py serializes its outputs
RAUZY_211_SHA256 = (
    "754437f19aa1f71e5954ed569d6cc47bd4ad88cafe319cc23787dffec87e5441")


def test_rauzy_at_a_half_integer_tile_map_is_pinned_and_passes_verify():
    report = cli.run_analysis(cli.parse_spec(RAUZY_211, name="rauzy-211"))
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        RAUZY_211_SHA256
    # its geometric FAILS certificates are over the denominator 2
    pairs = report["checks"]["geometric_strong"]["pairs"]
    assert [pair for pair, claim in pairs.items()
            if claim["status"] == "FAILS"] == ["a|b", "a|c"]
    assert any(x.endswith("/2") for claim in pairs.values()
               for state in claim.get("certificate", {}).get(
                   "closed_states", ())
               for c in state["classes"] for x in c["shift"])
    assert cli.verify_report(json.loads(text))["passed"]
