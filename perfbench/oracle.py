"""Expected verdicts for every benchmark input, each with its source.

`check(name, report)` lists every way an `analyze` report contradicts what
is known about its input; the benchmark counts a report with any such
message as a failed operation.  Entries are deliberately weaker than the
reports: an UNKNOWN that the program honestly reports (a cap or a level
bound ran out) is never a mismatch, a verdict that contradicts a theorem
or an acceptance criterion is.
"""

from __future__ import annotations

import operator

ACCEPTANCE = "tests/test_acceptance.py criterion {}"
SOLOMYAK = ("non-Pisot expansion: the tiling system is weakly mixing "
            "(Solomyak 1997, Dynamics of self-similar tilings)")
DEKKING = ("constant length with a coincidence and height 1: pure discrete "
           "(Dekking 1978)")
BRAUER = ("2 >= k_1 >= ... >= k_m >= 1 makes x^m - k_1 x^(m-1) - ... - k_m "
          "a Pisot polynomial (Brauer 1951)")
BY_HAND = "spec file header: matrix and characteristic polynomial by hand"

CORPUS = ("thue-morse", "fibonacci", "aba-left", "aba-gamma", "fib2",
          "rauzy", "rauzy2-left", "rauzy2-gamma")
# Corpus entries whose reference points are the left endpoints; criterion 8
# compares the word and tile routes on them.
LEFT_ENDPOINT_CORPUS = ("thue-morse", "fibonacci", "aba-left", "fib2",
                        "rauzy", "rauzy2-left")

DECIDED = {"HOLDS", "FAILS", "DECIDED", "PURE_DISCRETE", "NOT_PURE_DISCRETE"}
CHECKS = ("prefix_strong", "suffix_strong", "geometric_strong",
          "simultaneous", "prefix_simultaneous", "height_group",
          "eventual_return_module", "overlap_coincidence", "balanced_pairs",
          "spectral")

_OPS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le}


def _c(n):
    return ACCEPTANCE.format(n)


def _status(check):
    return ("checks", check, "status")


def _aggregate(check):
    return ("checks", check, "aggregate")


_IRREDUCIBLE_HOLDER = [
    (("facts", "characteristic_irreducible"), "==", True, _c(3)),
    (("facts", "pisot"), "==", True, _c(3)),
    (_status("overlap_coincidence"), "==", "HOLDS", _c(3)),
    (_status("prefix_simultaneous"), "==", "HOLDS", _c(3)),
    (("checks", "prefix_simultaneous", "witness", "level"), "==", 1, _c(3)),
    (("checks", "prefix_simultaneous", "witness", "prefix_length"), "==", 1,
     _c(3)),
    (("checks", "height_group", "group", "display"), "==", "trivial", _c(4)),
    (_status("height_group"), "==", "DECIDED", _c(4)),
    (("checks", "height_group", "stabilized_at_window"), "<=", 64, _c(4)),
    (_status("balanced_pairs"), "==", "HOLDS", _c(6)),
    (_status("spectral"), "==", "PURE_DISCRETE", _c("3 and 6")),
]

_OFF_CORPUS_PISOT = [
    (("facts", "characteristic_irreducible"), "==", True, BY_HAND),
    (("facts", "pisot"), "==", True, BY_HAND),
]

# (path into the report, comparison, value, source)
EXPECTED = {
    "thue-morse": [
        (_status("overlap_coincidence"), "==", "FAILS", _c(1)),
        (_status("balanced_pairs"), "==", "FAILS", _c(6)),
        (_status("spectral"), "==", "NOT_PURE_DISCRETE", _c("1 and 6")),
    ],
    "fibonacci": _IRREDUCIBLE_HOLDER,
    "rauzy": _IRREDUCIBLE_HOLDER,
    "fib2": [
        (_status("overlap_coincidence"), "==", "FAILS", _c(1)),
        (_status("spectral"), "!=", "PURE_DISCRETE", _c(1)),
        (_aggregate("prefix_strong"), "==", "FAILS", _c(1)),
        (_aggregate("suffix_strong"), "==", "FAILS", _c(1)),
        (("checks", "height_group", "group", "display"), "==", "trivial",
         _c(1)),
        (_status("height_group"), "==", "DECIDED", _c(1)),
        (_status("eventual_return_module"), "==", "HOLDS", _c(1)),
        (("checks", "eventual_return_module", "max_power"), "==", 0, _c(1)),
    ],
    "rauzy2-left": [
        (_status("overlap_coincidence"), "==", "HOLDS", _c(1)),
        (_status("spectral"), "!=", "NOT_PURE_DISCRETE", _c(1)),
        (("checks", "height_group", "group", "display"), "==", "Z/2Z",
         _c(1)),
        (_aggregate("prefix_strong"), "==", "FAILS", _c(1)),
        (_aggregate("suffix_strong"), "==", "FAILS", _c(1)),
    ],
    "rauzy2-gamma": [
        (("facts", "admissible"), "==", True, _c(1)),
        (_status("simultaneous"), "==", "HOLDS", _c(1)),
        (("checks", "simultaneous", "witness", "level"), "<=", 12, _c(1)),
        (("checks", "height_group", "group", "display"), "==", "trivial",
         _c(1)),
    ],
    "aba-left": [
        (_aggregate("prefix_strong"), "==", "FAILS", _c(1)),
        (_aggregate("suffix_strong"), "==", "FAILS", _c(1)),
        (("checks", "height_group", "group", "display"), "==", "Z/2Z",
         _c(1)),
    ],
    "aba-gamma": [
        (_aggregate("prefix_strong"), "==", "FAILS", _c(1)),
        (_aggregate("suffix_strong"), "==", "FAILS", _c(1)),
        (("checks", "height_group", "group", "display"), "==", "Z/3Z",
         _c(1)),
        (("checks", "geometric_strong", "pairs", "a|b", "status"), "==",
         "HOLDS", _c(1)),
        (("checks", "geometric_strong", "pairs", "a|b", "witness", "level"),
         "==", 1, _c(1)),
    ],
    "period-doubling": [
        (("checks", "prefix_strong", "pairs", "a|b", "status"), "==",
         "HOLDS", "both rules start with a: a shared first tile at level 1"),
        (_status("spectral"), "!=", "NOT_PURE_DISCRETE", DEKKING),
    ],
    "plastic": _OFF_CORPUS_PISOT,
    "pentanacci": _OFF_CORPUS_PISOT,
    "nonunimodular": _OFF_CORPUS_PISOT,
    "nonpisot": [
        (("facts", "pisot"), "==", False, BY_HAND),
        (_status("spectral"), "!=", "PURE_DISCRETE", SOLOMYAK),
    ],
}
BETA_EXPECTED = [
    (("facts", "primitive"), "==", True, BRAUER),
    (("facts", "pisot"), "==", True, BRAUER),
]

_MISSING = object()


def _get(report, path):
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def expectations(name):
    if name.startswith("beta-"):
        return BETA_EXPECTED
    return EXPECTED.get(name, [])


def check(name, report):
    """Every contradiction between the report and the oracle, as text."""
    out = []
    checks = report.get("checks", {})
    if "error" in checks:
        out.append(f"{name}: {checks['error']}")
    for check_name, value in checks.items():
        if isinstance(value, dict) and "error" in value:
            out.append(f"{name}: {check_name} raised: {value['error']}")
    if _get(report, ("checks", "spectral", "disagreement_detected")) \
            is not False:
        out.append(f"{name}: spectral disagreement detected ({_c(6)})")
    for path, op, value, source in expectations(name):
        got = _get(report, path)
        try:
            ok = got is not _MISSING and _OPS[op](got, value)
        except TypeError:
            ok = False
        if not ok:
            shown = "missing" if got is _MISSING else repr(got)
            out.append(f"{name}: {'.'.join(path)} is {shown}, expected "
                       f"{op} {value!r} ({source})")
    if name in CORPUS:
        out += _criterion_2(name, checks, report.get("facts", {}))
        out += _criterion_6(name, checks)
    if name in LEFT_ENDPOINT_CORPUS:
        out += _criterion_8(name, checks)
    return out


def _criterion_2(name, checks, facts):
    """Overlap coincidence, admissibility and eventual return together
    imply simultaneous coincidence."""
    if (_get(checks, ("overlap_coincidence", "status")) == "HOLDS"
            and facts.get("admissible") is True
            and _get(checks, ("eventual_return_module", "status")) == "HOLDS"
            and _get(checks, ("simultaneous", "status")) != "HOLDS"):
        return [f"{name}: overlap HOLDS but simultaneous does not "
                f"({_c(2)})"]
    return []


def _criterion_6(name, checks):
    """Where both spectral routes decide they agree, except for the
    advisory balanced pairs of the periodic aba system."""
    overlap = _get(checks, ("overlap_coincidence", "status"))
    balanced = _get(checks, ("balanced_pairs", "status"))
    if overlap in ("HOLDS", "FAILS") and balanced in ("HOLDS", "FAILS") \
            and overlap != balanced:
        advisory = _get(checks, ("balanced_pairs", "advisory")) is True
        if not (advisory and name in ("aba-left", "aba-gamma")):
            return [f"{name}: overlap {overlap} but balanced pairs "
                    f"{balanced} ({_c(6)})"]
    return []


def _criterion_8(name, checks):
    """At left endpoints the word route and the tile route find a shared
    tile at the same level; criterion 8 compares them up to level 8."""
    out = []
    prefix = _get(checks, ("prefix_strong", "pairs"))
    geometric = _get(checks, ("geometric_strong", "pairs"))
    if prefix is _MISSING or geometric is _MISSING:
        return [f"{name}: prefix or geometric pairs missing ({_c(8)})"]
    for pair, word in prefix.items():
        tile = geometric.get(pair, {})
        levels = [v["witness"]["level"] for v in (word, tile)
                  if v.get("status") == "HOLDS"]
        if any(level <= 8 for level in levels) and (
                len(levels) != 2 or levels[0] != levels[1]):
            out.append(f"{name}: pair {pair} prefix/geometric disagree "
                       f"({_c(8)})")
    return out


def decided(report):
    """(decided, attempted) over the nine checks plus `spectral`.

    UNKNOWN, UNSTABLE, a missing check and `error` all count as
    undecided."""
    checks = report.get("checks", {})
    count = 0
    for name in CHECKS:
        value = checks.get(name)
        if not isinstance(value, dict):
            continue
        status = value.get("aggregate", value.get("status"))
        count += status in DECIDED
    return count, len(CHECKS)
