"""The golden reports: what `subtiling analyze -o` writes for each input
of the benchmark's `replay` workload, kept in tests/golden/<name>.json.

    python3 tests/golden_reports.py [NAME ...]

rewrites the named golden reports, all of them when none is named, from
the checkout's sources.  Each input runs as perfbench/make_fixtures.py
runs it: a corpus entry at the default bounds, an off-corpus spec at
`workloads.OFF_CORPUS_BOUNDS`.  Every report must satisfy
perfbench/oracle.py and pass `verify`, as make_fixtures.py requires, or
the script writes nothing and exits non-zero.

perfbench/fixtures holds the benchmark's frozen copy of the same reports.
A change that alters a report rewrites its golden report here and leaves
the fixtures as they are; the new `verify` must still pass them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE.parent / "perfbench"))

import make_fixtures  # noqa: E402  (imports subtiling from the checkout)
import oracle  # noqa: E402
import workloads  # noqa: E402
from subtiling import cli  # noqa: E402

NAMES = workloads.REPLAY_FIXTURES

# rauzy with the tile map (2, 1, 1): control points in 1/2 Z[beta], so
# its walk runs over the denominator 2 with an irrational beta, which no
# golden input does.  It has no golden report: tests/test_golden.py pins
# its `analyze` output by sha256, and tests/report_diff.py compares it
RAUZY_211 = ("letters a b c\nrule a = a b\nrule b = a c\nrule c = a\n"
             "tilemap a -> 2\ntilemap b -> 1\ntilemap c -> 1\n")


def report_text(name):
    """The golden report of `name` as the checkout's `analyze` writes it."""
    _, text = workloads.run(make_fixtures.fixture_input(name))
    return text + "\n"


def problems(name, text):
    """Why a golden report text is not acceptable: the oracle's messages,
    and one more when it does not pass `verify`."""
    report = json.loads(text)
    found = oracle.check(name, report)
    if not cli.verify_report(report)["passed"]:
        found.append(f"{name}: report does not pass verify")
    return found


def main(argv):
    names = argv or NAMES
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        print(f"error: no golden input named {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    texts = {name: report_text(name) for name in names}
    found = [p for name, text in texts.items() for p in problems(name, text)]
    if found:
        print("\n".join(found), file=sys.stderr)
        return 1
    GOLDEN.mkdir(exist_ok=True)
    for name, text in texts.items():
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: written", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
