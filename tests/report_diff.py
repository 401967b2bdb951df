"""Compare the reports of a committed revision with the working tree's,
leaf by leaf.

    python3 tests/report_diff.py [--base REV] [--allow FILE]

Extracts REV (default HEAD) with `git archive` into a temporary directory
and runs `analyze` from its sources and then from the working tree's,
each in a process of its own, on the same inputs: the golden inputs of
tests/golden, the other `analyze` outputs that
tests/test_pinned_outputs.py pins (period doubling at the default bounds,
the beta-substitutions at the off-corpus bounds), and rauzy at the tile
map (2, 1, 1), which tests/test_golden.py pins.  It prints a summary
and a Markdown table of every JSON leaf that differs, for CHANGES.md.
A changed leaf is one of:

- tightened: an UNKNOWN or UNSTABLE status became a decided one;
- loosened: a decided status became UNKNOWN or UNSTABLE, or went away;
- flipped: one decided status became another (HOLDS <-> FAILS,
  PURE_DISCRETE <-> NOT_PURE_DISCRETE);
- added, removed: a leaf that only one side has;
- cost/bound_hit: a leaf under `cost`, or a `bound_hit`;
- other: any other leaf that changed, such as a witness or a certificate.

The exit code is 1 when a loosened or flipped leaf is not listed in the
--allow file, and 2 when a tree cannot be run.  Each line of the allow
file reads `<input> <leaf> <reason>`, with the leaf as the table writes
it; blank lines and lines that start with # are skipped.
"""

import argparse
import collections
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

UNDECIDED = {"UNKNOWN", "UNSTABLE"}
DECIDED = {"HOLDS", "FAILS", "DECIDED", "PURE_DISCRETE", "NOT_PURE_DISCRETE"}
REFUSED = ("loosened", "flipped")
ABSENT = object()


def leaves(node, path=()):
    """(dotted path, value) for each leaf of a JSON value, in its order;
    an empty object or list is a leaf."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from leaves(value, path + (str(key),))
    else:
        yield ".".join(path), node


def _status(value):
    """"decided" or "undecided" for a status string, else None."""
    if isinstance(value, str):
        if value in DECIDED:
            return "decided"
        if value in UNDECIDED:
            return "undecided"
    return None


def classify(leaf, old, new):
    """The class of one changed leaf; ABSENT stands for a missing side."""
    if old is ABSENT:
        return "added"
    before, after = _status(old), _status(new)
    if new is ABSENT:
        return "loosened" if before == "decided" else "removed"
    if before and after:
        if (before, after) == ("undecided", "decided"):
            return "tightened"
        if before == "decided":
            return "flipped" if after == "decided" else "loosened"
    if leaf.startswith("cost.") or leaf.rsplit(".", 1)[-1] == "bound_hit":
        return "cost/bound_hit"
    return "other"


def changes(old_reports, new_reports):
    """(input, leaf, old, new, class) for each differing leaf of the
    reports, keyed by input; an input only one side has is all added or
    all removed."""
    rows = []
    for name in dict.fromkeys([*old_reports, *new_reports]):
        old, new = (dict(leaves(reports[name])) if name in reports else {}
                    for reports in (old_reports, new_reports))
        for leaf in dict.fromkeys([*old, *new]):
            a, b = old.get(leaf, ABSENT), new.get(leaf, ABSENT)
            if a is ABSENT or b is ABSENT or \
                    json.dumps(a) != json.dumps(b):
                rows.append((name, leaf, a, b, classify(leaf, a, b)))
    return rows


def read_allow(text):
    """The (input, leaf) pairs an allow file lists; each needs a reason."""
    allowed = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split(maxsplit=2)
        if len(parts) < 3:
            raise ValueError(f"allow file line {number}: expected "
                             "<input> <leaf> <reason>")
        allowed.add((parts[0], parts[1]))
    return allowed


def refused(rows, allowed=frozenset()):
    """The loosened and flipped rows that the allow list does not name."""
    return [row for row in rows
            if row[4] in REFUSED and row[:2] not in allowed]


def _md(text):
    return text.replace("|", "\\|")


def _cell(value):
    return "(absent)" if value is ABSENT else _md(f"`{json.dumps(value)}`")


def table(rows, allowed=frozenset()):
    """The summary line and the Markdown table of the rows."""
    counts = collections.Counter(row[4] for row in rows)
    summary = ", ".join(f"{n} {cls}" for cls, n in counts.items())
    lines = [f"{len(rows)} changed leaves" + (f": {summary}" if rows else ""),
             "", "| input | leaf | before | after | class |",
             "|---|---|---|---|---|"]
    for name, leaf, old, new, cls in rows:
        mark = " (allowed)" if cls in REFUSED and (name, leaf) in allowed \
            else ""
        lines.append(f"| {name} | {_md(f'`{leaf}`')} | "
                     f"{_cell(old)} | {_cell(new)} | {cls}{mark} |")
    return "\n".join(lines)


def inputs():
    """Each input as the benchmark's workloads.Input fields, as JSON."""
    import golden_reports
    import make_fixtures
    import workloads
    found = [make_fixtures.fixture_input(name)
             for name in golden_reports.NAMES]
    found += [workloads.spec_input(name)
              for name in workloads.CONSTANT_LENGTH_SPECS]
    found += [workloads.Input(workloads.beta_name(ks),
                              workloads.beta_spec_text(ks),
                              overrides=tuple(sorted(
                                  workloads.OFF_CORPUS_BOUNDS.items())))
              for ks in workloads.BETA_FAMILY]
    found.append(workloads.Input("rauzy-211", golden_reports.RAUZY_211))
    return [{"name": inp.name, "text": inp.text, "corpus": inp.corpus,
             "overrides": dict(inp.overrides)} for inp in found]


def emit(src):
    """Read inputs as JSON on stdin and write their reports, by name, as
    the `subtiling` package under `src` writes them."""
    sys.path.insert(0, str(src))
    from subtiling import cli
    if Path(cli.__file__).resolve().parent != Path(src).resolve() / \
            "subtiling":
        raise SystemExit(f"error: imported subtiling from {cli.__file__}")
    reports = {}
    for inp in json.load(sys.stdin):
        spec = (cli.corpus_lookup(inp["name"]) if inp["corpus"]
                else cli.parse_spec(inp["text"], name=inp["name"]))
        reports[inp["name"]] = cli.run_analysis(spec,
                                                overrides=inp["overrides"])
    json.dump(reports, sys.stdout)


def _extract(rev, into):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def _reports(src, payload):
    """The reports of the `subtiling` sources under `src`, made in a
    process of its own."""
    done = subprocess.run([sys.executable, __file__, "--emit", str(src)],
                          input=payload, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        raise SystemExit(2)
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="the revision to compare with (default HEAD)")
    parser.add_argument("--allow", type=Path,
                        help="loosened or flipped leaves to accept")
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    allowed = (read_allow(args.allow.read_text(encoding="utf-8"))
               if args.allow else frozenset())
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _extract(args.base, tmp)
        except subprocess.CalledProcessError as exc:
            print(exc.stderr.decode(errors="replace"), file=sys.stderr)
            return 2
        payload = json.dumps(inputs())
        before = _reports(Path(tmp) / "src", payload)
        after = _reports(ROOT / "src", payload)
    rows = changes(before, after)
    print(f"{args.base} -> working tree, {len(after)} inputs; "
          + table(rows, allowed))
    bad = refused(rows, allowed)
    for name, leaf, *_, cls in bad:
        print(f"{cls} and not allowed: {name} {leaf}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
