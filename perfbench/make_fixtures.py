"""Regenerate the `replay` workload's fixtures.

    python3 perfbench/make_fixtures.py

Writes one schema-1 report per entry of `workloads.REPLAY_FIXTURES` to
`perfbench/fixtures/<name>.json`, exactly as `subtiling analyze -o` writes
it, at the bounds the analyze workloads use: corpus entries at the
defaults, the off-corpus specs at `workloads.OFF_CORPUS_BOUNDS`.  The
fixtures do not depend on the seed.  Each report must satisfy the oracle
and pass `verify`, or the script exits non-zero and writes nothing.

The fixtures are the input of `replay` on both sides of a comparison, so
they are committed.  A change to the report schema must keep them
verifiable, or re-baseline them with this script in a change of its own
that touches only the benchmark.
"""

import json
import sys

import source

source.use_checkout_sources()

from subtiling import cli  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def fixture_input(name):
    if name in workloads.OFF_CORPUS_SPECS:
        return workloads.spec_input(name, workloads.OFF_CORPUS_BOUNDS.items())
    return workloads.corpus_input(name)


def main():
    texts = {}
    for name in workloads.REPLAY_FIXTURES:
        report, text = workloads.run(fixture_input(name))
        problems = oracle.check(name, report)
        if not cli.verify_report(json.loads(text))["passed"]:
            problems.append(f"{name}: report does not pass verify")
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        texts[name] = text
        print(f"{name}: ok", flush=True)
    workloads.FIXTURES.mkdir(exist_ok=True)
    for name, text in texts.items():
        (workloads.FIXTURES / f"{name}.json").write_text(text + "\n",
                                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
