"""The benchmark's four workloads: their inputs, the timed operation on one
input, and the checks that decide whether that operation failed.

Every input starts from scratch, as one `subtiling analyze` or `subtiling
verify` call does: a freshly parsed spec (so a fresh `Substitution` and
`SuspensionSystem` with empty caches and an unrefined beta interval), or a
freshly decoded report.  Outputs are serialised the way `cli.main` prints
them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from subtiling import cli

import oracle

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"
FIXTURES = HERE / "fixtures"

PISOT_CORPUS = ("fibonacci", "fib2", "rauzy", "rauzy2-left", "rauzy2-gamma")
CONSTANT_LENGTH_CORPUS = ("thue-morse", "aba-left", "aba-gamma")
CONSTANT_LENGTH_SPECS = ("period-doubling",)
OFF_CORPUS_SPECS = ("plastic", "pentanacci", "nonunimodular", "nonpisot")
# At default bounds the off-corpus specs take 16 s to over 150 s each.
OFF_CORPUS_BOUNDS = {"window": 16, "node_cap": 2000}

# Beta-substitutions a_i -> a_1^{k_i} a_{i+1} (a_m -> a_1^{k_m}) with
# 2 >= k_1 >= ... >= k_m >= 1, minus rauzy (1, 1, 1).  The four-letter
# members with k_1 = 2 are left out: each takes 5-8 s against about 2 s
# for these, so drawing them would make a pass depend on the seed by more
# than the benchmark's bounds.
BETA_FAMILY = ((2, 1, 1), (2, 2, 1), (2, 2, 2), (1, 1, 1, 1))
BETA_DRAWS = 2

REPLAY_FIXTURES = (
    "thue-morse", "fibonacci", "aba-left", "aba-gamma", "fib2", "rauzy",
    "rauzy2-left", "rauzy2-gamma") + OFF_CORPUS_SPECS

WORKLOADS = ("pisot-corpus", "constant-length", "replay", "off-corpus")


@dataclass(frozen=True)
class Input:
    name: str
    text: str                  # spec text, or report JSON for replay
    corpus: bool = False       # spec comes from the built-in corpus
    overrides: tuple = ()      # bound overrides, as (key, value) pairs
    replay: bool = False


def beta_spec_text(ks):
    """Spec text of the beta-substitution with coefficients ks."""
    letters = [chr(ord("a") + i) for i in range(len(ks))]
    lines = [f"# beta-substitution k = {list(ks)}",
             "letters " + " ".join(letters)]
    for i, k in enumerate(ks):
        body = [letters[0]] * k + letters[i + 1:i + 2]
        lines.append(f"rule {letters[i]} = " + " ".join(body))
    return "\n".join(lines) + "\n"


def beta_name(ks):
    return "beta-" + "".join(str(k) for k in ks)


def draw_betas(seed):
    """The seed's beta-substitutions, in family order."""
    rng = random.Random(f"beta-draw:{seed}")
    picks = sorted(rng.sample(range(len(BETA_FAMILY)), BETA_DRAWS))
    return tuple(BETA_FAMILY[i] for i in picks)


def spec_input(name, overrides=()):
    text = (SPECS / f"{name}.spec").read_text(encoding="utf-8")
    return Input(name, text, overrides=tuple(sorted(overrides)))


def corpus_input(name):
    return Input(name, "", corpus=True)


def build(workload, seed):
    """The workload's inputs for this seed, in the order they run."""
    if workload == "pisot-corpus":
        inputs = [corpus_input(n) for n in PISOT_CORPUS]
    elif workload == "constant-length":
        inputs = [corpus_input(n) for n in CONSTANT_LENGTH_CORPUS]
        inputs += [spec_input(n) for n in CONSTANT_LENGTH_SPECS]
    elif workload == "off-corpus":
        bounds = OFF_CORPUS_BOUNDS.items()
        inputs = [spec_input(n, bounds) for n in OFF_CORPUS_SPECS]
        inputs += [Input(beta_name(ks), beta_spec_text(ks),
                         overrides=tuple(sorted(bounds)))
                   for ks in draw_betas(seed)]
    elif workload == "replay":
        inputs = [Input(n, (FIXTURES / f"{n}.json").read_text(encoding="utf-8"),
                        replay=True)
                  for n in REPLAY_FIXTURES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Parsed once here as well, so that set-up covers parsing and a bad
    # input fails before anything is timed.
    for inp in inputs:
        if inp.replay:
            json.loads(inp.text)
        elif not inp.corpus:
            cli.parse_spec(inp.text, name=inp.name)
    return inputs


def load_spec(inp):
    if inp.corpus:
        return cli.corpus_lookup(inp.name)
    return cli.parse_spec(inp.text, name=inp.name)


def run(inp):
    """The timed operation: one input from scratch to serialised output.

    Returns the output object and its text."""
    if inp.replay:
        outcome = cli.verify_report(json.loads(inp.text))
        return outcome, json.dumps(outcome, indent=2, sort_keys=True)
    report = cli.run_analysis(load_spec(inp), overrides=dict(inp.overrides))
    return report, json.dumps(report, indent=2)


def problems(inp, output):
    """Why an output is wrong, as a list of messages (empty when right)."""
    if inp.replay:
        if output.get("passed") is not True:
            failed = [k for k, v in output.get("replayed", {}).items()
                      if v is not True]
            return [f"verify did not pass: {failed}"]
        return []
    return oracle.check(inp.name, output)


def verdict_counts(inp, output):
    """(decided, attempted) over the nine checks plus `spectral`.

    On replay the counts are those of the replayed report."""
    report = json.loads(inp.text) if inp.replay else output
    return oracle.decided(report)
