"""Pinned interval refinements of every benchmark analysis input.

A refactor that keeps reports byte-identical must also keep the sequence
of certified signs that reaches them; the number of bisections of the
beta interval is its cheapest fingerprint.  The counts pin the eight
corpus entries at default bounds, and the five `perfbench/specs` and the
four beta-substitutions the off-corpus workload draws from at the
off-corpus bounds (window 16, node cap 2000).  A change that moves a
count must say why and pin the new number.
"""

from pathlib import Path

import pytest

from subtiling import algebraic, cli

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"
SPEC_BOUNDS = {"window": 16, "node_cap": 2000}

CORPUS_REFINEMENTS = {
    "thue-morse": 0, "fibonacci": 21, "aba-left": 0, "aba-gamma": 0,
    "fib2": 21, "rauzy": 22, "rauzy2-left": 22, "rauzy2-gamma": 22,
}
SPEC_REFINEMENTS = {
    "period-doubling": 0, "plastic": 22, "pentanacci": 22,
    "nonunimodular": 22, "nonpisot": 338,
}
BETA_REFINEMENTS = {"beta-211": 23, "beta-221": 23, "beta-222": 23,
                    "beta-1111": 21}


def _refinements(monkeypatch, spec, overrides=None):
    """Refinements of one analysis from scratch."""
    count = []
    refine = algebraic.NumberField._refine_once
    monkeypatch.setattr(algebraic.NumberField, "_refine_once",
                        lambda self: count.append(1) or refine(self))
    cli.run_analysis(spec, overrides=overrides)
    return len(count)


@pytest.mark.parametrize("name", sorted(CORPUS_REFINEMENTS))
def test_corpus_refinements_are_pinned(name, monkeypatch):
    assert _refinements(monkeypatch, cli.corpus_lookup(name)) == \
        CORPUS_REFINEMENTS[name]


@pytest.mark.parametrize("name", sorted(SPEC_REFINEMENTS))
def test_spec_refinements_are_pinned(name, monkeypatch):
    text = (SPECS / f"{name}.spec").read_text(encoding="utf-8")
    spec = cli.parse_spec(text, name=name)
    assert _refinements(monkeypatch, spec, SPEC_BOUNDS) == \
        SPEC_REFINEMENTS[name]


def beta_spec(name):
    """The beta-substitution a_i -> a_1^(k_i) a_(i+1), the last letter
    without the a_(i+1), with the k_i the digits of its name."""
    ks = [int(c) for c in name.removeprefix("beta-")]
    letters = "abcdefgh"[:len(ks)]
    rules = [f"rule {x} = " + " ".join("a" * k + letters[i + 1:i + 2])
             for i, (x, k) in enumerate(zip(letters, ks))]
    text = "\n".join(["letters " + " ".join(letters)] + rules) + "\n"
    return cli.parse_spec(text, name=name)


@pytest.mark.parametrize("name", sorted(BETA_REFINEMENTS))
def test_beta_refinements_are_pinned(name, monkeypatch):
    assert _refinements(monkeypatch, beta_spec(name), SPEC_BOUNDS) == \
        BETA_REFINEMENTS[name]
