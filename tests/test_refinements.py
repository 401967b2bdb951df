"""Pinned certified signs of every benchmark analysis input.

A refactor that keeps reports byte-identical must also keep the sequence
of certified signs that reaches them.  Its cheapest fingerprint is three
counts: the calls of `NumberField.int_sign`, the bisections of the beta
interval, and the signs the fixed-point filter leaves to the Horner
enclosure (`_refined_sign`).  The counts pin the eight corpus entries at
default bounds, and the five `perfbench/specs` and the four
beta-substitutions the off-corpus workload draws from at the off-corpus
bounds (window 16, node cap 2000).  A change that moves a count must say
why and pin the new number.  An analysis runs its shared-tile walks and
its overlap closure on one `coincidence.Walk`, so a class that two of
them inflate is decided once.
"""

from pathlib import Path

import pytest

from subtiling import algebraic, cli

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"
SPEC_BOUNDS = {"window": 16, "node_cap": 2000}

# per input: (int_sign calls, refinements, Horner fallbacks)
CORPUS_COUNTS = {
    "thue-morse": (47, 0, 0), "fibonacci": (52, 21, 0),
    "aba-left": (55, 0, 0), "aba-gamma": (51, 0, 0), "fib2": (138, 21, 0),
    "rauzy": (199, 22, 0), "rauzy2-left": (402, 22, 0),
    "rauzy2-gamma": (386, 22, 0),
}
# an analysis of nonpisot runs no overlap closure, since beta is not Pisot
SPEC_COUNTS = {
    "period-doubling": (46, 0, 0), "plastic": (491, 22, 1),
    "pentanacci": (773, 22, 2), "nonunimodular": (87, 22, 0),
    "nonpisot": (22, 22, 0),
}
BETA_COUNTS = {"beta-211": (212, 23, 1), "beta-221": (224, 23, 1),
               "beta-222": (299, 23, 1), "beta-1111": (298, 21, 1)}


def _counts(monkeypatch, spec, overrides=None):
    """(int_sign calls, refinements, Horner fallbacks) of one analysis
    from scratch."""
    counts = {"int_sign": 0, "_refine_once": 0, "_refined_sign": 0}

    def counted(name):
        method = getattr(algebraic.NumberField, name)

        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(algebraic.NumberField, name, counted(name))
    cli.run_analysis(spec, overrides=overrides)
    return tuple(counts.values())


@pytest.mark.parametrize("name", sorted(CORPUS_COUNTS))
def test_corpus_refinements_are_pinned(name, monkeypatch):
    assert _counts(monkeypatch, cli.corpus_lookup(name)) == \
        CORPUS_COUNTS[name]


@pytest.mark.parametrize("name", sorted(SPEC_COUNTS))
def test_spec_refinements_are_pinned(name, monkeypatch):
    text = (SPECS / f"{name}.spec").read_text(encoding="utf-8")
    spec = cli.parse_spec(text, name=name)
    assert _counts(monkeypatch, spec, SPEC_BOUNDS) == SPEC_COUNTS[name]


def beta_spec(name):
    """The beta-substitution a_i -> a_1^(k_i) a_(i+1), the last letter
    without the a_(i+1), with the k_i the digits of its name."""
    ks = [int(c) for c in name.removeprefix("beta-")]
    letters = "abcdefgh"[:len(ks)]
    rules = [f"rule {x} = " + " ".join("a" * k + letters[i + 1:i + 2])
             for i, (x, k) in enumerate(zip(letters, ks))]
    text = "\n".join(["letters " + " ".join(letters)] + rules) + "\n"
    return cli.parse_spec(text, name=name)


@pytest.mark.parametrize("name", sorted(BETA_COUNTS))
def test_beta_refinements_are_pinned(name, monkeypatch):
    assert _counts(monkeypatch, beta_spec(name), SPEC_BOUNDS) == \
        BETA_COUNTS[name]
