"""Tests of the benchmark itself: the seeded draw, the oracle, the replay
fixtures and the tracer.

    python3 -m pytest -q perfbench/tests
"""

import copy
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import source  # noqa: E402

source.use_checkout_sources()

import pytest  # noqa: E402

import subtiling  # noqa: E402
from subtiling import algebraic, cli, coincidence, spectrum, words  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fixture(name):
    return json.loads((workloads.FIXTURES / f"{name}.json").read_text())


def test_seeded_draw_is_reproducible():
    for seed in range(30):
        draw = workloads.draw_betas(seed)
        assert draw == workloads.draw_betas(seed)
        assert len(set(draw)) == workloads.BETA_DRAWS
        assert set(draw) <= set(workloads.BETA_FAMILY)
    assert len({workloads.draw_betas(seed) for seed in range(30)}) > 1
    first = workloads.build("off-corpus", 7)
    assert first == workloads.build("off-corpus", 7)
    names = {i.name for i in first}
    assert names >= set(workloads.OFF_CORPUS_SPECS)
    assert names >= {workloads.beta_name(ks)
                     for ks in workloads.draw_betas(7)}


@pytest.mark.parametrize("ks", workloads.BETA_FAMILY)
def test_beta_family_is_primitive_brauer_pisot(ks):
    assert 2 >= ks[0] and list(ks) == sorted(ks, reverse=True)
    assert ks[-1] >= 1 and ks != (1, 1, 1)
    sub = cli.parse_spec(workloads.beta_spec_text(ks)).substitution()
    matrix = words.substitution_matrix(sub)
    assert words.is_primitive(matrix)
    poly = algebraic.char_poly(matrix)
    assert poly == [-k for k in reversed(ks)] + [1]
    assert algebraic.is_pisot(algebraic.perron_factor(poly))


@pytest.mark.parametrize("name", workloads.REPLAY_FIXTURES)
def test_fixture_is_a_canonical_report_the_oracle_accepts(name):
    text = (workloads.FIXTURES / f"{name}.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    assert report["schema"] == 1 and report["input"]["name"] == name
    assert oracle.check(name, report) == []


@pytest.mark.parametrize("name, path, value", [
    ("fibonacci", ("spectral", "status"), "NOT_PURE_DISCRETE"),
    ("thue-morse", ("spectral", "status"), "PURE_DISCRETE"),
    ("nonpisot", ("spectral", "status"), "PURE_DISCRETE"),
    ("rauzy", ("spectral", "disagreement_detected"), True),
    ("fib2", ("overlap_coincidence", "status"), "HOLDS"),
    ("aba-gamma", ("height_group", "group", "display"), "Z/2Z"),
    ("rauzy2-gamma", ("simultaneous", "status"), "UNKNOWN"),
])
def test_oracle_rejects_a_tampered_report(name, path, value):
    report = copy.deepcopy(_fixture(name))
    node = report["checks"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert oracle.check(name, report)


def test_oracle_rejects_a_check_that_raised():
    report = _fixture("plastic")
    report["checks"]["height_group"] = {"error": "boom"}
    assert oracle.check("plastic", report)


def test_decided_counts_unknown_as_undecided():
    decided, attempted = oracle.decided(_fixture("nonpisot"))
    assert attempted == 10 and decided < attempted
    assert oracle.decided(_fixture("fibonacci")) == (10, 10)


def _snapshot():
    out = {}
    for module in (subtiling,) + tracing.MODULES:
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(value.__qualname__, attr)] = member
    return out


def test_uninstall_restores_every_subtiling_function():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run_analysis is not before[("subtiling.cli",
                                               "run_analysis")]
        # names imported into another module are wrapped there too
        for module in (spectrum, coincidence):
            assert getattr(module.reference_point_sets, tracing.MARK)
        assert getattr(spectrum.return_vectors, tracing.MARK)
        assert getattr(algebraic.FieldElem.__radd__, tracing.MARK)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracing.wrapped_names() == []


SMALL = (
    workloads.Input("fibonacci", "", corpus=True,
                    overrides=(("level_bound", 6), ("window", 16))),
    workloads.Input("thue-morse", "", corpus=True,
                    overrides=(("level_bound", 6), ("window", 16))),
)


def small_traced_counts():
    """Count metrics of one traced analysis of two small inputs."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for inp in SMALL:
            tracer.input_id = inp.name
            workloads.run(inp)
    finally:
        tracer.uninstall()
    return {k: m["value"] for k, m in tracer.metrics().items()
            if m["unit"] == "count"}


def test_traced_counts_repeat_across_runs_and_hash_seeds():
    counts = small_traced_counts()
    assert counts["algebraic.sign.calls"] > 0
    assert counts["spectrum.overlap_classes"] > 0
    assert small_traced_counts() == counts
    code = ("import json, test_perfbench as t; "
            "print(json.dumps(t.small_traced_counts()))")
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True,
            text=True, check=True, timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert json.loads(done.stdout.splitlines()[-1]) == counts


def test_tracing_leaves_reports_unchanged():
    plain = [workloads.run(inp)[1] for inp in SMALL]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [workloads.run(inp)[1] for inp in SMALL]
    finally:
        tracer.uninstall()
    assert traced == plain
