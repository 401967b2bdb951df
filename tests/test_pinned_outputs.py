"""Byte identity of the benchmark outputs that no committed fixture pins.

`test_cli.test_reports_match_committed_fixtures` compares the reports of
the eight corpus entries and the four off-corpus specs with their golden
copies in tests/golden.  This file pins the other outputs the benchmark
makes by their sha256: `analyze` on period doubling at default bounds, on
the four beta-substitutions of the off-corpus workload at its bounds, and
`verify` on each of the benchmark's committed fixtures, perfbench/fixtures,
which a new `verify` must still pass.  They are serialized as
perfbench/workloads.py serializes them.  A change that alters one of
these outputs updates its hash here and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from subtiling import cli

import workloads

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ANALYZE = {
    "period-doubling":
        "b09c1d02e6c7e9b909d4a40a9768ee50cb5e5381768fe79650361d8b154259c8",
    "beta-211":
        "bff801b0c3afc6ede045c537adc7dc5d249b7f08779f528537d91e82deacb4a5",
    "beta-221":
        "0f52a49fda7b940d611d15d5d9cf08a7e0c228b571db3f533619783477cf553e",
    "beta-222":
        "43ed94ec7b68c8a0385921f90274c182494e8f95ca36325ecb24b0264626dc72",
    "beta-1111":
        "ffd9cba4ff975d2eb1503e19743d35e923feafe90852682a41db1d32f709ae9a",
}

VERIFY = {
    "thue-morse":
        "35cef0e4fa380e44e9614fd32f037890c6bdc759c4f4e7bd7fa24a3925f57f9c",
    "fibonacci":
        "29357725fb36f795720f3f013f1e8274cf755409fc14a330e473d4e4f07d0754",
    "aba-left":
        "0fb0ca882b4cc75473ce43bb4cc060bf23efe05f35d944e18f3b837fb43d4846",
    "aba-gamma":
        "6a77e026d34a4040c0f4fac4ff99e2ef86ad7498ad3aa471db43fb9a4c89dd97",
    "fib2":
        "8b0916194a462ab07eac1d1956cf5bc6e19fd98d4dc95ee59f8a128490b286b8",
    "rauzy":
        "558237ecbf9a6fe4707140ab390a7d8fbe81f6d65ed3bc186d185aeeb5417cbb",
    "rauzy2-left":
        "0a03114716c66affaff05db45b37e2fdee4613d086d7ebfcf5c3cebd1c98f72a",
    "rauzy2-gamma":
        "0b6584578a7f1d290534e23c65a69a588dcfc6295b9f6f55f8207c11e7a2a3e6",
    "plastic":
        "62688b01c6767b9c2f4816e4a62706cee8db90016ca4ed5de06640bd89da50e5",
    "pentanacci":
        "59b4607a5df828a4578086bc1220ae62b9f5ecf80480c697088a9adc934b757f",
    "nonunimodular":
        "29357725fb36f795720f3f013f1e8274cf755409fc14a330e473d4e4f07d0754",
    "nonpisot":
        "29357725fb36f795720f3f013f1e8274cf755409fc14a330e473d4e4f07d0754",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _analysis(name):
    if name.startswith("beta-"):
        text = workloads.beta_spec_text(
            [int(k) for k in name[len("beta-"):]])
        overrides = workloads.OFF_CORPUS_BOUNDS
    else:
        text = (PERFBENCH / "specs" / f"{name}.spec").read_text(
            encoding="utf-8")
        overrides = None
    return cli.run_analysis(cli.parse_spec(text, name=name),
                            overrides=overrides)


@pytest.mark.parametrize("name", ANALYZE)
def test_analyze_output_is_pinned(name):
    assert _sha256(json.dumps(_analysis(name), indent=2)) == ANALYZE[name]


def test_the_pins_cover_every_fixture():
    assert sorted(VERIFY) == sorted(
        path.stem for path in (PERFBENCH / "fixtures").glob("*.json"))


@pytest.mark.parametrize("name", VERIFY)
def test_verify_output_is_pinned(name):
    report = json.loads((PERFBENCH / "fixtures" / f"{name}.json").read_text(
        encoding="utf-8"))
    outcome = cli.verify_report(report)
    assert _sha256(json.dumps(outcome, indent=2, sort_keys=True)) == \
        VERIFY[name]
