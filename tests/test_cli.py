import contextlib
import io
import json
from pathlib import Path

import pytest

from subtiling import cli
from subtiling.errors import SpecSyntaxError, UnknownCorpusEntry

from conftest import CORPUS_IDS, report_for

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIXTURES = PERFBENCH / "fixtures"
# Off-corpus spec files, made into fixtures at the off-corpus bounds.
SPEC_FIXTURES = ("plastic", "pentanacci", "nonunimodular", "nonpisot")
SPEC_BOUNDS = {"window": 16, "node_cap": 2000}


def run_cli(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, buf.getvalue(), err.getvalue()


def test_parse_fibonacci_spec():
    spec = cli.parse_spec("letters a b\nrule a = a b\nrule b = a\n")
    assert spec.letters == ("a", "b")
    assert spec.rules == (("a", "b"), ("a",))
    assert spec.tilemap is None
    sub = spec.substitution()
    assert sub.rules == (bytes([1, 2]), bytes([1]))


def test_parse_comments_and_bounds():
    spec = cli.parse_spec(
        "# golden mean\nletters a b\nrule a = a b  # rule\nrule b = a\n"
        "bound L 6\nbound window 32\nbound k 8\n"
    )
    assert spec.bounds == {"L": 6, "window": 32, "k": 8}


def test_parse_tilemap():
    spec = cli.parse_spec(
        "letters a b\nrule a = a b a\nrule b = b a b\n"
        "tilemap a -> 2\ntilemap b -> 1\n"
    )
    assert spec.tilemap == (2, 1)


@pytest.mark.parametrize("text,fragment", [
    ("letters a b\nrule a = a b\nrule a = b\nrule b = a", "duplicate rule"),
    ("letters a b\nrule a = a c\nrule b = a", "unknown letter"),
    ("letters a b\nrule a = a b", "missing rule"),
    ("rule a = a b", "before letters"),
    ("letters a\nrule a = a", "two letters"),
    ("letters a b\nrule a = a b\nrule b = a\ntilemap a -> 3\ntilemap b -> 1",
     "outside rule"),
    ("letters a b\nrule a = a b\nrule b = a\nbound Q 3", "bound"),
    ("letters a b\nfrobnicate", "unknown directive"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(SpecSyntaxError) as err:
        cli.parse_spec(text)
    assert fragment in str(err.value)


def test_corpus_lookup():
    spec = cli.corpus_lookup("fib2")
    assert spec.rules == (("a", "B"), ("a",), ("A", "b"), ("A",))
    spec = cli.corpus_lookup("rauzy2-left")
    assert spec.letters == ("a", "b", "c", "A", "B", "C")
    assert spec.tilemap is None
    with pytest.raises(UnknownCorpusEntry):
        cli.corpus_lookup("nonexistent")


def test_corpus_list_command():
    code, out, _ = run_cli(["corpus", "list"])
    assert code == 0
    for name in cli._CORPUS_TEXTS:
        assert name in out


def test_reports_are_byte_stable():
    spec = cli.corpus_lookup("fibonacci")
    a = json.dumps(cli.run_analysis(spec), indent=2)
    b = json.dumps(cli.run_analysis(cli.corpus_lookup("fibonacci")), indent=2)
    assert a == b


@pytest.mark.parametrize("name", CORPUS_IDS + SPEC_FIXTURES)
def test_reports_match_committed_fixtures(name):
    if name in SPEC_FIXTURES:
        spec_text = (PERFBENCH / "specs" / f"{name}.spec").read_text(
            encoding="utf-8")
        report = cli.run_analysis(cli.parse_spec(spec_text, name=name),
                                  overrides=SPEC_BOUNDS)
    else:
        report = report_for(name)
    text = json.dumps(report, indent=2)
    fixture = FIXTURES / f"{name}.json"
    assert text + "\n" == fixture.read_text(encoding="utf-8")
    assert cli.verify_report(json.loads(text))["passed"]


def test_analyze_exit_codes():
    # fibonacci decides everything
    report = report_for("fibonacci")
    assert cli.report_exit_code(report) == 0
    # thue-morse leaves geometric checks unknown
    report = report_for("thue-morse")
    assert cli.report_exit_code(report) == 2


def test_analyze_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.sub"
    bad.write_text("letters a b\nrule a = a b\n")
    code, _, err = run_cli(["analyze", str(bad)])
    assert code == 1
    assert "missing rule" in err


def test_patch_dump_format():
    code, out, _ = run_cli(["patch", "fibonacci", "--n", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    # two-sided junction at zero: left tiles negative, right nonnegative
    assert any(line.startswith("a 0/1") for line in lines)
    for line in lines:
        token, *coords = line.split()
        assert token in ("a", "b")
        assert all("/" in c for c in coords)


def test_patch_positions_are_contiguous():
    code, out, _ = run_cli(["patch", "thue-morse", "--n", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    positions = [int(line.split()[1].split("/")[0]) for line in lines]
    assert positions == list(range(positions[0], positions[0] + len(lines)))


def test_witness_embedding_invariants():
    for name in ("fibonacci", "rauzy2-gamma", "thue-morse", "fib2"):
        report = report_for(name)
        for check in report["checks"].values():
            if not isinstance(check, dict):
                continue
            stack = [check]
            while stack:
                node = stack.pop()
                status = node.get("status")
                if status == "HOLDS" and "level" not in node:
                    assert "witness" in node or "certificate" in node \
                        or "max_power" in node or "group" in node, node
                if status == "UNKNOWN":
                    assert "bound" in node or "certificate" in node \
                        or node.get("bound") is None
                for v in node.values():
                    if isinstance(v, dict):
                        stack.append(v)


def test_verify_report_roundtrip(tmp_path):
    report = report_for("rauzy2-gamma")
    outcome = cli.verify_report(report)
    assert outcome["passed"], outcome
    assert "simultaneous" in outcome["replayed"]

    report_tm = report_for("thue-morse")
    outcome_tm = cli.verify_report(report_tm)
    assert outcome_tm["passed"], outcome_tm
    assert outcome_tm["replayed"]["overlap_coincidence"] is True
    assert outcome_tm["replayed"]["balanced_pairs"] is True


def test_verify_subcommand(tmp_path):
    report = report_for("fibonacci")
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(report))
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_rejects_tampered_report(tmp_path):
    report = json.loads(json.dumps(report_for("fibonacci")))
    sim = report["checks"]["simultaneous"]["witness"]
    sim["replay_shift"] = ["1/1", "0/1"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_spec_bounds_flow_into_analysis():
    spec = cli.parse_spec(
        "letters a b\nrule a = a b\nrule b = a\nbound L 3\n", name="tiny"
    )
    report = cli.run_analysis(spec)
    assert report["input"]["bounds"]["L"] == 3


def test_cli_flags_beat_spec_file_bounds(tmp_path):
    path = tmp_path / "bounded.sub"
    path.write_text("letters a b\nrule a = a b\nrule b = a\nbound L 3\n")
    code, out, _ = run_cli(["analyze", str(path), "--Lmax", "5"])
    report = json.loads(out)
    assert report["input"]["bounds"]["L"] == 5
    code, out, _ = run_cli(["analyze", str(path)])
    report = json.loads(out)
    assert report["input"]["bounds"]["L"] == 3
