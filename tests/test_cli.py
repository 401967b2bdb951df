import contextlib
import hashlib
import importlib
import io
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from subtiling import (algebraic, cli, coincidence, lattices, polys,
                       spectrum, suspension)
from subtiling.errors import (InvalidBound, LengthCapExceeded,
                              SpecSyntaxError, SubtilingError,
                              UnknownCorpusEntry)

from conftest import CORPUS_IDS, SIX_LETTERS, TWELVE_LETTERS, report_for
from golden_reports import RAUZY_211

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
FIXTURES = PERFBENCH / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
# Off-corpus spec files, made into golden reports at the off-corpus bounds.
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
        "bound L 6\nbound window 32\n"
    )
    assert spec.bounds == {"L": 6, "window": 32}


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
    # tilemap lines share the letter checks of rule lines
    ("tilemap a -> 1\nletters a b", "line 1: tilemap before letters line"),
    ("letters a b\ntilemap c -> 1", "line 2: unknown letter 'c'"),
    ("letters a b\ntilemap a -> 1\ntilemap a -> 1",
     "line 3: duplicate tilemap for 'a'"),
    ("letters a\nrule a = a", "two letters"),
    ("letters a b\nrule a = a b\nrule b = a\ntilemap a -> 3\ntilemap b -> 1",
     "outside rule"),
    ("letters a b\nrule a = a b\nrule b = a\nbound Q 3", "bound"),
    ("letters a b\nfrobnicate", "unknown directive"),
    ("letters a b\nletters a b", "line 2: duplicate letters line"),
    ("letters a b a", "line 1: repeated letter token"),
    ("letters a b\ntilemap a 2", "line 2: expected: tilemap <tok> -> <index>"),
    ("letters a b\ntilemap a -> x",
     "line 2: tile map index must be an integer"),
    ("letters a b\nrule a = a b\nrule b = a\nbound L x",
     "line 4: bound value must be an integer"),
    ("letters a b\nrule a = a b\nrule b = a\nbound L 5\nbound L 7",
     "line 5: duplicate bound L"),
    ("# no letters\nbound L 3", "line 0: missing letters line"),
    ("letters a b\nrule a = a b\nrule b = a\ntilemap a -> 1",
     "line 0: tile map incomplete: missing 'b'"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(SpecSyntaxError) as err:
        cli.parse_spec(text)
    assert fragment in str(err.value)


# the pairs (a, b|c) and (a|b, c) would share the report key a|b|c
PIPE_LETTERS = ("letters a b|c a|b c\nrule a = a b|c\nrule b|c = a|b\n"
                "rule a|b = c a\nrule c = a\n")


def test_a_letter_token_with_a_pipe_is_rejected():
    with pytest.raises(SpecSyntaxError) as err:
        cli.parse_spec(PIPE_LETTERS)
    assert str(err.value) == "line 1: '|' in a letter token"
    # a report of those letters, made around the parser, keeps 9 of its
    # 10 pair verdicts, and verify rejects its input
    spec = cli.SpecFile("pipes", ("a", "b|c", "a|b", "c"),
                        (("a", "b|c"), ("a|b",), ("c", "a"), ("a",)), None)
    report = json.loads(json.dumps(cli.run_analysis(spec)))
    assert len(report["checks"]["prefix_strong"]["pairs"]) == 9
    assert cli.verify_report(report) == {
        "passed": False, "replayed": {},
        "error": "input: ValueError: '|' in a letter token"}


def _letters_spec(m):
    tokens = [f"x{i}" for i in range(m)]
    return ("letters " + " ".join(tokens) + "\n"
            + "".join(f"rule {t} = {tokens[0]} {t}\n" for t in tokens))


def test_analyze_rejects_more_than_255_letters(tmp_path):
    path = tmp_path / "wide.sub"
    path.write_text(_letters_spec(256))
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: line 1:") and "255 letters" in err
    assert "Traceback" not in err
    # a letter is one byte, so 255 letters still make a substitution
    assert cli.parse_spec(_letters_spec(255)).substitution().size == 255


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
    """analyze writes each input's golden report, tests/golden/<name>.json,
    byte for byte.  perfbench/fixtures, the benchmark's frozen copy, is
    only replayed by verify here."""
    if name in SPEC_FIXTURES:
        spec_text = (PERFBENCH / "specs" / f"{name}.spec").read_text(
            encoding="utf-8")
        report = cli.run_analysis(cli.parse_spec(spec_text, name=name),
                                  overrides=SPEC_BOUNDS)
    else:
        report = report_for(name)
    text = json.dumps(report, indent=2)
    golden = GOLDEN / f"{name}.json"
    assert text + "\n" == golden.read_text(encoding="utf-8")
    assert cli.verify_report(json.loads(text))["passed"]


def test_analyze_exit_codes():
    # fibonacci decides everything
    report = report_for("fibonacci")
    assert cli.report_exit_code(report) == 0
    # fib2 leaves word pairs unknown
    report = report_for("fib2")
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


@pytest.mark.parametrize("n, fragment", [("-1", "negative"),
                                         ("100", "exceeds cap")])
def test_patch_rejects_steps_out_of_range(n, fragment):
    # -1 used to recurse until RecursionError, 100 to end in a traceback
    code, out, err = run_cli(["patch", "fibonacci", "--n", n])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_patch_rejects_a_substitution_that_is_not_primitive(tmp_path):
    # a -> a, b -> ab has no suspension; this used to end in a traceback
    path = tmp_path / "reducible.sub"
    path.write_text("letters a b\nrule a = a\nrule b = a b\n")
    code, out, err = run_cli(["patch", str(path), "--n", "2"])
    assert code == 2 and out == ""
    assert err == "error: substitution is not primitive\n"


def test_patch_of_a_missing_file_exits_1(tmp_path):
    code, out, err = run_cli(["patch", str(tmp_path / "missing.sub")])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("content", [None, "{not json"],
                         ids=["missing", "not-json"])
def test_verify_of_an_unreadable_file_exits_1(tmp_path, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(["verify", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_verify_exits_1_when_the_replay_fails(monkeypatch):
    monkeypatch.setattr(cli, "verify_report",
                        lambda report: {"passed": False, "replayed": {}})
    code, out, _ = run_cli(["analyze", "fibonacci", "--verify"])
    assert code == 1
    assert json.loads(out)["verification"] == {"passed": False,
                                               "replayed": {}}


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


def _echoed_bound(path, key, *argv):
    code, out, _ = run_cli(["analyze", str(path), *argv])
    return json.loads(out)["input"]["bounds"][key]


@pytest.mark.parametrize("key,override,flag,spec_line,default", cli.BOUNDS,
                         ids=[key for key, *_ in cli.BOUNDS])
def test_cli_flags_beat_spec_file_bounds(tmp_path, key, override, flag,
                                         spec_line, default):
    # a flag beats a spec line, which beats the default; a bound with no
    # flag stays at its default
    text = "letters a b\nrule a = a b\nrule b = a\n"
    line = f"bound {key} {default // 2}\n"
    path = tmp_path / "bounded.sub"
    path.write_text(text)
    assert _echoed_bound(path, key) == default
    if flag:
        assert _echoed_bound(path, key, flag, str(default // 4)) == \
            default // 4
    if not spec_line:
        with pytest.raises(SpecSyntaxError) as err:
            cli.parse_spec(text + line)
        assert str(err.value) == "line 4: expected: bound L|window <int>"
        return
    path.write_text(text + line)
    assert _echoed_bound(path, key) == default // 2
    assert _echoed_bound(path, key, flag, str(default // 4)) == default // 4


def test_readme_bounds_table_matches_cli():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| bound | flag | spec line | default |", 1)[1]
    rows = [[cell.strip() for cell in row.strip("|").split("|")]
            for row in table.split("\n\n", 1)[0].splitlines()[2:]]
    assert [(flag, spec, int(default.replace(",", "")))
            for _, flag, spec, default, _ in rows] == [
        (f"`{flag}`", f"`bound {key} <int>`" if spec_line else "-", default)
        for key, _, flag, spec_line, default in cli.BOUNDS if flag]


def test_readme_verify_table_matches_check_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("| check | per pair | statuses it emits "
                         "| a `HOLDS` is judged | a `FAILS` replays |", 1)[1]
    rows = [[cell.strip() for cell in row.strip("|").split("|")]
            for row in table.split("\n\n", 1)[0].splitlines()[2:]]
    judged = {check.name: check for check in cli.CHECK_TABLE
              if check.fails is not None}
    listed = []
    for names, pairs, statuses, holds, fails in rows:
        group = [judged[name] for name in re.findall(r"`(\w+)`", names)]
        # the checks of one row share their FAILS replay
        assert len({check.fails for check in group}) == 1, names
        listed += [(check.name, pairs, statuses, holds, fails == "-")
                   for check in group]
    assert listed == [
        (check.name, "yes" if check.pairs else "no",
         ", ".join(f"`{status}`" for status in cli.STATUSES),
         check.holds or "-", check.fails is None)
        for check in judged.values()]


def _stale_cap_rows(readme):
    """The rows of the README's cap table whose constant, the first
    `module.NAME` of the row, is missing from src/ or does not hold the
    integers of the value column."""
    table = readme.split("| cap | value | constant |", 1)[1]
    stale = []
    for row in table.split("\n\n", 1)[0].splitlines()[2:]:
        _, value, constant = [c.strip() for c in row.strip("|").split("|")][:3]
        module, name = re.match(r"`(\w+)\.(\w+)`", constant).groups()
        held = getattr(importlib.import_module(f"subtiling.{module}"),
                       name, None)
        stated = [int(n.replace(",", ""))
                  for n in re.findall(r"\d+(?:,\d{3})*", value)]
        if list(held if isinstance(held, tuple) else [held]) != stated:
            stale.append(row)
    return stale


def test_readme_cap_table_matches_src():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _stale_cap_rows(readme) == []
    planted = readme.replace(
        "| cap | value | constant | when it runs out |\n|---|---|---|---|\n",
        "| cap | value | constant | when it runs out |\n|---|---|---|---|\n"
        "| factor search | 2,000,000 candidates | `polys.FACTOR_WORK_CAP` "
        "| - |\n| iteration | 300 rounds | `spectrum.ITER_CAP` | - |\n")
    assert len(_stale_cap_rows(planted)) == 2


def _fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


def _put(report, path, value):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _verify_file(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return run_cli(["verify", str(path)])


def test_verify_fails_overlap_certificate_with_unknown_letter(tmp_path):
    report = _fixture("thue-morse")
    cert = report["checks"]["overlap_coincidence"]["certificate"]
    cert["coincidence_free_closed_set"].append(
        {"moved": 7, "anchor": 1, "shift": ["0/1"]})
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["overlap_coincidence"] is False
    assert outcome["passed"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def test_verify_fails_overlap_shift_longer_than_degree(tmp_path):
    # thue-morse has a degree-one field
    report = _fixture("thue-morse")
    cert = report["checks"]["overlap_coincidence"]["certificate"]
    cert["coincidence_free_closed_set"][0]["shift"] = ["0/1", "1/2"]
    assert cli.verify_report(report)["passed"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


@pytest.mark.parametrize("shift", [["x/2"], ["1/0"], [None], "1/2"])
def test_verify_fails_overlap_shift_that_does_not_parse(shift):
    report = _fixture("thue-morse")
    cert = report["checks"]["overlap_coincidence"]["certificate"]
    cert["coincidence_free_closed_set"][0]["shift"] = shift
    assert cli.verify_report(report)["passed"] is False


def _fib2_overlap_set(report):
    return report["checks"]["overlap_coincidence"]["certificate"][
        "coincidence_free_closed_set"]


def test_verify_fails_overlap_shift_given_as_a_bare_string():
    # read one character at a time, "10" would be the shift 1 + 0*beta
    # that this entry already has
    report = _fixture("fib2")
    entry = _fib2_overlap_set(report)[1]
    assert entry["shift"] == ["1/1", "0/1"]
    entry["shift"] = "10"
    assert cli.verify_report(report)["passed"] is False


def test_verify_fails_overlap_shift_shorter_than_degree():
    # fib2 has a degree-two field; zero-padded, ["-1/1"] would be the
    # shift this entry already has
    report = _fixture("fib2")
    entry = _fib2_overlap_set(report)[0]
    assert entry["shift"] == ["-1/1", "0/1"]
    entry["shift"] = ["-1/1"]
    assert cli.verify_report(report)["passed"] is False


def test_verify_fails_duplicated_overlap_class():
    report = _fixture("fib2")
    closed = _fib2_overlap_set(report)
    assert cli.verify_report(report)["passed"] is True
    closed.append(dict(closed[0]))
    assert cli.verify_report(report)["passed"] is False


def test_verify_fails_overlap_class_whose_tiles_do_not_overlap():
    # a class beyond the tile lengths has no inflation successors, so it
    # would pass the closure check on its own
    report = _fixture("thue-morse")
    cert = report["checks"]["overlap_coincidence"]["certificate"]
    cert["coincidence_free_closed_set"] = [
        {"moved": 1, "anchor": 2, "shift": ["5/1"]}]
    assert cli.verify_report(report)["passed"] is False


@pytest.mark.parametrize("pair", [[[7, 1], [1, 7]], [[1, 2], [1, 1]],
                                  [[], []], [[1, 300], [300, 1]],
                                  [[1, 2], [2, 1], [1, 2]]])
def test_verify_fails_malformed_balanced_pair(tmp_path, pair):
    report = _fixture("thue-morse")
    cert = report["checks"]["balanced_pairs"]["certificate"]
    cert["coincidence_free_closed_set"].append(pair)
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["balanced_pairs"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


# Every fibonacci witness shift is zero, so a shift read as zero would
# replay: a bare string read one character per coordinate, a list short of
# the degree padded with zeros, or JSON floats.  A shift is a list of
# exactly `degree` fraction strings.
@pytest.mark.parametrize("field_name, value", [
    ("color", "z"), ("replay_color", "z"), ("scope", ["a", "z"]),
    ("replay_shift", ["1/1", "0/1", "3/1"]), ("shift", ["1/0"]),
    ("shift", "00"), ("replay_shift", "00"),
    ("shift", ["0/1"]), ("replay_shift", ["0/1"]),
    ("shift", [0.0, 0.0]), ("replay_shift", [0.0, 0.0])])
def test_verify_fails_witness_that_does_not_parse(tmp_path, field_name,
                                                  value):
    for key in ("simultaneous", "a|a", "a|b", "b|b"):
        report = _fixture("fibonacci")
        checks = report["checks"]
        witness = (checks["simultaneous"]["witness"] if key == "simultaneous"
                   else checks["geometric_strong"]["pairs"][key]["witness"])
        witness[field_name] = value
        outcome = cli.verify_report(report)
        assert outcome["replayed"][_replay_name(key)] is False, key
        # the other witnesses still replay
        assert sum(not ok for ok in outcome["replayed"].values()) == 1, key
        code, out, err = _verify_file(tmp_path, report)
        assert code == 1 and json.loads(out)["passed"] is False
        assert "Traceback" not in err


def _scope_edit(report, edit):
    """The fibonacci report with one witness moved to the wrong scope."""
    geo = report["checks"]["geometric_strong"]["pairs"]
    if edit == "pair":
        geo["a|b"]["witness"] = geo["b|b"]["witness"]
        return "geometric_strong[a|b]"
    if edit == "simultaneous":
        report["checks"]["simultaneous"]["witness"] = geo["a|a"]["witness"]
        return "simultaneous"
    geo["a|a"]["witness"]["scope"] = "a"
    return "geometric_strong[a|a]"


@pytest.mark.parametrize("edit", ["pair", "simultaneous", "bare-string"])
def test_verify_fails_witness_for_another_scope(tmp_path, edit):
    # each witness replays for some scope, but not for its check's
    report = _fixture("fibonacci")
    key = _scope_edit(report, edit)
    outcome = cli.verify_report(report)
    assert outcome["replayed"][key] is False
    assert outcome["passed"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def _input_edit(report, edit):
    inp = report["input"]
    if edit == "no-bounds":
        del inp["bounds"]
    elif edit == "rule-token":
        inp["rules"]["a"] = ["a", "z"]
    else:
        # a -> a, b -> ab is not primitive
        inp["rules"] = {"a": ["a"], "b": ["a", "b"]}


@pytest.mark.parametrize("edit", ["no-bounds", "rule-token",
                                  "not-primitive"])
def test_verify_fails_malformed_input_section(tmp_path, edit):
    report = _fixture("fibonacci")
    _input_edit(report, edit)
    outcome = cli.verify_report(report)
    assert outcome["passed"] is False and outcome["error"]
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def _checks_edit(report, edit):
    """Malformed `checks` sections and check entries, each on the
    fixture whose check it breaks."""
    checks = report.get("checks")
    if edit == "no-checks":
        del report["checks"]
    elif edit == "checks-list":
        report["checks"] = [checks]
    elif edit == "overlap-no-certificate":
        del checks["overlap_coincidence"]["certificate"]
    elif edit == "balanced-no-certificate":
        del checks["balanced_pairs"]["certificate"]
    elif edit == "certificate-list":
        checks["overlap_coincidence"]["certificate"] = [
            checks["overlap_coincidence"]["certificate"]]
    elif edit == "closed-set-int":
        checks["overlap_coincidence"]["certificate"][
            "coincidence_free_closed_set"] = 5
    elif edit == "balanced-closed-set-int":
        checks["balanced_pairs"]["certificate"][
            "coincidence_free_closed_set"] = 5
    elif edit == "check-string":
        checks["overlap_coincidence"] = "FAILS"
    elif edit == "pair-string":
        checks["geometric_strong"]["pairs"]["a|b"] = "HOLDS"
    elif edit == "pairs-list":
        pairs = checks["geometric_strong"]["pairs"]
        checks["geometric_strong"]["pairs"] = list(pairs.values())
    elif edit == "pair-no-witness":
        del checks["geometric_strong"]["pairs"]["a|b"]["witness"]
    elif edit == "pairs-empty":
        checks["geometric_strong"]["pairs"] = {}
    elif edit == "pair-deleted":
        del checks["geometric_strong"]["pairs"]["a|b"]
    elif edit == "pair-added":
        checks["geometric_strong"]["pairs"]["b|a"] = \
            checks["geometric_strong"]["pairs"]["a|b"]
    elif edit == "prefix-pairs-empty":
        checks["prefix_strong"]["pairs"] = {}
    elif edit == "suffix-pair-deleted":
        del checks["suffix_strong"]["pairs"]["a|b"]
    elif edit == "prefix-pair-added":
        checks["prefix_strong"]["pairs"]["a|z"] = {"status": "HOLDS",
                                                   "witness": {}}
    elif edit == "overlap-deleted":
        del checks["overlap_coincidence"]
    elif edit == "prefix-simultaneous-no-witness":
        checks["prefix_simultaneous"] = {"status": "HOLDS"}
    elif edit == "prefix-simultaneous-string-witness":
        checks["prefix_simultaneous"]["witness"] = "level 1"
    else:
        del checks["simultaneous"]["witness"]


# (edit, fixture, the replay that fails, or None for an error)
CHECKS_EDITS = (
    ("no-checks", "fibonacci", None),
    ("checks-list", "fibonacci", None),
    ("overlap-no-certificate", "thue-morse", "overlap_coincidence"),
    ("balanced-no-certificate", "thue-morse", "balanced_pairs"),
    ("certificate-list", "thue-morse", "overlap_coincidence"),
    ("closed-set-int", "thue-morse", "overlap_coincidence"),
    ("balanced-closed-set-int", "thue-morse", "balanced_pairs"),
    ("check-string", "thue-morse", "overlap_coincidence"),
    ("pair-string", "fibonacci", "geometric_strong[a|b]"),
    ("pairs-list", "fibonacci", "geometric_strong"),
    ("pair-no-witness", "fibonacci", "geometric_strong[a|b]"),
    ("pairs-empty", "fibonacci", "geometric_strong"),
    ("pair-deleted", "fibonacci", "geometric_strong"),
    ("pair-added", "fibonacci", "geometric_strong"),
    ("prefix-pairs-empty", "fibonacci", "prefix_strong"),
    ("suffix-pair-deleted", "fibonacci", "suffix_strong"),
    ("prefix-pair-added", "fibonacci", "prefix_strong"),
    ("overlap-deleted", "thue-morse", None),
    ("simultaneous-no-witness", "fibonacci", "simultaneous"),
    ("prefix-simultaneous-no-witness", "thue-morse", "prefix_simultaneous"),
    ("prefix-simultaneous-string-witness", "fibonacci",
     "prefix_simultaneous"),
)


@pytest.mark.parametrize("edit, name, failed", CHECKS_EDITS,
                         ids=[e[0] for e in CHECKS_EDITS])
def test_verify_fails_malformed_checks(tmp_path, edit, name, failed):
    # each of these raised out of verify_report before
    report = _fixture(name)
    _checks_edit(report, edit)
    outcome = cli.verify_report(report)
    assert outcome["passed"] is False
    if failed is None:
        assert outcome["error"].startswith("checks:")
    else:
        assert outcome["replayed"][failed] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def _rederive(report):
    """Rewrite the derived leaves from the other leaves, as analyze does."""
    for path, value in cli.derive(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        if value is cli.ABSENT:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value


# a status the check never emits, each with its derived leaves rewritten
# so that only the status itself is forged
@pytest.mark.parametrize("path, value, failed", [
    (("geometric_strong", "pairs", "a|b", "status"), "FAILS",
     "geometric_strong[a|b]"),
    (("simultaneous",), {"status": "FAILS"}, "simultaneous"),
    (("prefix_simultaneous",), {"status": "FAILS"}, "prefix_simultaneous"),
    (("geometric_strong", "pairs", "a|b", "status"), "MAYBE",
     "geometric_strong[a|b]"),
    (("prefix_strong", "pairs", "a|b", "status"), "MAYBE",
     "prefix_strong[a|b]"),
    (("overlap_coincidence", "status"), "MAYBE", "overlap_coincidence"),
    (("suffix_strong", "pairs", "a|b", "status"), "MAYBE",
     "suffix_strong[a|b]"),
    (("simultaneous", "status"), "MAYBE", "simultaneous"),
    (("prefix_simultaneous", "status"), "MAYBE", "prefix_simultaneous"),
    (("balanced_pairs", "status"), "MAYBE", "balanced_pairs"),
    # an "error" beside a status, or one that is not a string, is no
    # raised check: the claim is judged by its status
    (("simultaneous",), {"error": "e", "status": "FAILS"}, "simultaneous"),
    (("overlap_coincidence",), {"error": 5}, "overlap_coincidence"),
], ids=["geometric-fails", "simultaneous-fails", "prefix-simultaneous-fails",
        "geometric-maybe", "prefix-maybe", "overlap-maybe", "suffix-maybe",
        "simultaneous-maybe", "prefix-simultaneous-maybe", "balanced-maybe",
        "simultaneous-error-fails", "overlap-error-not-a-string"])
def test_verify_fails_a_status_its_check_never_emits(path, value, failed):
    untampered = cli.verify_report(_fixture("fibonacci"))
    assert untampered["passed"]
    report = _fixture("fibonacci")
    _put(report, ("checks",) + path, value)
    _rederive(report)
    assert cli.verify_report(report) == {
        "passed": False,
        "replayed": dict(untampered["replayed"], **{failed: False})}


# a HOLDS that a commuting fixed-point-free involution refutes, with the
# derived leaves rewritten; analysis reports these pairs FAILS and the
# prefix-simultaneous check UNKNOWN
@pytest.mark.parametrize("name, path, value, failed", [
    ("thue-morse", ("prefix_strong", "pairs", "0|1"),
     {"status": "HOLDS", "witness": {}}, "prefix_strong[0|1]"),
    ("thue-morse", ("suffix_strong", "pairs", "0|1"),
     {"status": "HOLDS", "witness": {}}, "suffix_strong[0|1]"),
    ("fib2", ("prefix_strong", "pairs", "a|A"),
     {"status": "HOLDS", "witness": {}}, "prefix_strong[a|A]"),
    ("thue-morse", ("prefix_simultaneous",),
     {"status": "HOLDS", "witness": {"level": 1, "prefix_length": 0}},
     "prefix_simultaneous"),
    ("rauzy2-left", ("prefix_simultaneous",),
     {"status": "HOLDS", "witness": {}}, "prefix_simultaneous"),
    ("fib2", ("suffix_strong", "pairs", "b|B"),
     {"status": "HOLDS", "witness": {}}, "suffix_strong[b|B]"),
], ids=["thue-morse-prefix", "thue-morse-suffix", "fib2-prefix",
        "thue-morse-prefix-simultaneous", "rauzy2-left-prefix-simultaneous",
        "fib2-suffix"])
def test_verify_fails_a_holds_an_involution_refutes(name, path, value,
                                                   failed):
    untampered = cli.verify_report(_fixture(name))
    assert untampered["passed"]
    report = _fixture(name)
    _put(report, ("checks",) + path, value)
    _rederive(report)
    assert cli.verify_report(report) == {
        "passed": False,
        "replayed": dict(untampered["replayed"], **{failed: False})}


# (path, value): edits inside a word witness of the fibonacci fixture whose
# arithmetic fails, the first two from ROADMAP item 2
WORD_WITNESS_EDITS = {
    "prefix-lengths": (("prefix_strong", "pairs", "a|b", "witness",
                        "prefix_lengths"), [999, 5]),
    "prefix-length": (("prefix_simultaneous", "witness", "prefix_length"),
                      777),
    "lengths-not-counts": (("suffix_strong", "pairs", "a|b", "witness",
                            "prefix_lengths"), [3, 3]),
    "level-above-L": (("suffix_strong", "pairs", "a|b", "witness", "level"),
                      13),
    "level-negative": (("prefix_strong", "pairs", "a|a", "witness",
                        "level"), -1),
    "level-bool": (("prefix_strong", "pairs", "a|b", "witness", "level"),
                   True),
    "letter": (("prefix_strong", "pairs", "b|b", "witness", "letter"), "z"),
    "count-negative": (("suffix_strong", "pairs", "a|b", "witness",
                        "prefix_counts"), [3, -1]),
    "counts-short": (("prefix_strong", "pairs", "a|b", "witness",
                      "prefix_counts"), [0]),
    "counts-string": (("prefix_strong", "pairs", "a|b", "witness",
                       "prefix_counts"), "00"),
    "lengths-missing": (("prefix_strong", "pairs", "a|b", "witness"),
                        {"level": 1, "letter": "a", "prefix_counts": [0, 0]}),
    "empty-prefix": (("prefix_simultaneous", "witness"), {
        "level": 1, "prefix_length": 0, "final_letter": "a",
        "counts": [0, 0]}),
    "final-letter": (("prefix_simultaneous", "witness", "final_letter"),
                     ["a"]),
    "counts-float": (("prefix_simultaneous", "witness", "counts"),
                     [1.0, 0]),
}


@pytest.mark.parametrize("edit", WORD_WITNESS_EDITS)
def test_verify_fails_word_witness_arithmetic(edit):
    untampered = cli.verify_report(_fixture("fibonacci"))
    report = _fixture("fibonacci")
    path, value = WORD_WITNESS_EDITS[edit]
    _put(report, ("checks",) + path, value)
    name = (path[0] if path[0] == "prefix_simultaneous"
            else f"{path[0]}[{path[2]}]")
    assert cli.verify_report(report) == {
        "passed": False,
        "replayed": dict(untampered["replayed"], **{name: False})}


SWEEP_FIXTURES = ("thue-morse", "fibonacci", "fib2", "rauzy2-gamma", "plastic")
CLAIM_EDITS = (("HOLDS",), ("FAILS",), ("UNKNOWN",), ("X",), [],
               {"error": "e"})


def _claim_tampers(report):
    """(path, edit) for each check object and each pair verdict of a
    report: an edit is a 1-tuple of the status to set, or the JSON value
    that replaces the claim."""
    for check, claim in report["checks"].items():
        paths = [("checks", check)] + [
            ("checks", check, "pairs", key) for key in claim.get("pairs", ())]
        for path in paths:
            for edit in CLAIM_EDITS:
                yield path, edit


def _rederive_where_readable(report):
    try:
        _rederive(report)
    except (LookupError, TypeError, AttributeError, ArithmeticError,
            StopIteration, SubtilingError):
        pass            # derive cannot read the tampered report


# sha256 of every outcome of the sweep below, as `analyze --verify` prints
# it (key order included); a change that only restructures verify_report
# leaves it as it is
SWEEP_SHA256 = (
    "5f214c7e9138a484d8e5eaecbc8a77dd55cacfc3f704a2f97e2a25bbbd4631ad")


def test_verify_outcomes_on_tampered_claims_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for name in SWEEP_FIXTURES:
        for path, edit in _claim_tampers(_fixture(name)):
            report = _fixture(name)
            if isinstance(edit, tuple):
                _put(report, path + ("status",), edit[0])
            else:
                _put(report, path, edit)
            _rederive_where_readable(report)
            outcome = cli.verify_report(report)
            digest.update(json.dumps(outcome, indent=2).encode())
            count += 1
    assert count == 1074
    assert digest.hexdigest() == SWEEP_SHA256


@pytest.mark.parametrize("check", cli.CHECKS + ("spectral",))
def test_verify_fails_a_deleted_check(check):
    report = _fixture("fibonacci")
    del report["checks"][check]
    outcome = cli.verify_report(report)
    assert outcome == {"passed": False, "replayed": {},
                       "error": f"checks: missing {check}"}


def _witness(report, check):
    if check == "simultaneous":
        return report["checks"]["simultaneous"]["witness"]
    return report["checks"]["geometric_strong"]["pairs"]["a|b"]["witness"]


# fibonacci's seed power is 2; both witnesses sit at level 1, replay level 2.
# Replaying at level 60 would grow patches past the word cap for minutes;
# level 60 is above the report's L = 12, which no witness level passes.
# A replay shift of 10^5 would need a patch of about 10^5 tiles.
@pytest.mark.parametrize("check", ["simultaneous", "geometric_strong"])
@pytest.mark.parametrize("tamper", [
    {"replay_level": 60},
    {"replay_level": 3},
    {"level": 60, "replay_level": 60},
    {"level": -2, "replay_level": -2},
    {"level": 1.0},
    {"replay_shift": ["100000/1", "0/1"]},
    {"replay_shift": ["-100000/1", "0/1"]},
])
def test_verify_fails_tampered_witness_in_seconds(tmp_path, check, tamper):
    report = _fixture("fibonacci")
    _witness(report, check).update(tamper)
    key = "simultaneous" if check == "simultaneous" else \
        "geometric_strong[a|b]"
    started = time.monotonic()
    outcome = cli.verify_report(report)
    assert time.monotonic() - started < 2
    assert outcome["replayed"][key] is False
    assert outcome["passed"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def test_verify_fails_negative_witness_level():
    # the level-0 pair a|a replays trivially at any level; a negative level
    # is still one that analysis never produces
    report = _fixture("fibonacci")
    pair = report["checks"]["geometric_strong"]["pairs"]["a|a"]
    assert cli.verify_report(report)["replayed"]["geometric_strong[a|a]"]
    pair["witness"].update(level=-1)
    assert cli.verify_report(report)["replayed"]["geometric_strong[a|a]"] \
        is False


@pytest.mark.parametrize("target, check", [
    ("subtiling.coincidence.verify_witness", "simultaneous"),
    ("subtiling.spectrum.replay_overlap_certificate", "overlap_coincidence"),
    ("subtiling.spectrum.replay_balanced_certificate", "balanced_pairs"),
])
def test_verify_counts_a_replay_that_hits_a_cap_as_failed(monkeypatch,
                                                         target, check):
    def over_cap(*args):
        raise LengthCapExceeded("image length exceeds cap")

    monkeypatch.setattr(target, over_cap)
    report = _fixture("thue-morse" if check != "simultaneous"
                      else "fibonacci")
    outcome = cli.verify_report(report)
    assert outcome["replayed"][check] is False
    assert outcome["passed"] is False


# -- the window cap --------------------------------------------------------


@pytest.mark.parametrize("window", ["0", "-4", str(cli.WINDOW_CAP + 1)])
def test_analyze_rejects_window_outside_cap(window):
    code, out, err = run_cli(["analyze", "rauzy2-left", "--window", window])
    assert code == 2 and out == ""
    assert str(cli.WINDOW_CAP) in err and "Traceback" not in err


def test_analyze_rejects_level_bound_above_cap():
    code, out, err = run_cli(["analyze", "fibonacci", "--Lmax",
                              str(cli.LEVEL_CAP + 1)])
    assert code == 2 and out == ""
    assert f"bound L {cli.LEVEL_CAP + 1} is above {cli.LEVEL_CAP}" in err
    assert "Traceback" not in err


def _negative_bound_error(key):
    if key == "window":
        return f"window -1 is not an integer in [1, {cli.WINDOW_CAP}]"
    return f"bound {key} -1 is not a non-negative integer"


@pytest.mark.parametrize("key,flag", [(bound.key, bound.flag)
                                      for bound in cli.BOUNDS if bound.flag],
                         ids=[bound.flag for bound in cli.BOUNDS
                              if bound.flag])
def test_analyze_rejects_negative_bound(key, flag):
    code, out, err = run_cli(["analyze", "fibonacci", flag, "-1"])
    assert code == 2 and out == ""
    assert _negative_bound_error(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [("--kmax", "16"),
                                         ("--pair-cap", "10")],
                         ids=["--kmax", "--pair-cap"])
def test_analyze_refuses_a_removed_bound_flag(capsys, flag, value):
    # k and pair_cap are fixed at their defaults: argparse knows no flag
    with pytest.raises(SystemExit) as exit_:
        cli.main(["analyze", "fibonacci", flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("name", [bound.key for bound in cli.BOUNDS
                                  if bound.spec_line])
def test_analyze_rejects_negative_spec_line_bound(tmp_path, name):
    path = tmp_path / "negative.sub"
    path.write_text("letters a b\nrule a = a b\nrule b = a\n"
                    f"bound {name} -1\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert _negative_bound_error(name) in err
    with pytest.raises(InvalidBound):
        cli.run_analysis(cli.parse_spec(path.read_text()))


@pytest.mark.parametrize("name,default", [
    (bound.key, bound.default) for bound in cli.BOUNDS if not bound.flag],
    ids=[bound.key for bound in cli.BOUNDS if not bound.flag])
def test_analyze_refuses_a_spec_line_of_a_fixed_bound(tmp_path, name,
                                                      default):
    # `bound k 16` too: a bound with no flag has no spec line
    text = f"letters a b\nrule a = a b\nrule b = a\nbound {name} {default}\n"
    with pytest.raises(SpecSyntaxError,
                       match="line 4: expected: bound L\\|window <int>"):
        cli.parse_spec(text)
    path = tmp_path / "fixed.sub"
    path.write_text(text)
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out) == (1, "")
    assert "line 4: expected: bound L|window <int>" in err


def test_analyze_rejects_spec_line_window_outside_cap(tmp_path):
    path = tmp_path / "wide.sub"
    path.write_text("letters a b\nrule a = a b\nrule b = a\n"
                    f"bound window {cli.WINDOW_CAP + 1}\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert str(cli.WINDOW_CAP) in err


@pytest.mark.parametrize("window", ["64", 2.5, -4, 0, True,
                                    cli.WINDOW_CAP + 1, 65_536])
def test_verify_fails_report_window_outside_cap(tmp_path, window):
    report = _fixture("fibonacci")
    report["input"]["bounds"]["window"] = window
    started = time.monotonic()
    outcome = cli.verify_report(report)
    assert time.monotonic() - started < 1
    assert outcome["passed"] is False
    assert str(cli.WINDOW_CAP) in outcome["error"]
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


# each edit of a report's bounds, with its derived leaves rewritten, is a
# value that analyze refuses
@pytest.mark.parametrize("key, value, message", [
    ("L", -1, "bound L -1 is not a non-negative integer"),
    ("L", True, "bound L True is not a non-negative integer"),
    ("L", cli.LEVEL_CAP + 1,
     f"bound L {cli.LEVEL_CAP + 1} is above {cli.LEVEL_CAP}"),
    ("k", "banana", "bound k 'banana' is not a non-negative integer"),
    ("k", 20, f"bound k 20 is not {lattices.POWER_BOUND}"),
    ("node_cap", -7, "bound node_cap -7 is not a non-negative integer"),
    ("pair_cap", 1.5, "bound pair_cap 1.5 is not a non-negative integer"),
    ("pair_cap", 60_000, f"bound pair_cap 60000 is not {spectrum.PAIR_CAP}"),
    ("iter_cap", "x", "bound iter_cap 'x' is not a non-negative integer"),
    ("iter_cap", 300, f"bound iter_cap 300 is not {spectrum.ITER_CAP}"),
])
def test_verify_fails_a_bound_that_analyze_refuses(key, value, message):
    report = _fixture("fibonacci")
    report["input"]["bounds"][key] = value
    _rederive(report)
    assert cli.verify_report(report) == {
        "passed": False, "replayed": {},
        "error": f"input: InvalidBound: {message}"}


@pytest.mark.parametrize("tamper", ["extra-key", "reordered"])
def test_verify_fails_bounds_that_are_not_the_bound_keys(tamper):
    report = json.loads((GOLDEN / "fibonacci.json").read_text(
        encoding="utf-8"))
    bounds = report["input"]["bounds"]
    keys = [bound.key for bound in cli.BOUNDS]
    assert list(bounds) == keys
    if tamper == "extra-key":
        bounds["kmax"] = 99
    else:
        report["input"]["bounds"] = dict(reversed(bounds.items()))
    outcome = cli.verify_report(report)
    assert outcome["passed"] is False
    assert outcome["error"] == (
        f"input: InvalidBound: bounds {list(report['input']['bounds'])} "
        f"are not {keys}")


# -- no HOLDS from an empty sample ------------------------------------------


@pytest.mark.parametrize("name", ["rauzy2-left", "thue-morse", "fib2"])
def test_window_without_returns_is_unknown(name):
    # a window of one tile length holds no two points of one color: the
    # overlap closure has no seed; eventual return reads the height
    # group's stable window, which the window bound does not size
    report = cli.run_analysis(cli.corpus_lookup(name), {"window": 1})
    overlap = report["checks"]["overlap_coincidence"]
    assert overlap["status"] == "UNKNOWN"
    assert overlap["bound_hit"].startswith("window [")
    assert "total_classes" not in overlap["certificate"]
    assert report["checks"]["eventual_return_module"] == \
        report_for(name)["checks"]["eventual_return_module"]
    assert report["checks"]["spectral"]["status"] == "UNKNOWN"
    assert cli.report_exit_code(report) == 2


# -- tampered witnesses on the index lookup ---------------------------------


# rauzy2-gamma witnesses: the simultaneous one at level 3, and the pairs
# a|b (level 1, nonzero replay shift) and a|c (level 3)
TAMPERED_WITNESSES = ("simultaneous", "a|b", "a|c")


def _replay_name(key):
    return key if key == "simultaneous" else f"geometric_strong[{key}]"


def _witness_report(key, **tamper):
    """The rauzy2-gamma fixture with one witness's fields updated by
    `tamper`; every other claim is left to replay as committed."""
    report = _fixture("rauzy2-gamma")
    checks = report["checks"]
    if key == "simultaneous":
        witness = checks["simultaneous"]["witness"]
    else:
        witness = checks["geometric_strong"]["pairs"][key]["witness"]
    witness.update(tamper)
    return report, witness


@pytest.mark.parametrize("key", TAMPERED_WITNESSES)
def test_verify_fails_witness_with_another_replay_color(key):
    report, witness = _witness_report(key)
    assert cli.verify_report(report)["passed"]
    for letter in report["input"]["letters"]:
        if letter != witness["replay_color"]:
            tampered, _ = _witness_report(key, replay_color=letter)
            outcome = cli.verify_report(tampered)
            assert not outcome["passed"], letter
            assert outcome["replayed"][_replay_name(key)] is False, letter


@pytest.mark.parametrize("key", TAMPERED_WITNESSES)
def test_verify_fails_witness_shifted_by_a_tile_length(key):
    report, witness = _witness_report(key)
    for length in report["facts"]["prototile_lengths"]:
        for sign in (1, -1):
            moved = [str(Fraction(c) + sign * Fraction(d))
                     for c, d in zip(witness["replay_shift"], length)]
            tampered, _ = _witness_report(key, replay_shift=moved)
            outcome = cli.verify_report(tampered)
            assert not outcome["passed"], (length, sign)
            assert outcome["replayed"][_replay_name(key)] is False, \
                (length, sign)


# -- the level claim and every scope letter are replayed -------------------


@pytest.mark.parametrize("key", ["a|b", "simultaneous"])
@pytest.mark.parametrize("tamper", [{"shift": ["5/1", "7/1"]},
                                    {"color": "b"}])
def test_verify_fails_witness_with_a_false_level_claim(key, tamper):
    # the replay claim is left intact; only the claim at the witness
    # level is false
    report = _fixture("fibonacci")
    checks = report["checks"]
    witness = (checks["simultaneous"]["witness"] if key == "simultaneous"
               else checks["geometric_strong"]["pairs"][key]["witness"])
    assert cli.verify_report(report)["passed"]
    witness.update(tamper)
    outcome = cli.verify_report(report)
    replayed = "simultaneous" if key == "simultaneous" \
        else f"geometric_strong[{key}]"
    assert outcome["replayed"][replayed] is False
    assert outcome["passed"] is False


@pytest.mark.parametrize("tamper", [
    {"shift": ["1/1", "0/1", "0/1", "0/1", "0/1"]},
    {"replay_shift": ["1/1", "0/1", "0/1", "0/1", "0/1"]},
    {"color": "a"}, {"replay_color": "a"},
])
def test_verify_replays_the_letter_missing_from_the_window(tamper):
    # pentanacci's window of 16 tile lengths holds no reference point of
    # e; the e|e claim is replayed all the same
    report = _fixture("pentanacci")
    report["checks"]["geometric_strong"]["pairs"]["e|e"]["witness"].update(
        tamper)
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["geometric_strong[e|e]"] is False
    assert outcome["passed"] is False


# -- a deterministic work guard for witness replay --------------------------


def test_pentanacci_replay_builds_no_patch(monkeypatch):
    # verify replays 16 witnesses by descending the inflation tree, and
    # the core facts: no patch is built, all 16 replay on one integer
    # setting, and the fixed-point enclosures leave few signs to
    # NumberField.int_sign, through which every certified sign passes
    builds, signs, replaying, settings = [], [], [], []
    init = suspension.Patch.__init__
    int_sign = algebraic.NumberField.int_sign
    verify_witness = coincidence.verify_witness
    walk_init = coincidence.Walk.__init__

    def replay(*args):
        replaying.append(1)
        try:
            return verify_witness(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(
        suspension.Patch, "__init__",
        lambda self, *args: (replaying and builds.append(1)) or
        init(self, *args))
    monkeypatch.setattr(algebraic.NumberField, "int_sign",
                        lambda self, ints: signs.append(1) or
                        int_sign(self, ints))
    monkeypatch.setattr(coincidence, "verify_witness", replay)
    monkeypatch.setattr(
        coincidence.Walk, "__init__",
        lambda self, *args: settings.append(1) or walk_init(self, *args))
    outcome = cli.verify_report(_fixture("pentanacci"))
    assert outcome["passed"] and len(outcome["replayed"]) == 17
    assert builds == []
    assert len(settings) == 1
    assert len(signs) <= 200


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_an_analysis_builds_one_walk_and_keeps_nothing_on_the_system(
        monkeypatch, name):
    # the geometric checks, the overlap closure and eventual return share
    # one walk per report, and nothing of the analysis is kept on the
    # system: the attributes it has once built are the ones it has after
    # the analysis
    walks, systems = [], []
    walk_init = coincidence.Walk.__init__
    system_init = suspension.SuspensionSystem.__init__

    def built(self, *args):
        system_init(self, *args)
        systems.append((self, set(vars(self))))

    monkeypatch.setattr(coincidence.Walk, "__init__", lambda self, *args:
                        walks.append(1) or walk_init(self, *args))
    monkeypatch.setattr(suspension.SuspensionSystem, "__init__", built)
    report = cli.run_analysis(cli.corpus_lookup(name))
    assert "error" not in report["checks"]
    assert len(walks) == len(systems) == 1
    system, attributes = systems[0]
    assert set(vars(system)) == attributes


def _forged_overlap_failure(report, walk, seed, size):
    """`report` with a forged overlap FAILS: the `size` classes closed under
    the inflation of `walk` from `seed`, checked closed and
    coincidence-free, with the derived leaves rewritten."""
    classes, queue = {}, [seed]
    while queue:
        key = queue.pop()
        if key not in classes:
            classes[key] = None
            queue.extend(walk.successors(key))
    assert len(classes) == size
    assert spectrum._is_closed(classes, spectrum._is_coincidence_key,
                               walk.successors)
    report["checks"]["overlap_coincidence"].update(
        status="FAILS", certificate={"coincidence_free_closed_set": [
            {"moved": moved, "anchor": anchor,
             "shift": spectrum.format_shift(shift, walk.denom)}
            for moved, anchor, shift in classes]})
    _rederive(report)
    return report


def _report_walk(report):
    """The walk that `verify` replays a report on."""
    spec = cli._spec_from_report(report)
    system = suspension.SuspensionSystem(spec.substitution())
    return coincidence.Walk(system, cli._reference_points(system, spec)[0])


def _only_overlap_fails(report):
    outcome = cli.verify_report(report)
    return ([name for name, ok in outcome["replayed"].items() if not ok] ==
            ["overlap_coincidence"] and outcome["passed"] is False)


def test_verify_fails_an_overlap_certificate_off_the_walk_denominator():
    # ROADMAP item 2's forgery on fibonacci: the class (a, a, 1/2) closed
    # under inflation, 22 coincidence-free classes that no tiling holds
    # (1/2 is not in Z[beta]); only its denominator, 2, which does not
    # divide the walk's, 1, refutes it
    report = _fixture("fibonacci")
    system = suspension.SuspensionSystem(
        cli._spec_from_report(report).substitution())
    # the left endpoints, 0, over the denominator 2
    walk = coincidence.Walk(system, (((0, 0), (0, 0)), 2))
    assert _only_overlap_fails(
        _forged_overlap_failure(report, walk, (1, 1, (1, 0)), 22))


def test_verify_fails_overlap_classes_outside_the_span_of_the_lengths():
    # two closed coincidence-free sets over the walk's own denominator,
    # which the denominator alone does not refute: on aba-gamma (walk
    # denominator 3), {(a, a, -1/3), (a, b, 0), (b, a, 0)}, which would
    # make the spectrum NOT_PURE_DISCRETE; on rauzy at the tile map
    # (2, 1, 1) (denominator 2), the 113 classes closed from
    # (a, a, (-2, -2, 3/2)).  Every overlap class lies in the Z-span of
    # the prototile lengths, and neither -1/3 nor 3/2 does
    report = _golden("aba-gamma")
    walk = _report_walk(report)
    assert walk.denom == 3
    forged = _forged_overlap_failure(report, walk, (1, 1, (-1,)), 3)
    assert forged["checks"]["spectral"]["status"] == "NOT_PURE_DISCRETE"
    assert _only_overlap_fails(forged)
    report = json.loads(json.dumps(cli.run_analysis(
        cli.parse_spec(RAUZY_211, name="rauzy-211"))))
    assert cli.verify_report(report)["passed"]
    walk = _report_walk(report)
    assert walk.denom == 2
    assert _only_overlap_fails(
        _forged_overlap_failure(report, walk, (1, 1, (-4, -4, 3)), 113))


# -- a deterministic work guard for the exact sign route ----------------------


def test_nonpisot_signs_and_bisection_run_on_integers(monkeypatch):
    # the undecided signs of the non-Pisot overlap closure at window 16,
    # node cap 2,000 (a conjugate outside the unit disk grows its
    # coordinates) are decided by integer Horner and integer bisection.
    # Past den = 2^48 the rounding of the 2^64 sign filter outgrows the
    # width of the interval, so most signs fall through to Horner: the
    # count is exact, to show a change in the filter or the closure.
    # Each Walk encloses the subtile pairs of a (moved, anchor) once,
    # whatever the refinements: 130 enclosures, not 5,654 by generation
    refinements, horner = [], []
    built, building, pair_bounds = [], [], []
    refine = algebraic.NumberField._refine_once
    refined_sign = algebraic.NumberField._refined_sign
    bounds = algebraic.NumberField.fixed_point_bounds
    subtile_pairs = coincidence.Walk._subtile_pairs

    def build(walk, moved, anchor):
        built.append((walk, moved, anchor))
        building.append(1)
        try:
            return subtile_pairs(walk, moved, anchor)
        finally:
            building.pop()

    def counted_bounds(field, ints):
        if building:
            pair_bounds.append(1)
        return bounds(field, ints)

    monkeypatch.setattr(coincidence.Walk, "_subtile_pairs", build)
    monkeypatch.setattr(algebraic.NumberField, "fixed_point_bounds",
                        counted_bounds)
    monkeypatch.setattr(algebraic.NumberField, "_refine_once",
                        lambda self: refinements.append(1) or refine(self))
    monkeypatch.setattr(
        algebraic.NumberField, "_refined_sign",
        lambda self, ints: horner.append(1) or refined_sign(self, ints))
    text = (PERFBENCH / "specs" / "nonpisot.spec").read_text(encoding="utf-8")
    spec = cli.parse_spec(text, name="nonpisot")
    system = suspension.SuspensionSystem(spec.substitution())
    refpoints, _ = cli._reference_points(system, spec)
    half = spectrum.overlap_coincidence(coincidence.Walk(system, refpoints),
                                        system.window(16), node_cap=2000)
    assert half.bound_hit == "node cap 2000"
    assert len(refinements) == 170
    assert len(horner) == 3_280
    assert len(built) == len(set(built))
    assert len(pair_bounds) <= 130


def test_nonpisot_analysis_runs_no_overlap_closure(monkeypatch):
    # runaway pin: at default bounds the non-Pisot overlap closure runs
    # about 30 s into node cap 100,000.  The closure is finite only for a
    # Pisot beta, so analyze runs none here, and asks is_pisot once
    pisot_calls = []
    is_pisot = algebraic.is_pisot

    def closure(*args, **kwargs):
        raise AssertionError("overlap closure on a non-Pisot input")

    monkeypatch.setattr(spectrum, "overlap_coincidence", closure)
    monkeypatch.setattr(algebraic, "is_pisot",
                        lambda field: pisot_calls.append(1) or
                        is_pisot(field))
    text = (PERFBENCH / "specs" / "nonpisot.spec").read_text(encoding="utf-8")
    report = cli.run_analysis(cli.parse_spec(text, name="nonpisot"))
    assert report["input"]["bounds"]["node_cap"] == spectrum.DEFAULT_NODE_CAP
    assert report["facts"]["pisot"] is False
    assert pisot_calls == [1]
    assert report["checks"]["overlap_coincidence"] == {
        "status": "UNKNOWN", "certificate": {}, "bound_hit": "not Pisot"}
    assert report["checks"]["spectral"]["status"] == "UNKNOWN"
    assert cli.verify_report(report)["passed"]


# -- the involution certificates and the core facts --------------------------


def test_every_fixture_replays_its_involutions_and_core_facts():
    for path in sorted(FIXTURES.glob("*.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        outcome = cli.verify_report(report)
        assert outcome["passed"] and outcome["replayed"]["facts"], path.stem
        for check in ("prefix_strong", "suffix_strong"):
            for key, verdict in report["checks"][check]["pairs"].items():
                name = f"{check}[{key}]"
                if verdict["status"] == "FAILS":
                    assert outcome["replayed"][name] is True, name
                else:
                    assert name not in outcome["replayed"], name


# (check, pair, edited verdict); thue-morse's 0|1 fails by the swap
INVOLUTION_EDITS = {
    "fixed-point": ("prefix_strong", "0|1",
                    {"status": "FAILS", "certificate": {"involution": {"1": 1}}}),
    "identity": ("prefix_strong", "0|1",
                 {"status": "FAILS",
                  "certificate": {"involution": {"1": 1, "2": 2}}}),
    "string-value": ("suffix_strong", "0|1",
                     {"status": "FAILS",
                      "certificate": {"involution": {"1": "2", "2": "1"}}}),
    "no-certificate": ("suffix_strong", "0|1", {"status": "FAILS"}),
    "certificate-list": ("prefix_strong", "0|1",
                         {"status": "FAILS", "certificate": [1, 2]}),
    "bare-holds": ("suffix_strong", "0|1", {"status": "HOLDS"}),
    "holds-string-witness": ("prefix_strong", "0|0",
                             {"status": "HOLDS", "witness": "level 0"}),
}


@pytest.mark.parametrize("edit", INVOLUTION_EDITS)
def test_verify_fails_tampered_involution_claim(tmp_path, edit):
    check, key, verdict = INVOLUTION_EDITS[edit]
    report = _fixture("thue-morse")
    report["checks"][check]["pairs"][key] = verdict
    outcome = cli.verify_report(report)
    assert outcome["replayed"][f"{check}[{key}]"] is False
    assert outcome["passed"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def test_verify_fails_involution_that_does_not_commute():
    # the swap of a and b is a fixed-point-free involution, but
    # tau(sigma(a)) = ba is not sigma(b) = a
    report = _fixture("fibonacci")
    report["checks"]["suffix_strong"]["pairs"]["a|b"] = {
        "status": "FAILS", "certificate": {"involution": {"1": 2, "2": 1}}}
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["suffix_strong[a|b]"] is False
    assert outcome["passed"] is False


def test_verify_fails_involution_for_a_pair_it_does_not_swap():
    # fib2 commutes with (a A)(b B): it proves a|A apart, not a|b
    report = _fixture("fib2")
    pairs = report["checks"]["prefix_strong"]["pairs"]
    assert pairs["a|A"]["status"] == "FAILS"
    pairs["a|b"] = pairs["a|A"]
    pairs["x|y"] = pairs["a|A"]
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["prefix_strong[a|A]"] is True
    assert outcome["replayed"]["prefix_strong[a|b]"] is False
    assert outcome["replayed"]["prefix_strong[x|y]"] is False


def test_verify_replays_prefix_simultaneous_involution():
    # fib2 commutes with (a A)(b B); fibonacci with no involution
    report = json.loads((GOLDEN / "fib2.json").read_text(encoding="utf-8"))
    claim = report["checks"]["prefix_simultaneous"]
    assert claim == {"status": "FAILS", "certificate": {
        "involution": {"1": 3, "2": 4, "3": 1, "4": 2}}}
    assert cli.verify_report(report)["replayed"]["prefix_simultaneous"]
    claim["certificate"]["involution"] = {"1": 2, "2": 1, "3": 4, "4": 3}
    assert cli.verify_report(report)["replayed"]["prefix_simultaneous"] is \
        False
    report = _fixture("fibonacci")
    report["checks"]["prefix_simultaneous"] = {
        "status": "FAILS", "certificate": {"involution": {"1": 2, "2": 1}}}
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["prefix_simultaneous"] is False
    assert outcome["passed"] is False


# -- the closed states of a shared-tile walk ---------------------------------


def _golden(name):
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


def _state(color, anchor, *shift):
    return {"color": color, "classes": [{"anchor": anchor,
                                         "shift": list(shift)}]}


# fib2 a|B: the root is a over B at the origin, and the walk closes on 5
# states with no shared tile
FIB2_ROOT = _state(1, 4, "0/1", "0/1")


def _without_the_root(states):
    return [state for state in states if state != FIB2_ROOT]


def _with_shared_tiles(states):
    # each letter over itself at the origin: closed, and all shared
    return states + [_state(c, c, "0/1", "0/1") for c in range(1, 5)]


def _with_a_class_repeated(states):
    # a over a at shift 1 - beta overlaps two subtiles of the inflated a:
    # inflating 64 copies of that class at once would build 2^64 states
    return [{"color": 1, "classes": [
        {"anchor": 1, "shift": ["-1/1", "1/1"]}] * 64}] + states


def _edit_first(**fields):
    def edit(states):
        states[0].update(fields)
        return states
    return edit


def _edit_first_class(**fields):
    def edit(states):
        states[0]["classes"][0].update(fields)
        return states
    return edit


WALK_EDITS = {
    "without-the-root": _without_the_root,
    "with-shared-tiles": _with_shared_tiles,
    "class-repeated": _with_a_class_repeated,
    "color-token": _edit_first(color="a"),
    "color-true": _edit_first(color=True),
    "color-zero": _edit_first(color=0),
    "anchor-out-of-range": _edit_first_class(anchor=5),
    "classes-object": _edit_first(classes={"anchor": 4}),
    "no-classes": lambda states: [{"color": 1}] + states,
    "no-shift": lambda states: [_state(1, 4)] + states,
    "short-shift": _edit_first_class(shift=["0/1"]),
    "shift-of-numbers": _edit_first_class(shift=[0, 0]),
    "shift-not-a-fraction": _edit_first_class(shift=["a", "0/1"]),
    "state-list": lambda states: [[1, 4, ["0/1", "0/1"]]] + states,
    "states-object": lambda states: {"color": 1},
}


def _walk_outcome(report, check, key, certificate):
    claim = {"status": "FAILS", "certificate": certificate}
    if key is None:
        report["checks"][check] = claim
        name = check
    else:
        report["checks"][check]["pairs"][key] = claim
        name = f"{check}[{key}]"
    _rederive(report)
    outcome = cli.verify_report(report)
    return outcome["replayed"][name], outcome["passed"]


@pytest.mark.parametrize("edit", WALK_EDITS)
def test_verify_fails_tampered_walk_certificate(tmp_path, edit):
    report = _golden("fib2")
    states = report["checks"]["geometric_strong"]["pairs"]["a|B"][
        "certificate"]["closed_states"]
    assert len(states) == 5 and FIB2_ROOT in states
    certificate = {"closed_states": WALK_EDITS[edit](states)}
    started = time.monotonic()
    assert _walk_outcome(report, "geometric_strong", "a|B",
                         certificate) == (False, False)
    assert time.monotonic() - started < 1
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


@pytest.mark.parametrize("certificate", [None, [], {}, {"closed_states": 1}])
def test_verify_fails_malformed_walk_certificate(certificate):
    assert _walk_outcome(_golden("fib2"), "simultaneous", None,
                         certificate) == (False, False)


def test_verify_fails_walk_certificate_with_a_state_dropped():
    # every state but the root is a successor of another: dropping one
    # leaves a set that is not closed
    states = _golden("fib2")["checks"]["geometric_strong"]["pairs"]["a|B"][
        "certificate"]["closed_states"]
    for dropped in _without_the_root(states):
        kept = [state for state in states if state is not dropped]
        assert _walk_outcome(_golden("fib2"), "geometric_strong", "a|B",
                             {"closed_states": kept}) == (False, False)


# period doubling with the tile map a -> b, b -> a: reference points 2/3
# and 1/3, and walk states with shifts in thirds
PERIOD_DOUBLING_GAMMA = ("letters a b\nrule a = a b\nrule b = a a\n"
                         "tilemap a -> 2\ntilemap b -> 1\n")


def test_verify_fails_walk_certificate_over_another_denominator():
    # every shift divided by 7 reads as the same integer vectors over a
    # denominator 7 times the walk's: only the denominator tells them apart
    report = cli.run_analysis(cli.parse_spec(PERIOD_DOUBLING_GAMMA))
    report = json.loads(json.dumps(report))
    assert cli.verify_report(report)["passed"]
    states = report["checks"]["simultaneous"]["certificate"]["closed_states"]
    shifts = [c["shift"] for state in states for c in state["classes"]]
    assert any(Fraction(x) for shift in shifts for x in shift)
    for shift in shifts:
        shift[:] = [str(Fraction(x) / 7) for x in shift]
    ints, denom = algebraic.parse_shifts(shifts, 1, 3)
    assert denom == 21 and ints == algebraic.parse_shifts(
        [[str(Fraction(x) * 7) for x in shift] for shift in shifts], 1, 3)[0]
    assert _walk_outcome(report, "simultaneous", None,
                         {"closed_states": states}) == (False, False)


def _walk_closure(report, letters):
    """The states that the walk of `letters` meets at any level, as a
    FAILS certificate lists them: closed under inflation, with the root."""
    walk = _report_walk(report)
    seen, states = set(), {walk.root(letters): ()}
    while not seen.issuperset(states):
        seen.update(states)
        states = walk.inflate(states)
    return {"closed_states": [
        {"color": state[0][0], "classes": [
            {"anchor": anchor,
             "shift": spectrum.format_shift(shift, walk.denom)}
            for _, anchor, shift in state]}
        for state in sorted(seen)]}


def test_verify_fails_walk_certificate_of_a_pair_that_holds():
    # aba-gamma's a|b shares a tile at level 1: neither the closure of
    # its root, which holds that tile, nor aba-left's certificate for the
    # same rules at other reference points replays
    report = _golden("aba-gamma")
    assert report["checks"]["geometric_strong"]["pairs"]["a|b"][
        "witness"]["level"] == 1
    left = _golden("aba-left")["checks"]["geometric_strong"]["pairs"]["a|b"]
    assert left["status"] == "FAILS"
    for certificate in (_walk_closure(report, (1, 2)), left["certificate"]):
        assert _walk_outcome(_golden("aba-gamma"), "geometric_strong", "a|b",
                             certificate) == (False, False)


def test_verify_fails_simultaneous_walk_certificate_on_fibonacci():
    # fibonacci's prototiles share a tile at level 1; thue-morse's
    # certificate is closed but holds another root
    report = _fixture("fibonacci")
    assert report["checks"]["simultaneous"]["status"] == "HOLDS"
    tm = _golden("thue-morse")["checks"]["simultaneous"]["certificate"]
    for certificate in (_walk_closure(report, (1, 2)), tm):
        assert _walk_outcome(_fixture("fibonacci"), "simultaneous", None,
                             certificate) == (False, False)


def test_verify_fails_a_real_witness_above_the_level_bound():
    # the walk's states at level 60 hold a shared tile, which the witness
    # replay alone accepts; it is above the report's L = 12
    report = _fixture("fibonacci")
    system = suspension.SuspensionSystem(cli._spec_from_report(
        report).substitution())
    refs = suspension.left_endpoint_points(system)
    walk = coincidence.Walk(system, refs)
    states = {walk.root((1, 2)): ()}
    for _ in range(60):
        states = walk.inflate(states)
    path, color = coincidence._least_shared(states)
    shift = walk.witness_shift(1, path, color)
    witness = coincidence.CoincidenceWitness(
        level=60, color=color, shift=shift, scope=(1, 2), replay_level=60,
        replay_color=color, replay_shift=shift, denom=walk.denom)
    assert coincidence.verify_witness(walk, witness)
    letter = report["input"]["letters"][color - 1]
    report["checks"]["geometric_strong"]["pairs"]["a|b"]["witness"].update(
        level=60, replay_level=60, color=letter, replay_color=letter,
        shift=spectrum.format_shift(shift, walk.denom),
        replay_shift=spectrum.format_shift(shift, walk.denom))
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["geometric_strong[a|b]"] is False
    assert outcome["passed"] is False
    report["input"]["bounds"]["L"] = 60
    _rederive(report)
    assert cli.verify_report(report)["replayed"]["geometric_strong[a|b]"]


FACT_EDITS = {
    # the two edits of ROADMAP item 2 on fibonacci
    "minimal_polynomial": [-1, 1, 1],
    "characteristic_polynomial": [1, -1, 1],
    "substitution_matrix": [[1, 1], [0, 1]],
    "prototile_lengths": [["1/1", "1/1"], ["1/1", "0/1"]],
    "fixed_point_seed": {"power": 2, "left": "b", "right": "a"},
    # the reference points and their admissibility are replayed too
    "reference_points": [["1/2", "0/1"], ["0/1", "0/1"]],
    "admissible": False,
    "reference_point_kind": "tile-map",
    # the interval of item 2: not inside the field's, nor 2^-20 wide
    "beta_interval": ["1/1", "2/1"],
}


@pytest.mark.parametrize("fact", FACT_EDITS)
def test_verify_fails_tampered_core_fact(tmp_path, fact):
    report = _fixture("fibonacci")
    assert cli.verify_report(report)["replayed"]["facts"] is True
    report["facts"][fact] = FACT_EDITS[fact]
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["facts"] is False
    assert outcome["passed"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False


# (path, value): edits of a derived leaf, or of a leaf that derive reads,
# that the facts replay passed before derive; the last ones break derive
DEPENDENT_FACT_EDITS = {
    "geometric-admissible": (("checks", "geometric_strong", "admissible"),
                             False),
    "characteristic-irreducible": (("facts", "characteristic_irreducible"),
                                   False),
    "primitive": (("facts", "primitive"), False),
    # the ten derived edits of ROADMAP item 2
    "height-group": (("checks", "height_group", "group"), {
        "invariant_factors": [5], "free_rank": 0, "display": "Z/5Z"}),
    "cross-lattice": (("checks", "height_group", "cross_lattice", "basis"),
                      [[2, 0], [0, 1]]),
    "return-powers": (("checks", "eventual_return_module", "powers"),
                      [7, 7]),
    "return-status": (("checks", "eventual_return_module", "status"),
                      "FAILS"),
    "total-classes": (("checks", "overlap_coincidence", "certificate",
                       "total_classes"), 999),
    "irreducible-pairs": (("checks", "balanced_pairs", "certificate",
                           "irreducible_pairs"), 1),
    "seed-power": (("cost", "seed_power"), 9),
    "pisot": (("facts", "pisot"), False),
    "geometric-aggregate": (("checks", "geometric_strong", "aggregate"),
                            "FAILS"),
    "spectral-status": (("checks", "spectral", "status"),
                        "NOT_PURE_DISCRETE"),
    "zero-basis-row": (("checks", "height_group", "cross_lattice", "basis"),
                       [[0, 0], [0, 1]]),
    "zero-denominator": (("checks", "height_group", "samecolor_lattice",
                          "denominator"), 0),
    "lattice-list": (("checks", "height_group", "cross_lattice"), [1, 0]),
    "powers-string": (("checks", "eventual_return_module", "powers"), "00"),
    "return-empty": (("checks", "eventual_return_module"), {}),
    "certificate-list": (("checks", "balanced_pairs", "certificate"), [3]),
    "cost-list": (("cost",), [10, 3, 2]),
}


@pytest.mark.parametrize("edit", DEPENDENT_FACT_EDITS)
def test_verify_fails_tampered_dependent_fact(tmp_path, edit):
    # each edit fails the facts replay and no other, and raises nothing
    untampered = cli.verify_report(_fixture("fibonacci"))
    report = _fixture("fibonacci")
    _put(report, *DEPENDENT_FACT_EDITS[edit])
    assert cli.verify_report(report) == {"passed": False, "replayed": dict(
        untampered["replayed"], facts=False)}
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", ["deleted", "list", "key-deleted"])
def test_verify_fails_malformed_facts(edit):
    report = _fixture("fibonacci")
    if edit == "deleted":
        del report["facts"]
    elif edit == "list":
        report["facts"] = [report["facts"]]
    else:
        del report["facts"]["minimal_polynomial"]
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["facts"] is False
    assert outcome["passed"] is False


# edits of fibonacci's beta_interval [1696631, 1696632] / 2^20 that verify
# rejects, each for one of its conditions
BETA_INTERVAL_EDITS = {
    "outside": ["1/1", "2/1"],
    "too-wide": ["1696630/1048576", "1696632/1048576"],
    "no-sign-change": ["1696630/1048576", "1696631/1048576"],
    "rational-point": ["1696631/1048576", "1696631/1048576"],
    "reversed": ["212079/131072", "1696631/1048576"],
    "not-a-pair": ["1696631/1048576"],
    "floats": [1.6, 1.7],
    "zero-denominator": ["1/0", "2/1"],
}


def test_beta_interval_edits_start_from_the_fixture():
    assert _fixture("fibonacci")["facts"]["beta_interval"] == \
        ["1696631/1048576", "212079/131072"]


@pytest.mark.parametrize("edit", BETA_INTERVAL_EDITS)
def test_verify_fails_tampered_beta_interval(edit):
    untampered = cli.verify_report(_fixture("fibonacci"))
    report = _fixture("fibonacci")
    report["facts"]["beta_interval"] = BETA_INTERVAL_EDITS[edit]
    assert cli.verify_report(report) == {"passed": False, "replayed": dict(
        untampered["replayed"], facts=False)}


def test_verify_accepts_the_point_of_an_integer_beta():
    report = report_for("thue-morse")
    assert report["facts"]["beta_interval"] == ["2/1", "2/1"]
    assert cli.verify_report(report)["replayed"]["facts"] is True
    report["facts"]["beta_interval"] = ["3/1", "3/1"]
    assert cli.verify_report(report)["replayed"]["facts"] is False


# -- the setup facts: checked by SuspensionSystem.from_facts, never rebuilt ---


def _negate_a_coordinate(facts):
    lengths = [list(length) for length in facts["prototile_lengths"]]
    lengths[1][1] = str(-Fraction(lengths[1][1]))
    return lengths


# (fixture, fact, edit of the fact's value, the error it ends the replay with)
SETUP_FACT_EDITS = {
    "reducible-minimal-polynomial": (
        "fib2", "minimal_polynomial",
        lambda facts: facts["characteristic_polynomial"], "reducible"),
    "no-real-root": ("fib2", "minimal_polynomial", lambda facts: [1, -1, 1],
                     "no real root"),
    "not-the-perron-root": ("rauzy2-left", "minimal_polynomial",
                            lambda facts: [-1, 1],
                            "its largest root is not the Perron root"),
    "lengths-doubled": (
        "fib2", "prototile_lengths",
        lambda facts: [[str(2 * Fraction(c)) for c in length]
                       for length in facts["prototile_lengths"]],
        "the last is not 1"),
    "coordinate-negated": ("rauzy2-left", "prototile_lengths",
                           _negate_a_coordinate, "not a beta-eigenvector"),
}


@pytest.mark.parametrize("edit", SETUP_FACT_EDITS)
def test_verify_ends_at_a_rejected_setup_fact(tmp_path, edit):
    name, fact, change, message = SETUP_FACT_EDITS[edit]
    report = _fixture(name)
    edited = change(report["facts"])
    assert edited != report["facts"][fact]
    report["facts"][fact] = edited
    assert cli.verify_report(report) == {
        "passed": False, "replayed": {"facts": False},
        "error": f"facts: {fact}: {message}"}
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


# fibonacci's facts with a float or a bool for an int: equal in Python,
# not in JSON
JSON_TYPE_EDITS = {
    "characteristic_polynomial": [-1.0, -1, True],
    "minimal_polynomial": [-1, -1, 1.0],
    "substitution_matrix": [[1.0, True], [1, 0.0]],
}


@pytest.mark.parametrize("fact", JSON_TYPE_EDITS)
def test_verify_fails_a_fact_of_another_json_type(fact):
    report = _fixture("fibonacci")
    assert report["facts"][fact] == JSON_TYPE_EDITS[fact]
    report["facts"][fact] = JSON_TYPE_EDITS[fact]
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["facts"] is False
    assert outcome["passed"] is False


def test_verify_checks_the_setup_without_rebuilding_it(monkeypatch):
    # with the solving setup disabled, every fixture replays to its pinned
    # output, and only its minimal polynomial is factored, once
    from test_pinned_outputs import VERIFY, _sha256

    def disabled(*args):
        raise AssertionError("verify rebuilt the setup")

    monkeypatch.setattr(algebraic, "perron_factor", disabled)
    monkeypatch.setattr(suspension, "prototile_lengths", disabled)
    factored = []
    factor_monic = polys.factor_monic
    monkeypatch.setattr(polys, "factor_monic",
                        lambda p: factored.append(p) or factor_monic(p))
    for name in FIXTURE_NAMES:
        report = _fixture(name)
        factored.clear()
        outcome = cli.verify_report(report)
        assert _sha256(json.dumps(outcome, indent=2, sort_keys=True)) == \
            VERIFY[name], name
        assert factored == [report["facts"]["minimal_polynomial"]], name


def test_a_check_that_raised_is_not_run_for_verify(monkeypatch):
    # a pair check and a whole-tiling check that raised get one answer
    def forced(*args, **kwargs):
        raise LengthCapExceeded("forced")

    outcomes = []
    for check in ("prefix_strong", "simultaneous"):
        with monkeypatch.context() as patch:
            patch.setattr(coincidence, check, forced)
            report = cli.run_analysis(cli.corpus_lookup("fibonacci"))
        assert report["checks"][check] == {"error": "forced"}
        outcomes.append(cli.verify_report(report))
    assert [outcome["passed"] for outcome in outcomes] == [True, True]
    for outcome in outcomes:
        assert all(outcome["replayed"].values()), outcome
    # an error beside other keys is still judged
    report = _fixture("fibonacci")
    report["checks"]["prefix_strong"]["error"] = "forced"
    assert cli.verify_report(report)["passed"] is True
    del report["checks"]["prefix_strong"]["pairs"]
    outcome = cli.verify_report(report)
    assert outcome["replayed"]["prefix_strong"] is False
    assert outcome["passed"] is False


# -- the reports of the error paths -------------------------------------------


def test_report_of_a_substitution_that_is_not_primitive():
    spec = cli.parse_spec("letters a b\nrule a = a\nrule b = a b\n")
    report = cli.run_analysis(spec)
    assert report["facts"]["primitive"] is False
    assert report["checks"] == {
        "error": "substitution is not primitive; no suspension"}
    assert report["cost"] == {}
    assert "spectral" not in report["checks"]


def test_a_substitution_that_is_not_primitive_of_any_degree_is_factored():
    # the primitive 13-letter cycle of x^13 - x^12 - 1 beside n -> n n:
    # the characteristic polynomial has degree 14, above the cap on
    # factors mod p, and two factors over Z
    letters = "abcdefghijklm"
    rules = "".join(f"rule {x} = {y}\n" for x, y in zip(letters[1:],
                                                        letters[2:]))
    spec = cli.parse_spec(
        "letters " + " ".join(letters) + " n\nrule a = a b\n" + rules +
        "rule m = a\nrule n = n n\n", name="fourteen")
    report = cli.run_analysis(spec)
    facts = report["facts"]
    assert facts["primitive"] is False
    assert polys.degree(facts["characteristic_polynomial"]) == 14
    assert facts["characteristic_irreducible"] is False
    assert report["checks"] == {
        "error": "substitution is not primitive; no suspension"}


def test_report_of_a_setup_that_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(polys, "DEGREE_CAP", 1)
    path = tmp_path / "twelve.spec"
    path.write_text(TWELVE_LETTERS)
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2
    assert "Traceback" not in err
    report = json.loads(out)
    message = "4 factors modulo 3 exceed cap 1"
    assert report["facts"]["primitive"] is True
    assert report["facts"]["characteristic_polynomial"] == polys.mul(
        [-1, 0, 0, 0, 0, -1, 1], [1, 0, 0, 0, 0, -1, 1])
    assert report["facts"]["characteristic_irreducible"] == {
        "error": message}
    assert report["checks"] == {"error": f"no suspension: {message}"}
    assert report["cost"] == {}
    assert cli.derive(report) == [(("facts", "primitive"), True)]


@pytest.mark.parametrize("text, minimal_polynomial, irreducible", [
    (SIX_LETTERS, [20, 31, -5, -20, -12, -1, 1], True),
    (TWELVE_LETTERS, [-1, 0, 0, 0, 0, -1, 1], False),
], ids=["six-letters", "twelve-letters"])
def test_inputs_reducible_modulo_every_prime_get_a_field(
        text, minimal_polynomial, irreducible):
    report = cli.run_analysis(cli.parse_spec(text), overrides={
        "level_bound": 4, "window": 16, "node_cap": 200})
    facts = report["facts"]
    assert facts["minimal_polynomial"] == minimal_polynomial
    assert facts["characteristic_irreducible"] is irreducible
    assert "error" not in report["checks"]
    assert cli.verify_report(report)["passed"] is True


def test_primitive_input_above_the_degree_cap_is_irreducible():
    # a -> ab, b -> c, ..., l -> m, m -> a: x^13 - x^12 - 1 is irreducible
    letters = "abcdefghijklm"
    rules = [f"rule {x} = {y}\n" for x, y in zip(letters[1:], letters[2:])]
    spec = cli.parse_spec(
        "letters " + " ".join(letters) + "\nrule a = a b\n" +
        "".join(rules) + "rule m = a\n", name="thirteen")
    assert polys.degree(algebraic.char_poly(
        cli.words.substitution_matrix(spec.substitution()))) > \
        polys.DEGREE_CAP
    report = cli.run_analysis(spec, overrides={
        "level_bound": 4, "window": 16, "node_cap": 200})
    facts = report["facts"]
    assert facts["characteristic_polynomial"] == facts["minimal_polynomial"]
    assert facts["characteristic_irreducible"] is True
    assert cli.verify_report(report)["replayed"]["facts"] is True


def test_analysis_of_a_primitive_input_factors_once(monkeypatch):
    # the suspension's setup factors the characteristic polynomial, and
    # derive reads characteristic_irreducible off the minimal polynomial
    calls = []
    factor_monic = polys.factor_monic

    def counted(p):
        calls.append(p)
        return factor_monic(p)

    monkeypatch.setattr(polys, "factor_monic", counted)
    for name in ("fibonacci", "fib2", "thue-morse"):
        calls.clear()
        report = cli.run_analysis(cli.corpus_lookup(name))
        assert len(calls) == 1, name
        assert calls[0] == report["facts"]["characteristic_polynomial"]


def test_report_of_an_overlap_check_that_raises(monkeypatch):
    def raises(*args, **kwargs):
        raise SubtilingError("overlap closure failed")

    monkeypatch.setattr(spectrum, "overlap_coincidence", raises)
    report = cli.run_analysis(cli.corpus_lookup("fibonacci"))
    checks = report["checks"]
    assert checks["overlap_coincidence"] == {"error": "overlap closure failed"}
    assert checks["spectral"] == {"status": "UNKNOWN",
                                  "agreement": "not-applicable",
                                  "disagreement_detected": False}
    assert list(report["cost"]) == ["balanced_pairs", "seed_power"]
    assert report["cost"] == {"balanced_pairs": 3, "seed_power": 2}
    assert cli.verify_report(report)["passed"] is True


def test_a_check_that_raises_a_value_error_is_recorded_in_place(
        monkeypatch):
    def raises(*args, **kwargs):
        raise ValueError("no height")

    # the eventual return check reads the height group's lattices, so it
    # records the same error; every other check runs clean
    monkeypatch.setattr(cli.lattices, "height_group", raises)
    checks = cli.run_analysis(cli.corpus_lookup("fibonacci"))["checks"]
    readers = ("height_group", "eventual_return_module")
    for name in readers:
        assert checks[name] == {"error": "ValueError: no height"}
    assert list(checks) == [*cli.CHECKS, "spectral"]
    assert all("error" not in checks[name] for name in cli.CHECKS
               if name not in readers)


def test_a_substitution_that_is_not_primitive_and_not_factored(monkeypatch):
    def raises(p):
        raise SubtilingError("no factors")

    monkeypatch.setattr(polys, "factor_monic", raises)
    spec = cli.parse_spec("letters a b\nrule a = a\nrule b = a b\n")
    report = cli.run_analysis(spec)
    assert report["facts"]["characteristic_irreducible"] == {
        "error": "no factors"}
    assert report["checks"] == {
        "error": "substitution is not primitive; no suspension"}


def test_an_override_that_names_no_bound_raises():
    with pytest.raises(KeyError):
        cli.run_analysis(cli.corpus_lookup("fibonacci"),
                         overrides={"Lmax": 3})


# -- the derived leaves: analyze writes them, verify compares them ------------


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def _as_json(value):
    """JSON text, so that a bool is not a number; cli.ABSENT stays."""
    return value if value is cli.ABSENT else json.dumps(value, sort_keys=True)


def _edits(path, value):
    """(path, value) for each JSON leaf under a derived leaf, changed to
    another value of its type; None becomes 0 and an absent flag true."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _edits(path + (key,), item)
    elif isinstance(value, list):
        yield path, value + [7]
    elif value is cli.ABSENT or value is None:
        yield path, True if value is cli.ABSENT else 0
    elif isinstance(value, bool):
        yield path, not value
    else:
        yield path, value + (1 if isinstance(value, int) else "x")


# every derived leaf of a report in which no check raised
DERIVED_PATHS = [tuple(path.split(".")) for path in (
    "facts.primitive", "facts.characteristic_irreducible",
    "checks.prefix_strong.aggregate", "checks.suffix_strong.aggregate",
    "checks.geometric_strong.aggregate", "checks.geometric_strong.admissible",
    "checks.height_group.status", "checks.height_group.group",
    "checks.height_group.cross_lattice.rank",
    "checks.height_group.samecolor_lattice.rank",
    "checks.eventual_return_module.status",
    "checks.eventual_return_module.max_power",
    "checks.eventual_return_module.bound", "checks.balanced_pairs.advisory",
    "checks.spectral", "cost.overlap_classes", "cost.balanced_pairs",
    "cost.seed_power")]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_derive_reproduces_every_fixture(name):
    report = _fixture(name)
    derived = cli.derive(report)
    assert [path for path, _ in derived] == DERIVED_PATHS
    for path, value in derived:
        node = report
        for key in path[:-1]:
            node = node[key]
        assert _as_json(node.get(path[-1], cli.ABSENT)) == _as_json(value)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_verify_fails_every_tampered_derived_leaf(name):
    # the outcome is the untampered one with only the facts replay failed
    untampered = cli.verify_report(_fixture(name))
    assert untampered["passed"]
    expected = {"passed": False,
                "replayed": dict(untampered["replayed"], facts=False)}
    edits = [edit for path, value in cli.derive(_fixture(name))
             for edit in _edits(path, value)]
    assert len(edits) >= 20
    for path, value in edits:
        report = _fixture(name)
        _put(report, path, value)
        assert cli.verify_report(report) == expected, (path, value)
