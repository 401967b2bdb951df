import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from subtiling import algebraic, cli, suspension
from subtiling.errors import (LengthCapExceeded, SpecSyntaxError,
                              UnknownCorpusEntry)

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


def _fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


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


@pytest.mark.parametrize("field_name, value", [
    ("color", "z"), ("replay_color", "z"), ("scope", ["a", "z"]),
    ("replay_shift", ["1/1", "0/1", "3/1"]), ("shift", ["1/0"])])
def test_verify_fails_witness_that_does_not_parse(tmp_path, field_name,
                                                  value):
    report = _fixture("fibonacci")
    report["checks"]["simultaneous"]["witness"][field_name] = value
    assert cli.verify_report(report)["replayed"]["simultaneous"] is False
    code, out, err = _verify_file(tmp_path, report)
    assert code == 1 and json.loads(out)["passed"] is False
    assert "Traceback" not in err


def _witness(report, check):
    if check == "simultaneous":
        return report["checks"]["simultaneous"]["witness"]
    return report["checks"]["geometric_strong"]["pairs"]["a|b"]["witness"]


# fibonacci's seed power is 2; both witnesses sit at level 1, replay level 2.
# Replaying at level 60 would grow patches past the word cap for minutes;
# |sigma^60(a)| is far above the supertile cap, so analysis never searches
# level 60.  A replay shift of 10^5 would need a patch of about 10^5 tiles.
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


# -- no HOLDS from an empty sample ------------------------------------------


@pytest.mark.parametrize("name", ["rauzy2-left", "thue-morse", "fib2"])
def test_window_without_returns_is_unknown(name):
    # a window of one tile length holds no two points of one color: the
    # overlap closure has no seed and the return module no sample
    report = cli.run_analysis(cli.corpus_lookup(name), {"window": 1})
    overlap = report["checks"]["overlap_coincidence"]
    assert overlap["status"] == "UNKNOWN"
    assert overlap["bound_hit"].startswith("window [")
    assert "total_classes" not in overlap["certificate"]
    returns = report["checks"]["eventual_return_module"]
    assert returns["status"] == "UNKNOWN"
    assert returns["bound_hit"] == "window 1"
    assert report["checks"]["spectral"]["status"] == "UNKNOWN"
    assert cli.report_exit_code(report) == 2


# -- tampered witnesses on the index lookup ---------------------------------


# rauzy2-gamma witnesses: the simultaneous one at level 3, and the pairs
# a|b (level 1, nonzero replay shift) and a|c (level 3)
TAMPERED_WITNESSES = ("simultaneous", "a|b", "a|c")


def _one_witness_report(key, **tamper):
    """The rauzy2-gamma fixture with only one witness left to replay, its
    fields updated by `tamper`."""
    report = _fixture("rauzy2-gamma")
    checks = report["checks"]
    if key == "simultaneous":
        witness = checks["simultaneous"]["witness"]
        report["checks"] = {"simultaneous": checks["simultaneous"]}
    else:
        pair = checks["geometric_strong"]["pairs"][key]
        witness = pair["witness"]
        report["checks"] = {"geometric_strong": {"pairs": {key: pair}}}
    witness.update(tamper)
    return report, witness


@pytest.mark.parametrize("key", TAMPERED_WITNESSES)
def test_verify_fails_witness_with_another_replay_color(key):
    report, witness = _one_witness_report(key)
    assert cli.verify_report(report)["passed"]
    for letter in report["input"]["letters"]:
        if letter != witness["replay_color"]:
            tampered, _ = _one_witness_report(key, replay_color=letter)
            assert not cli.verify_report(tampered)["passed"], letter


@pytest.mark.parametrize("key", TAMPERED_WITNESSES)
def test_verify_fails_witness_shifted_by_a_tile_length(key):
    report, witness = _one_witness_report(key)
    for length in report["facts"]["prototile_lengths"]:
        for sign in (1, -1):
            moved = [str(Fraction(c) + sign * Fraction(d))
                     for c, d in zip(witness["replay_shift"], length)]
            tampered, _ = _one_witness_report(key, replay_shift=moved)
            assert not cli.verify_report(tampered)["passed"], (length, sign)


# -- a deterministic work guard for witness replay --------------------------


def test_pentanacci_replay_builds_each_patch_once(monkeypatch):
    # verify replays 16 witnesses on two fixed-point patches; each is
    # built once, and the pruned point sets leave few certified signs
    builds, signs = [], []
    build = suspension.SuspensionSystem.patch_from_word
    sign = algebraic.FieldElem.sign
    monkeypatch.setattr(
        suspension.SuspensionSystem, "patch_from_word",
        lambda self, word, start: builds.append((word, start.coords))
        or build(self, word, start))
    monkeypatch.setattr(algebraic.FieldElem, "sign",
                        lambda self: signs.append(1) or sign(self))
    outcome = cli.verify_report(_fixture("pentanacci"))
    assert outcome["passed"] and len(outcome["replayed"]) == 16
    assert len(builds) == len(set(builds)) == 2
    assert len(signs) <= 200


# -- a deterministic work guard for the exact sign route ----------------------


def test_nonpisot_signs_and_bisection_run_on_integers(monkeypatch):
    # the undecided signs of the non-Pisot input (a conjugate outside the
    # unit disk grows its coordinates) are decided by integer Horner and
    # integer bisection; a RatInterval is made only at the boundary
    intervals, refinements = [], []
    init = algebraic.RatInterval.__init__
    refine = algebraic.NumberField._refine_once
    monkeypatch.setattr(
        algebraic.RatInterval, "__init__",
        lambda self, lo, hi: intervals.append(1) or init(self, lo, hi))
    monkeypatch.setattr(algebraic.NumberField, "_refine_once",
                        lambda self: refinements.append(1) or refine(self))
    text = (PERFBENCH / "specs" / "nonpisot.spec").read_text(encoding="utf-8")
    cli.run_analysis(cli.parse_spec(text, name="nonpisot"),
                     overrides=SPEC_BOUNDS)
    assert len(refinements) == 338
    assert len(intervals) <= 16
