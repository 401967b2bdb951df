"""Plain-text substitution specs, the built-in corpus, full analysis runs,
and JSON report emission.

Spec grammar (line oriented, # starts a comment):

    letters <tok> <tok> ...       # 2 to 255 letters
    rule <tok> = <tok> <tok> ...
    tilemap <tok> -> <index>      # 1-based subtile choice, optional
    bound L <int>                 # coincidence level bound
    bound window <int>            # overlap-seed window in tile lengths

Reports are a single JSON document with every exact rational serialized
as "p/q" and every field element as a coordinate array.  Reports are
byte-stable across runs: the cost section contains deterministic work
counters, never wall-clock times (those go to stderr).
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from . import (algebraic, coincidence, lattices, polys, spectrum,
               suspension, words)
from .errors import (
    FactRejected,
    InvalidBound,
    SpecSyntaxError,
    SubtilingError,
    UnknownCorpusEntry,
)


# Largest window, in tile lengths, and level bound that analyze accepts
# and verify replays; verify replays no witness above its report's L.
WINDOW_CAP = 1024
LEVEL_CAP = 1024

# The report's beta_interval is at most 2^-BETA_WIDTH_BITS wide.
BETA_WIDTH_BITS = 20

# A bound of a report: its key in the report and in a spec line; its name
# as a run_analysis override and as its flag's dest; its flag; whether a
# spec line may set it; and its default.  One with no flag is fixed at its
# default, the constant of the module that enforces it.
Bound = collections.namedtuple("Bound", "key override flag spec_line default")

# The bounds, in report order.
BOUNDS = (
    Bound("L", "level_bound", "--Lmax", True, coincidence.DEFAULT_LEVEL_BOUND),
    Bound("window", "window", "--window", True, 64),
    Bound("k", None, None, False, lattices.POWER_BOUND),
    Bound("node_cap", "node_cap", "--node-cap", False,
          spectrum.DEFAULT_NODE_CAP),
    Bound("pair_cap", None, None, False, spectrum.PAIR_CAP),
    Bound("iter_cap", None, None, False, spectrum.ITER_CAP),
)


@dataclass
class SpecFile:
    name: str
    letters: tuple            # user-facing tokens in declaration order
    rules: tuple              # token tuples, one per letter
    tilemap: tuple | None     # 1-based subtile indices, or None
    bounds: dict = field(default_factory=dict)
    note: str = ""

    def substitution(self) -> words.Substitution:
        index = {tok: i + 1 for i, tok in enumerate(self.letters)}
        rules = [bytes(index[t] for t in rule) for rule in self.rules]
        return words.Substitution(rules)

    def token(self, letter: int) -> str:
        return self.letters[letter - 1]


def parse_spec(text: str, name: str = "spec") -> SpecFile:
    letters = None
    rules = {}
    tilemap = {}
    bounds = {}
    spec_keys = [bound.key for bound in BOUNDS if bound.spec_line]
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "letters":
            if letters is not None:
                raise SpecSyntaxError(line_no, "duplicate letters line")
            if len(parts) < 3:
                raise SpecSyntaxError(line_no, "need at least two letters")
            if len(parts) > 256:    # a letter is one byte, 0 excluded
                raise SpecSyntaxError(line_no, "more than 255 letters")
            if len(set(parts[1:])) != len(parts[1:]):
                raise SpecSyntaxError(line_no, "repeated letter token")
            if any("|" in tok for tok in parts[1:]):
                raise SpecSyntaxError(line_no, "'|' in a letter token")
            letters = tuple(parts[1:])
        elif head in ("rule", "tilemap"):
            if letters is None:
                raise SpecSyntaxError(line_no, f"{head} before letters line")
            if head == "rule" and (len(parts) < 4 or parts[2] != "="):
                raise SpecSyntaxError(line_no, "expected: rule <tok> = <tok>...")
            if head == "tilemap" and (len(parts) != 4 or parts[2] != "->"):
                raise SpecSyntaxError(line_no, "expected: tilemap <tok> -> <index>")
            tok, seen = parts[1], rules if head == "rule" else tilemap
            if tok not in letters:
                raise SpecSyntaxError(line_no, f"unknown letter {tok!r}")
            if tok in seen:
                raise SpecSyntaxError(line_no, f"duplicate {head} for {tok!r}")
            if head == "rule":
                for t in parts[3:]:
                    if t not in letters:
                        raise SpecSyntaxError(line_no, f"unknown letter {t!r}")
                rules[tok] = tuple(parts[3:])
            else:
                try:
                    tilemap[tok] = int(parts[3])
                except ValueError:
                    raise SpecSyntaxError(
                        line_no, "tile map index must be an integer")
        elif head == "bound":
            if len(parts) != 3 or parts[1] not in spec_keys:
                raise SpecSyntaxError(
                    line_no, f"expected: bound {'|'.join(spec_keys)} <int>")
            if parts[1] in bounds:
                raise SpecSyntaxError(line_no, f"duplicate bound {parts[1]}")
            try:
                bounds[parts[1]] = int(parts[2])
            except ValueError:
                raise SpecSyntaxError(line_no, "bound value must be an integer")
        else:
            raise SpecSyntaxError(line_no, f"unknown directive {head!r}")
    if letters is None:
        raise SpecSyntaxError(0, "missing letters line")
    missing = [t for t in letters if t not in rules]
    if missing:
        raise SpecSyntaxError(0, f"missing rule for {missing[0]!r}")
    tm = None
    if tilemap:
        missing_tm = [t for t in letters if t not in tilemap]
        if missing_tm:
            raise SpecSyntaxError(
                0, f"tile map incomplete: missing {missing_tm[0]!r}"
            )
        tm = tuple(tilemap[t] for t in letters)
        for tok, idx in zip(letters, tm):
            if not 1 <= idx <= len(rules[tok]):
                raise SpecSyntaxError(
                    0, f"tile map index {idx} outside rule of {tok!r}"
                )
    return SpecFile(name, letters, tuple(rules[t] for t in letters), tm,
                    bounds)


# ---------------------------------------------------------------------------
# Built-in corpus
# ---------------------------------------------------------------------------

_CORPUS_TEXTS = {
    "thue-morse": (
        "letters 0 1\n"
        "rule 0 = 0 1\n"
        "rule 1 = 1 0\n",
        "constant-length two-letter system with singular continuous part",
    ),
    "fibonacci": (
        "letters a b\n"
        "rule a = a b\n"
        "rule b = a\n",
        "golden-mean system, irreducible Pisot",
    ),
    "aba-left": (
        "letters a b\n"
        "rule a = a b a\n"
        "rule b = b a b\n",
        "periodic fixed point, reference points at left endpoints",
    ),
    "aba-gamma": (
        "letters a b\n"
        "rule a = a b a\n"
        "rule b = b a b\n"
        "tilemap a -> 2\n"
        "tilemap b -> 1\n",
        "same rules with control points from the subtile map",
    ),
    "fib2": (
        "letters a b A B\n"
        "rule a = a B\n"
        "rule b = a\n"
        "rule A = A b\n"
        "rule B = A\n",
        "two-to-one extension of fibonacci; case swap commutes with the rules",
    ),
    "rauzy": (
        "letters a b c\n"
        "rule a = a b\n"
        "rule b = a c\n"
        "rule c = a\n",
        "tribonacci system, irreducible Pisot",
    ),
    "rauzy2-left": (
        "letters a b c A B C\n"
        "rule a = a B\n"
        "rule b = a C\n"
        "rule c = a\n"
        "rule A = A b\n"
        "rule B = A c\n"
        "rule C = A\n",
        "two-to-one extension of rauzy, left endpoints",
    ),
    "rauzy2-gamma": (
        "letters a b c A B C\n"
        "rule a = a B\n"
        "rule b = a C\n"
        "rule c = a\n"
        "rule A = A b\n"
        "rule B = A c\n"
        "rule C = A\n"
        "tilemap a -> 2\n"   # the B inside the image of a
        "tilemap b -> 2\n"   # the C inside the image of b
        "tilemap c -> 1\n"   # the single a
        "tilemap A -> 1\n"   # capital letters all pick their leading A
        "tilemap B -> 1\n"
        "tilemap C -> 1\n",
        "same rules with the subtile map sending every capital to its"
        " leading A and each lowercase to its capital subtile",
    ),
}


def corpus():
    """Built-in named substitution specs, in a fixed order."""
    return [corpus_lookup(name) for name in _CORPUS_TEXTS]


def corpus_lookup(name: str) -> SpecFile:
    if name not in _CORPUS_TEXTS:
        raise UnknownCorpusEntry(
            f"no corpus entry {name!r}; try: " + ", ".join(_CORPUS_TEXTS)
        )
    text, note = _CORPUS_TEXTS[name]
    spec = parse_spec(text, name=name)
    spec.note = note
    return spec


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _pair_key(spec: SpecFile, pair) -> str:
    return f"{spec.token(pair[0])}|{spec.token(pair[1])}"


def _geometric_witness_json(spec, w: coincidence.CoincidenceWitness):
    return {
        "level": w.level,
        "color": spec.token(w.color),
        "shift": spectrum.format_shift(w.shift, w.denom),
        "scope": ("all" if w.scope is None
                  else [spec.token(c) for c in w.scope]),
        "replay_level": w.replay_level,
        "replay_color": spec.token(w.replay_color),
        "replay_shift": spectrum.format_shift(w.replay_shift, w.denom),
    }


def _prefix_witness_json(spec, w: coincidence.PrefixWitness):
    return {
        "level": w.level,
        "letter": spec.token(w.color),
        "prefix_lengths": [w.prefix_length] * 2,      # one per letter
        "prefix_counts": list(w.counts),
    }


def _prefix_simultaneous_witness_json(spec, w: dict):
    return {**w, "final_letter": spec.token(w["final_letter"]),
            "counts": list(w["counts"])}


def _verdict_json(spec, verdict, witness_encoder):
    out = {"status": verdict.status}
    if verdict.status == "HOLDS" and verdict.witness is not None:
        out["witness"] = witness_encoder(spec, verdict.witness)
    if verdict.status == "FAILS":
        out["certificate"] = verdict.certificate
    if verdict.status == "UNKNOWN":
        out["bound"] = verdict.bound
        if verdict.bound_hit:
            out["bound_hit"] = verdict.bound_hit
    return out


def _pairs_json(spec, per_pair, witness_encoder):
    return {"pairs": {
        _pair_key(spec, p): _verdict_json(spec, v, witness_encoder)
        for p, v in sorted(per_pair.items())}}


def _half_json(half: spectrum.SpectralHalf, **derived):
    """A spectral half's entry, with placeholders for derive's keys."""
    out = {"status": half.status, "certificate": half.certificate, **derived}
    if half.bound_hit:
        out["bound_hit"] = half.bound_hit
    return out


def _height_json(res: lattices.HeightGroupResult) -> dict:
    """The height group's entry, with placeholders for derive's keys."""
    return {
        "status": None, "group": None,
        "stabilized_at_window": res.stabilized_at,
        "windows": list(lattices.WINDOW_SCHEDULE),
        "cross_lattice": res.sup.describe(),
        "samecolor_lattice": res.sub.describe(),
    }


def _return_json(res: lattices.ReturnModuleResult) -> dict:
    """Eventual return's entry, with placeholders for derive's keys."""
    out = {
        "status": None, "max_power": None, "bound": None,
        "generators": [spectrum.format_shift(row, res.sup.denom)
                       for row in res.sup.basis],
        "powers": list(res.witnesses),
    }
    if res.bound_hit:
        out["bound_hit"] = res.bound_hit
    return out


def _replay_involution(walk, certificate, letters):
    """Replay the involution certificate of a word check's FAILS;
    reversing the rules keeps every condition on an involution, so the
    suffix check replays the same certificate."""
    return coincidence.replay_involution_certificate(walk.system.sub,
                                                     certificate, letters)


def _irreducible(facts) -> bool:
    """Whether the characteristic polynomial is the minimal polynomial."""
    return facts["characteristic_polynomial"] == facts["minimal_polynomial"]


def _advisory(facts) -> bool:
    """Whether the balanced-pair half is advisory: the input is not
    irreducible Pisot, the scope in which balanced pairs decide pure
    discreteness.  `derive` and the run of balanced pairs both ask."""
    return not (facts["pisot"] and _irreducible(facts))


def _height_group(report) -> lattices.HeightGroupResult:
    """The height group as the report's entry holds it, for `derive` and
    eventual return; an entry that holds an error raises it again."""
    height = report["checks"]["height_group"]
    if "error" in height:
        raise SubtilingError(height["error"])
    width = len(report["facts"]["minimal_polynomial"]) - 1
    return lattices.HeightGroupResult(height["stabilized_at_window"], *(
        lattices.ZModule(height[key]["denominator"],
                         tuple(map(tuple, height[key]["basis"])), width)
        for key in ("cross_lattice", "samecolor_lattice")))


# A check of a report.  As `run_analysis` runs it: its name; its run,
# called with (sub, walk, bounds, report), the report so far, with its
# facts, and its one `coincidence.Walk`; and how its entry is written,
# the witness encoder of `_pairs_json` or `_verdict_json` for a row with
# `pairs` or `holds` set, else the encoder of the whole entry.
# As `verify_report` judges its claims: whether it holds one verdict per
# letter pair; how a HOLDS is judged, "word", "tile" or None; and what
# replays a FAILS certificate, called with the report's walk, the
# certificate and the claim's letters.  A check with such a replay has its
# claims judged, each with a status of STATUSES; one with None has nothing
# to judge beyond `derive`.  A run looks its function up in its module
# when it is called, so that a wrapper set there is the one that runs.
Check = collections.namedtuple(
    "Check", "name run encode pairs holds fails",
    defaults=(False, None, None))
STATUSES = ("HOLDS", "FAILS", "UNKNOWN")


# The checks of a report, in the order analyze runs them; a report also
# holds the combined "spectral" verdict of the last two.  Eventual return
# reads the height group's entry, so the window sizes the overlap seeds
# only.  The overlap closure is finite when beta is Pisot, and runs on
# Pisot inputs only; any other input gets the UNKNOWN "not Pisot".
CHECK_TABLE = (
    Check("prefix_strong",
          lambda sub, walk, bounds, report:
          coincidence.prefix_strong(sub, bounds["L"]),
          _prefix_witness_json, True, "word", _replay_involution),
    Check("suffix_strong",
          lambda sub, walk, bounds, report:
          coincidence.prefix_strong(sub, bounds["L"], suffixes=True),
          _prefix_witness_json, True, "word", _replay_involution),
    Check("geometric_strong",
          lambda sub, walk, bounds, report:
          coincidence.geometric_strong(walk, bounds["L"], bounds["node_cap"]),
          _geometric_witness_json, True, "tile",
          coincidence.replay_walk_certificate),
    Check("simultaneous",
          lambda sub, walk, bounds, report:
          coincidence.simultaneous(walk, bounds["L"], bounds["node_cap"]),
          _geometric_witness_json, False, "tile",
          coincidence.replay_walk_certificate),
    Check("prefix_simultaneous",
          lambda sub, walk, bounds, report:
          coincidence.prefix_simultaneous(sub, bounds["L"]),
          _prefix_simultaneous_witness_json, False, "word",
          _replay_involution),
    Check("height_group",
          lambda sub, walk, bounds, report:
          lattices.height_group(walk.system, walk.refpoints),
          _height_json),
    Check("eventual_return_module",
          lambda sub, walk, bounds, report:
          lattices.differences_in_return_module(walk.system,
                                                _height_group(report)),
          _return_json),
    Check("overlap_coincidence",
          lambda sub, walk, bounds, report:
          spectrum.overlap_coincidence(
              walk, walk.system.window(bounds["window"]), bounds["node_cap"])
          if report["facts"]["pisot"]
          else spectrum.SpectralHalf("UNKNOWN", bound_hit="not Pisot"),
          _half_json, False, None,
          lambda walk, certificate, _:
          spectrum.replay_overlap_certificate(walk, certificate)),
    Check("balanced_pairs",
          lambda sub, walk, bounds, report:
          spectrum.balanced_pairs(sub, advisory=_advisory(report["facts"])),
          lambda half: _half_json(half, advisory=None), False, None,
          lambda walk, certificate, _:
          spectrum.replay_balanced_certificate(walk.system.sub, certificate)),
)
CHECKS = tuple(check.name for check in CHECK_TABLE)


def _core_facts(spec: SpecFile, system, refpoints, kind) -> dict:
    """The facts a SuspensionSystem and its reference points fix, as the
    report writes them; `verify` compares a report's facts to these."""
    k, left, right = system.seed
    vectors, denom = refpoints
    lengths, length_denom = system.lengths
    return {
        "substitution_matrix": [list(r) for r in system.matrix],
        "characteristic_polynomial": system.char_poly,
        "minimal_polynomial": list(system.field.minpoly),
        "prototile_lengths": [spectrum.format_shift(v, length_denom)
                              for v in lengths],
        "fixed_point_seed": {
            "power": k, "left": spec.token(left), "right": spec.token(right),
        },
        "reference_point_kind": kind,
        "reference_points": [spectrum.format_shift(v, denom)
                             for v in vectors],
        "admissible": suspension.is_admissible(system, refpoints),
    }


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------


def _reference_points(system, spec: SpecFile):
    """The spec's reference points and their kind: control points of its
    tile map, or the left endpoints."""
    if spec.tilemap is not None:
        return suspension.control_points(system, spec.tilemap), "tile-map"
    return suspension.left_endpoint_points(system), "left-endpoints"


def _check_bounds(bounds: dict):
    """Raise InvalidBound unless the bounds are the keys of BOUNDS in
    order, each an int at least 0, the window in [1, WINDOW_CAP], L at
    most LEVEL_CAP and a bound with no flag its default."""
    keys = [bound.key for bound in BOUNDS]
    if list(bounds) != keys:
        raise InvalidBound(f"bounds {list(bounds)} are not {keys}")
    for key, _, flag, _, default in BOUNDS:
        value = bounds[key]
        if key == "window" and (type(value) is not int
                                or not 1 <= value <= WINDOW_CAP):
            raise InvalidBound(
                f"window {value!r} is not an integer in [1, {WINDOW_CAP}]")
        if type(value) is not int or value < 0:
            raise InvalidBound(
                f"bound {key} {value!r} is not a non-negative integer")
        if key == "L" and value > LEVEL_CAP:
            raise InvalidBound(f"bound L {value} is above {LEVEL_CAP}")
        if flag is None and value != default:
            raise InvalidBound(f"bound {key} {value} is not {default}")


def run_analysis(spec: SpecFile, overrides: dict | None = None) -> dict:
    """Execute every check of CHECK_TABLE on one substitution spec and
    build the report.

    Each bound is its BOUNDS default, unless a bound line of the spec file
    sets it; explicit overrides (command-line flags), keyed by the rows'
    `override` names, win over both, and a name that no row has raises
    KeyError.  A check that raises records its error in place; later
    checks still run.  Bounds that _check_bounds rejects raise
    InvalidBound before any check runs.

    For a substitution that is not primitive, `characteristic_irreducible`
    is whether `polys.factor_monic` finds one factor of the characteristic
    polynomial; for a primitive one `derive` compares it with the minimal
    polynomial, which the suspension's setup factors out.  A setup that
    raises a SubtilingError, such as too many factors mod a prime
    (`polys.DEGREE_CAP`), ends the report with its message as
    `characteristic_irreducible.error` and `checks.error`.
    """
    key_of = {bound.override: bound.key for bound in BOUNDS if bound.flag}
    bounds = {key: spec.bounds.get(key, default)
              for key, *_, default in BOUNDS}
    bounds.update({key_of[name]: value
                   for name, value in (overrides or {}).items()})
    _check_bounds(bounds)
    report = {
        "schema": 1,
        "tool": {"name": "subtiling", "version": __version__},
        "input": {
            "name": spec.name,
            "letters": list(spec.letters),
            "rules": {t: list(r) for t, r in zip(spec.letters, spec.rules)},
            "tilemap": (None if spec.tilemap is None
                        else {t: i for t, i in zip(spec.letters, spec.tilemap)}),
            "bounds": bounds,
            "note": spec.note,
        },
        "facts": {},
        "checks": {},
        "cost": {},
    }
    facts = report["facts"]
    checks = report["checks"]

    sub = spec.substitution()
    matrix = words.substitution_matrix(sub)
    facts["substitution_matrix"] = [list(r) for r in matrix]
    primitive = words.is_primitive(matrix)
    facts["primitive"] = primitive
    cp = algebraic.char_poly(matrix)
    facts["characteristic_polynomial"] = cp
    if not primitive:
        try:
            facts["characteristic_irreducible"] = \
                len(polys.factor_monic(cp)) == 1
        except SubtilingError as exc:
            facts["characteristic_irreducible"] = {"error": str(exc)}
        checks["error"] = "substitution is not primitive; no suspension"
        return report
    try:
        system = suspension.SuspensionSystem(sub)
    except SubtilingError as exc:
        facts["characteristic_irreducible"] = {"error": str(exc)}
        checks["error"] = f"no suspension: {exc}"
        return report
    facts["characteristic_irreducible"] = None      # from derive
    system.field.ensure_width(Fraction(1, 1 << BETA_WIDTH_BITS))
    beta_interval = spectrum.format_shift(
        (system.field.num_lo, system.field.num_hi), system.field.den)
    pisot = algebraic.is_pisot(system.field)
    refpoints, kind = _reference_points(system, spec)
    core = _core_facts(spec, system, refpoints, kind)
    facts["minimal_polynomial"] = core["minimal_polynomial"]
    facts["beta_interval"] = beta_interval
    facts["pisot"] = pisot
    # the rest of the core facts, in their order; the ones already set
    # keep their place
    facts.update(core)

    walk = coincidence.Walk(system, refpoints)
    for check in CHECK_TABLE:
        try:
            result = check.run(sub, walk, bounds, report)
            checks[check.name] = (
                _pairs_json(spec, result, check.encode) if check.pairs
                else _verdict_json(spec, result, check.encode) if check.holds
                else check.encode(result))
        except SubtilingError as exc:
            checks[check.name] = {"error": str(exc)}
        except (ValueError, ZeroDivisionError, AssertionError) as exc:
            checks[check.name] = {"error": f"{type(exc).__name__}: {exc}"}
    for path, value in derive(report):
        if value is ABSENT:
            del _parent(report, path)[path[-1]]
        else:
            _parent(report, path)[path[-1]] = value
    return report


ABSENT = object()       # the value of a derived key the report leaves out


def derive(report: dict) -> list:
    """Every leaf of a report that is a function of its other leaves, as
    (path, value) pairs in report order; a path is a tuple of keys.

    It reads only the report.  A report with no suspension (not
    primitive, or no minimal polynomial) derives `primitive` alone.  A
    check that holds an error derives nothing, and makes `spectral` the
    not-applicable UNKNOWN; a value of ABSENT is a key the report leaves
    out.
    """
    facts, checks = report["facts"], report["checks"]
    out = []

    def put(path, value):
        out.append((tuple(path.split(".")), value))

    primitive = words.is_primitive(facts["substitution_matrix"])
    put("facts.primitive", primitive)
    if not primitive or "minimal_polynomial" not in facts:
        return out
    put("facts.characteristic_irreducible", _irreducible(facts))
    advisory = _advisory(facts)
    ran = {name: "error" not in checks[name] for name in CHECKS}
    for name in (check.name for check in CHECK_TABLE if check.pairs):
        if ran[name]:
            statuses = {v["status"] for v in checks[name]["pairs"].values()}
            put(f"checks.{name}.aggregate", next(
                (s for s in ("FAILS", "UNKNOWN") if s in statuses), "HOLDS"))
    if ran["geometric_strong"]:
        put("checks.geometric_strong.admissible", facts["admissible"])
    if ran["height_group"]:
        height = _height_group(report)
        group = lattices.quotient(height.sup, height.sub)
        put("checks.height_group.status", "DECIDED"
            if height.stabilized_at is not None else "UNSTABLE")
        put("checks.height_group.group", {
            "invariant_factors": list(group.invariant_factors),
            "free_rank": group.free_rank, "display": str(group)})
        put("checks.height_group.cross_lattice.rank", height.sup.rank)
        put("checks.height_group.samecolor_lattice.rank", height.sub.rank)
    returns = checks["eventual_return_module"]
    if ran["eventual_return_module"]:
        holds = None not in returns["powers"] and "bound_hit" not in returns
        put("checks.eventual_return_module.status",
            "HOLDS" if holds else "UNKNOWN")
        put("checks.eventual_return_module.max_power",
            max(returns["powers"], default=0) if holds else None)
        put("checks.eventual_return_module.bound",
            report["input"]["bounds"]["k"])
    overlap, balanced = checks["overlap_coincidence"], checks["balanced_pairs"]
    if ran["balanced_pairs"]:
        put("checks.balanced_pairs.advisory", advisory or ABSENT)
    both = ran["overlap_coincidence"] and ran["balanced_pairs"]
    halves = (overlap["status"], balanced["status"]) if both else (None, None)
    put("checks.spectral", spectrum.spectral_verdict(*halves, advisory))
    if ran["overlap_coincidence"]:
        put("cost.overlap_classes",
            overlap["certificate"].get("total_classes"))
    if ran["balanced_pairs"]:
        put("cost.balanced_pairs",
            balanced["certificate"].get("irreducible_pairs"))
    put("cost.seed_power", facts["fixed_point_seed"]["power"])
    return out


def _parent(report, path):
    for key in path[:-1]:
        report = report[key]
    return report


def _derived_leaves_hold(report) -> bool:
    """Whether each leaf of `derive` is the report's, as JSON or absent."""
    try:
        derived = derive(report)
        found = [_parent(report, path).get(path[-1], ABSENT)
                 for path, _ in derived]
    except (LookupError, TypeError, AttributeError, ArithmeticError,
            StopIteration, SubtilingError):
        return False            # derive, or a path, met a malformed leaf

    def boxed(values):          # [] for an absent leaf, [value] otherwise
        return json.dumps([[] if v is ABSENT else [v] for v in values],
                          sort_keys=True)

    return boxed(found) == boxed(value for _, value in derived)


def _beta_interval_holds(interval, field) -> bool:
    """Whether a report's `beta_interval` encloses beta as `analyze`
    writes it: it lies inside the field's current interval, which is not
    refined; the minimal polynomial changes sign at its ends, or it is
    the point of an integer beta; and it is at most 2^-BETA_WIDTH_BITS
    wide."""
    try:
        ((num_lo, num_hi),), den = algebraic.parse_shifts((interval,), 2)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    lo_sign, hi_sign = (polys.sign_at(field.minpoly, num, den)
                        for num in (num_lo, num_hi))
    return (field.num_lo * den <= num_lo * field.den <= num_hi * field.den
            <= field.num_hi * den
            and (lo_sign * hi_sign < 0 or num_lo == num_hi and lo_sign == 0)
            and (num_hi - num_lo) << BETA_WIDTH_BITS <= den)


def _walk_statuses(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "status" and isinstance(value, str):
                yield value
            else:
                yield from _walk_statuses(value)
    elif isinstance(node, list):
        for item in node:
            yield from _walk_statuses(item)


def report_exit_code(report: dict) -> int:
    statuses = list(_walk_statuses(report["checks"]))
    if any("error" in c for c in report["checks"].values()
           if isinstance(c, dict)) or "error" in report["checks"]:
        return 2
    if any(s in ("UNKNOWN", "UNSTABLE") for s in statuses):
        return 2
    return 0


# ---------------------------------------------------------------------------
# Witness replay (verify mode)
# ---------------------------------------------------------------------------


def _spec_from_report(report: dict) -> SpecFile:
    inp = report["input"]
    letters = tuple(inp["letters"])
    if any("|" in tok for tok in letters):
        raise ValueError("'|' in a letter token")
    rules = tuple(tuple(inp["rules"][t]) for t in letters)
    tilemap = None
    if inp.get("tilemap"):
        tilemap = tuple(inp["tilemap"][t] for t in letters)
    return SpecFile(inp["name"], letters, rules, tilemap)


def _word_witness_holds(spec, witness, level_bound, pairs) -> bool:
    """Whether the arithmetic of a word witness holds: an int level in
    [0, level_bound], a letter of the input, and m non-negative int letter
    counts whose sum t is the prefix length: [t, t] for a letter pair, and
    at least 1 for prefix_simultaneous, whose prefix holds its last letter."""
    keys = (("level", "letter", "prefix_counts", "prefix_lengths") if pairs
            else ("level", "final_letter", "counts", "prefix_length"))
    try:
        level, letter, counts, length = (witness[key] for key in keys)
        t = sum(counts)
        ints = [level, *counts, *(length if pairs else [length])]
    except (KeyError, TypeError):
        return False
    return (all(type(x) is int and x >= 0 for x in ints)
            and level <= level_bound and letter in spec.letters
            and len(counts) == len(spec.letters)
            and (length == [t, t] if pairs else length == t >= 1))


def verify_report(report: dict) -> dict:
    """Replay every replayable certificate in a report.

    The setup is checked, not found again: `SuspensionSystem.from_facts`
    recomputes the matrix and the characteristic polynomial and checks
    the report's `minimal_polynomial` (it divides the characteristic
    polynomial, `polys.factor_monic` of it alone finds one factor, and
    its largest root is the Perron root) and `prototile_lengths` (the
    left beta-eigenvector with last entry 1, each entry positive).  A
    setup fact that fails ends the replay with "facts" false and an
    error that names it.  The seed and reference points are recomputed.
    The facts they fix (`_core_facts`) must equal the report's, every
    leaf of `derive` must be the report's, and `beta_interval` must
    enclose beta (`_beta_interval_holds`); all of these are the one
    replay "facts", which a report derive cannot read fails.

    Then each check of CHECK_TABLE with a FAILS replay is judged claim by
    claim: a pair check's claims are its verdicts, named check[x|y], and
    must be keyed by exactly the m(m+1)/2 letter pairs; any other check
    makes one claim over every letter.  A claim fails when it is not an
    object, or its status is not one of the STATUSES.  A FAILS replays its
    certificate on one `coincidence.Walk` of the report.  A word
    HOLDS needs a witness whose arithmetic holds (`_word_witness_holds`),
    and fails when a commuting fixed-point-free involution maps one of its
    letters to another, by the lemma of `coincidence`.  Tile HOLDS
    witnesses must parse with the claim's scope, its pair or "all"; each
    is then replayed, as its claim is read, on the inflation tree of that
    walk (`coincidence.verify_witness`).  A replay that raises a
    SubtilingError (a cap it ran into) fails.  A claim or a pair check that
    raised is exactly {"error": <str>} and has nothing to judge; any other
    claim is judged by its status, even one that holds an "error".  A
    report whose bounds _check_bounds rejects, whose input section names no
    primitive substitution, or whose checks section is not an object or
    lacks one of CHECKS or "spectral", fails with an error.
    """
    try:
        _check_bounds(report["input"]["bounds"])
        spec = _spec_from_report(report)
        system = suspension.SuspensionSystem.from_facts(
            spec.substitution(), report.get("facts"))
        refpoints, kind = _reference_points(system, spec)
    except FactRejected as exc:
        return {"passed": False, "replayed": {"facts": False},
                "error": f"facts: {exc}"}
    except (KeyError, TypeError, ValueError, SubtilingError) as exc:
        return {"passed": False, "replayed": {},
                "error": f"input: {type(exc).__name__}: {exc}"}
    checks = report.get("checks")
    if not isinstance(checks, dict):
        return {"passed": False, "replayed": {},
                "error": "checks: not an object"}
    missing = [name for name in (*CHECKS, "spectral") if name not in checks]
    if missing:
        return {"passed": False, "replayed": {},
                "error": "checks: missing " + ", ".join(missing)}
    index = {tok: i + 1 for i, tok in enumerate(spec.letters)}
    letters = tuple(range(1, system.size + 1))
    pair_letters = {_pair_key(spec, (i, j)): (i, j)
                    for i in letters for j in letters if i <= j}
    facts = report["facts"]     # an object, or from_facts had raised
    core = _core_facts(spec, system, refpoints, kind)
    results = {"facts": all(    # as JSON, so that 1.0 and true are not 1
        json.dumps(facts.get(key), sort_keys=True) ==
        json.dumps(value, sort_keys=True) for key, value in core.items())
        and _derived_leaves_hold(report)
        and _beta_interval_holds(facts.get("beta_interval"), system.field)}

    def replay(fn, *args):
        try:
            return fn(*args)
        except SubtilingError:
            return False

    def part(obj, key, name=None):
        """obj[key], or {} when it is absent; one that is not an object is
        a malformed claim, and the replay `name` (key by default) fails."""
        value = obj.get(key, {})
        if isinstance(value, dict):
            return value
        results[name or key] = False
        return {}

    def raised(claim):
        """Whether a claim is that of a check that raised: exactly
        {"error": <str>}, with nothing to judge."""
        return claim.keys() == {"error"} and isinstance(claim["error"], str)

    def claims(check):
        """(replay name, its letters, claim) for each claim of a check,
        read one at a time so that names enter `results` in report
        order; a pair key that names no pair has letters None.  A check
        with no FAILS replay has none."""
        if check.fails is None:
            return
        claim = part(checks, check.name)
        if not check.pairs:
            yield check.name, letters, claim
        elif not raised(claim):
            pairs = part(claim, "pairs", check.name)
            if pairs.keys() != pair_letters.keys():
                results[check.name] = False
            for key in pairs:
                name = f"{check.name}[{key}]"
                yield name, pair_letters.get(key), part(pairs, key, name)

    walk = coincidence.Walk(system, refpoints)

    def tile_witness_holds(w, check, claimed):
        """Replay a tile witness on `walk`; one that does not parse (a
        level that is not an int too), above the report's L or of another
        scope, fails."""
        try:
            levels = w["level"], w["replay_level"]
            scope = [spec.token(c) for c in claimed] if check.pairs else "all"
            (shift, replay_shift), denom = algebraic.parse_shifts(
                (w["shift"], w["replay_shift"]), system.field.degree)
            if (w["scope"] != scope or {type(x) for x in levels} != {int}
                    or levels[0] > report["input"]["bounds"]["L"]):
                return False
            witness = coincidence.CoincidenceWitness(
                level=levels[0], color=index[w["color"]], shift=shift,
                scope=claimed if check.pairs else None,
                replay_level=levels[1], replay_color=index[w["replay_color"]],
                replay_shift=replay_shift, denom=denom)
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return False
        return replay(coincidence.verify_witness, walk, witness)

    # reversing the rules keeps every condition on an involution, so
    # these refute suffix claims too
    involutions = words.commuting_fixed_point_free_involutions(system.sub)
    for check in CHECK_TABLE:
        for name, claimed, claim in claims(check):
            if raised(claim):
                continue
            status = claim.get("status")
            if status not in STATUSES:
                results[name] = False
            if status == "FAILS":
                results[name] = claimed is not None and replay(
                    check.fails, walk, claim.get("certificate"), claimed)
            elif status == "HOLDS" and check.holds == "tile":
                results[name] = tile_witness_holds(claim.get("witness"),
                                                   check, claimed)
            elif status == "HOLDS" and check.holds == "word" and (
                    not _word_witness_holds(spec, claim.get("witness"),
                                            report["input"]["bounds"]["L"],
                                            check.pairs)
                    or claimed and any(tau[c] in claimed for c in claimed
                                       for tau in involutions)):
                results[name] = False
    return {"passed": all(results.values()), "replayed": results}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _load_spec(source: str) -> SpecFile:
    if source in _CORPUS_TEXTS:
        return corpus_lookup(source)
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_spec(text, name=source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subtiling",
        description="Exact coincidence and pure-discreteness checks for "
                    "one-dimensional substitution tilings",
    )
    sub_parsers = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub_parsers.add_parser(
        "analyze", help="run every check on a spec file or corpus id"
    )
    p_analyze.add_argument("source", help="spec file path or corpus id")
    for bound in BOUNDS:
        if bound.flag:
            p_analyze.add_argument(bound.flag, dest=bound.override,
                                   metavar="N", type=int)
    p_analyze.add_argument("--verify", action="store_true",
                           help="replay all witnesses before reporting")
    p_analyze.add_argument("-o", "--output", default=None,
                           help="also write the report to a file")

    p_corpus = sub_parsers.add_parser("corpus", help="corpus operations")
    p_corpus.add_argument("action", choices=["list"])

    p_patch = sub_parsers.add_parser(
        "patch", help="dump the exact tiles of an inflated fixed-point patch"
    )
    p_patch.add_argument("source", help="spec file path or corpus id")
    p_patch.add_argument("--n", type=int, default=4,
                         help="number of inflation steps")

    p_verify = sub_parsers.add_parser(
        "verify", help="replay the witnesses of a saved report"
    )
    p_verify.add_argument("report", help="path to a report JSON file")

    args = parser.parse_args(argv)

    if args.command == "corpus":
        for spec in corpus():
            print(f"{spec.name}: {spec.note}")
        return 0

    if args.command == "patch":
        try:
            spec = _load_spec(args.source)
        except (OSError, SubtilingError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            system = suspension.SuspensionSystem(spec.substitution())
            patch = suspension.generate_patch(system, args.n)
        except (SubtilingError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for color, point in zip(patch.colors, patch.points):
            coords = " ".join(spectrum.format_shift(point, patch.denom))
            print(f"{spec.token(color)} {coords}")
        return 0

    if args.command == "verify":
        try:
            with open(args.report, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        outcome = verify_report(report)
        print(json.dumps(outcome, indent=2, sort_keys=True))
        return 0 if outcome["passed"] else 1

    # analyze
    try:
        spec = _load_spec(args.source)
    except (OSError, SubtilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    started = time.monotonic()
    try:
        report = run_analysis(spec, overrides={
            bound.override: getattr(args, bound.override) for bound in BOUNDS
            if bound.flag and getattr(args, bound.override) is not None})
    except InvalidBound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    if args.verify:
        report["verification"] = verify_report(report)
    text = json.dumps(report, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"analysis of {spec.name} took {elapsed:.2f}s", file=sys.stderr)
    if args.verify and not report["verification"]["passed"]:
        return 1
    return report_exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
