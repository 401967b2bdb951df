"""Plain-text substitution specs, the built-in corpus, full analysis runs,
and JSON report emission.

Spec grammar (line oriented, # starts a comment):

    letters <tok> <tok> ...
    rule <tok> = <tok> <tok> ...
    tilemap <tok> -> <index>      # 1-based subtile choice, optional
    bound L <int>                 # coincidence level bound
    bound window <int>            # window size in tile lengths
    bound k <int>                 # eventual-return power bound

Reports are a single JSON document with every exact rational serialized
as "p/q" and every field element as a coordinate array.  Reports are
byte-stable across runs: the cost section contains deterministic work
counters, never wall-clock times (those go to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import __version__
from . import (algebraic, coincidence, lattices, polys, spectrum,
               suspension, words)
from .errors import (
    SpecSyntaxError,
    SubtilingError,
    UnknownCorpusEntry,
)


@dataclass
class Bounds:
    level_bound: int = coincidence.DEFAULT_LEVEL_BOUND
    window: int = 64
    kmax: int = 16
    node_cap: int = spectrum.DEFAULT_NODE_CAP
    pair_cap: int = spectrum.DEFAULT_PAIR_CAP
    iter_cap: int = spectrum.DEFAULT_ITER_CAP
    word_cap: int = words.DEFAULT_WORD_CAP


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
        return words.Substitution(rules, name=self.name)

    def token(self, letter: int) -> str:
        return self.letters[letter - 1]


def parse_spec(text: str, name: str = "spec") -> SpecFile:
    letters = None
    rules = {}
    tilemap = {}
    bounds = {}
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
            if len(set(parts[1:])) != len(parts[1:]):
                raise SpecSyntaxError(line_no, "repeated letter token")
            letters = tuple(parts[1:])
        elif head == "rule":
            if letters is None:
                raise SpecSyntaxError(line_no, "rule before letters line")
            if len(parts) < 4 or parts[2] != "=":
                raise SpecSyntaxError(line_no, "expected: rule <tok> = <tok>...")
            tok = parts[1]
            if tok not in letters:
                raise SpecSyntaxError(line_no, f"unknown letter {tok!r}")
            if tok in rules:
                raise SpecSyntaxError(line_no, f"duplicate rule for {tok!r}")
            body = parts[3:]
            for t in body:
                if t not in letters:
                    raise SpecSyntaxError(line_no, f"unknown letter {t!r}")
            rules[tok] = tuple(body)
        elif head == "tilemap":
            if letters is None:
                raise SpecSyntaxError(line_no, "tilemap before letters line")
            if len(parts) != 4 or parts[2] != "->":
                raise SpecSyntaxError(line_no, "expected: tilemap <tok> -> <index>")
            tok = parts[1]
            if tok not in letters:
                raise SpecSyntaxError(line_no, f"unknown letter {tok!r}")
            if tok in tilemap:
                raise SpecSyntaxError(line_no, f"duplicate tilemap for {tok!r}")
            try:
                tilemap[tok] = int(parts[3])
            except ValueError:
                raise SpecSyntaxError(line_no, "tile map index must be an integer")
        elif head == "bound":
            if len(parts) != 3 or parts[1] not in ("L", "window", "k"):
                raise SpecSyntaxError(line_no, "expected: bound L|window|k <int>")
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
    out = []
    for name, (text, note) in _CORPUS_TEXTS.items():
        spec = parse_spec(text, name=name)
        spec.note = note
        out.append(spec)
    return out


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


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _elem(e) -> list:
    return [_frac(c) for c in e.coords]


def _pair_key(spec: SpecFile, pair) -> str:
    return f"{spec.token(pair[0])}|{spec.token(pair[1])}"


def _geometric_witness_json(spec, w: coincidence.CoincidenceWitness):
    return {
        "level": w.level,
        "color": spec.token(w.color),
        "shift": _elem(w.shift),
        "scope": ("all" if w.scope is None
                  else [spec.token(c) for c in w.scope]),
        "replay_level": w.replay_level,
        "replay_color": spec.token(w.replay_color),
        "replay_shift": _elem(w.replay_shift),
    }


def _prefix_witness_json(spec, w: coincidence.PrefixWitness):
    return {
        "level": w.level,
        "letter": spec.token(w.color),
        "prefix_lengths": list(w.prefix_lengths),
        "prefix_counts": list(w.counts),
    }


def _verdict_json(spec, verdict, witness_encoder):
    out = {"status": verdict.status}
    if verdict.status == "HOLDS" and verdict.witness is not None:
        w = verdict.witness
        out["witness"] = (witness_encoder(spec, w)
                          if witness_encoder else w)
    if verdict.status == "FAILS":
        out["certificate"] = verdict.certificate
    if verdict.status == "UNKNOWN":
        out["bound"] = verdict.bound
    return out


def _pairs_json(spec, per_pair, witness_encoder):
    return {
        "pairs": {
            _pair_key(spec, p): _verdict_json(spec, v, witness_encoder)
            for p, v in sorted(per_pair.items())
        },
        "aggregate": coincidence.aggregate_status(per_pair),
    }


def _lattice_json(mod: lattices.ZModule):
    return {
        "denominator": mod.denom,
        "basis": [list(r) for r in mod.basis],
        "rank": mod.rank,
    }


def _group_json(g: lattices.AbelianGroup):
    return {
        "invariant_factors": list(g.invariant_factors),
        "free_rank": g.free_rank,
        "display": str(g),
    }


def _half_json(half: spectrum.SpectralHalf):
    out = {"status": half.status, "certificate": half.certificate}
    if half.advisory:
        out["advisory"] = True
    if half.bound_hit:
        out["bound_hit"] = half.bound_hit
    return out


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------


def _effective_bounds(spec: SpecFile, bounds: Bounds) -> Bounds:
    mapping = {"L": "level_bound", "window": "window", "k": "kmax"}
    overrides = {
        mapping[k]: v for k, v in spec.bounds.items() if k in mapping
    }
    return replace(bounds, **overrides)


def run_analysis(spec: SpecFile, bounds: Bounds | None = None,
                 overrides: dict | None = None) -> dict:
    """Execute every check on one substitution spec and build the report.

    Bound lines in the spec file refine the defaults; explicit overrides
    (command-line flags) win over both.  A check that raises records its
    error in place; later checks still run.
    """
    bounds = _effective_bounds(spec, bounds or Bounds())
    if overrides:
        bounds = replace(bounds, **overrides)
    report = {
        "schema": 1,
        "tool": {"name": "subtiling", "version": __version__},
        "input": {
            "name": spec.name,
            "letters": list(spec.letters),
            "rules": {t: list(r) for t, r in zip(spec.letters, spec.rules)},
            "tilemap": (None if spec.tilemap is None
                        else {t: i for t, i in zip(spec.letters, spec.tilemap)}),
            "bounds": {
                "L": bounds.level_bound,
                "window": bounds.window,
                "k": bounds.kmax,
                "node_cap": bounds.node_cap,
                "pair_cap": bounds.pair_cap,
                "iter_cap": bounds.iter_cap,
            },
            "note": spec.note,
        },
        "facts": {},
        "checks": {},
        "cost": {},
    }
    facts = report["facts"]
    checks = report["checks"]
    cost = report["cost"]

    sub = spec.substitution()
    matrix = words.substitution_matrix(sub)
    facts["substitution_matrix"] = [list(r) for r in matrix]
    primitive = words.is_primitive(matrix)
    facts["primitive"] = primitive
    cp = algebraic.char_poly(matrix)
    facts["characteristic_polynomial"] = cp
    try:
        facts["characteristic_irreducible"] = polys.is_irreducible(cp)
    except SubtilingError as exc:
        facts["characteristic_irreducible"] = {"error": str(exc)}

    if not primitive:
        checks["error"] = "substitution is not primitive; no suspension"
        return report

    system = suspension.SuspensionSystem(sub, word_cap=bounds.word_cap)
    facts["minimal_polynomial"] = list(system.field.minpoly)
    system.field.ensure_width(Fraction(1, 1 << 20))
    ivl = system.field.interval()
    facts["beta_interval"] = [_frac(ivl.lo), _frac(ivl.hi)]
    facts["pisot"] = algebraic.is_pisot(system.field)
    facts["prototile_lengths"] = [_elem(e) for e in system.lengths]
    k, left, right = system.seed
    facts["fixed_point_seed"] = {
        "power": k, "left": spec.token(left), "right": spec.token(right),
    }

    if spec.tilemap is not None:
        refpoints = suspension.control_points(system, spec.tilemap)
        facts["reference_point_kind"] = "tile-map"
    else:
        refpoints = suspension.left_endpoint_points(system)
        facts["reference_point_kind"] = "left-endpoints"
    facts["reference_points"] = [_elem(e) for e in refpoints]
    facts["admissible"] = suspension.is_admissible(system, refpoints)

    irreducible = facts["characteristic_irreducible"] is True
    advisory_balanced = not (facts["pisot"] and irreducible)

    def guarded(name, fn):
        try:
            fn()
        except SubtilingError as exc:
            checks[name] = {"error": str(exc)}
        except (ValueError, ZeroDivisionError, AssertionError) as exc:
            checks[name] = {"error": f"{type(exc).__name__}: {exc}"}

    def do_prefix():
        per_pair = coincidence.prefix_strong(
            sub, bounds.level_bound, word_cap=bounds.word_cap
        )
        checks["prefix_strong"] = _pairs_json(
            spec, per_pair, _prefix_witness_json
        )

    def do_suffix():
        per_pair = coincidence.prefix_strong(
            sub, bounds.level_bound, suffixes=True, word_cap=bounds.word_cap
        )
        checks["suffix_strong"] = _pairs_json(
            spec, per_pair, _prefix_witness_json
        )

    def do_geometric():
        per_pair = coincidence.geometric_strong(
            system, refpoints, bounds.level_bound, word_cap=bounds.word_cap
        )
        checks["geometric_strong"] = _pairs_json(
            spec, per_pair, _geometric_witness_json
        )
        checks["geometric_strong"]["admissible"] = facts["admissible"]

    def do_simultaneous():
        verdict = coincidence.simultaneous(
            system, refpoints, bounds.level_bound, word_cap=bounds.word_cap
        )
        checks["simultaneous"] = _verdict_json(
            spec, verdict, _geometric_witness_json
        )

    def do_prefix_simultaneous():
        verdict = coincidence.prefix_simultaneous(
            sub, bounds.level_bound, word_cap=bounds.word_cap
        )
        out = {"status": verdict.status}
        if verdict.status == "HOLDS":
            w = dict(verdict.witness)
            w["final_letter"] = spec.token(w["final_letter"])
            w["counts"] = list(w["counts"])
            out["witness"] = w
        else:
            out["bound"] = verdict.bound
        checks["prefix_simultaneous"] = out

    def do_height():
        res = lattices.height_group(system, refpoints)
        checks["height_group"] = {
            "status": "UNSTABLE" if res.unstable else "DECIDED",
            "group": _group_json(res.group),
            "stabilized_at_window": res.stabilized_at,
            "windows": list(res.windows_used),
            "cross_lattice": _lattice_json(res.sup),
            "samecolor_lattice": _lattice_json(res.sub),
        }

    def do_return_module():
        res = lattices.differences_in_return_module(
            system, refpoints, bounds.kmax, bounds.window
        )
        checks["eventual_return_module"] = {
            "status": res.status,
            "max_power": res.max_power,
            "bound": res.bound,
            "generators": [_elem(g) for g in res.generators],
            "powers": list(res.witnesses),
        }

    def do_overlap():
        half = spectrum.overlap_coincidence(
            system, refpoints, system.window(bounds.window), bounds.node_cap
        )
        checks["overlap_coincidence"] = _half_json(half)
        cost["overlap_classes"] = half.certificate.get("total_classes")
        report["_overlap_half"] = half

    def do_balanced():
        half = spectrum.balanced_pairs(
            sub, pair_cap=bounds.pair_cap, iter_cap=bounds.iter_cap,
            word_cap=bounds.word_cap, advisory=advisory_balanced,
        )
        checks["balanced_pairs"] = _half_json(half)
        cost["balanced_pairs"] = half.certificate.get("irreducible_pairs")
        report["_balanced_half"] = half

    guarded("prefix_strong", do_prefix)
    guarded("suffix_strong", do_suffix)
    guarded("geometric_strong", do_geometric)
    guarded("simultaneous", do_simultaneous)
    guarded("prefix_simultaneous", do_prefix_simultaneous)
    guarded("height_group", do_height)
    guarded("eventual_return_module", do_return_module)
    guarded("overlap_coincidence", do_overlap)
    guarded("balanced_pairs", do_balanced)

    overlap_half = report.pop("_overlap_half", None)
    balanced_half = report.pop("_balanced_half", None)
    if overlap_half is not None and balanced_half is not None:
        verdict = spectrum.spectral_verdict(overlap_half, balanced_half)
        checks["spectral"] = {
            "status": verdict.status,
            "agreement": verdict.agreement,
            "disagreement_detected": verdict.disagreement_detected,
        }
    else:
        checks["spectral"] = {"status": "UNKNOWN",
                              "agreement": "not-applicable",
                              "disagreement_detected": False}

    cost["seed_power"] = k
    return report


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
    rules = tuple(tuple(inp["rules"][t]) for t in letters)
    tilemap = None
    if inp.get("tilemap"):
        tilemap = tuple(inp["tilemap"][t] for t in letters)
    return SpecFile(inp["name"], letters, rules, tilemap)


def _parse_elem(field_obj, coords):
    return field_obj.element([Fraction(c) for c in coords])


def verify_report(report: dict) -> dict:
    """Replay every replayable certificate in a report.

    Geometric and simultaneous HOLDS witnesses are rechecked point by
    point on the default window; FAILS certificates of both spectral
    procedures are rerun through one inflation or substitution pass.
    """
    spec = _spec_from_report(report)
    sub = spec.substitution()
    system = suspension.SuspensionSystem(sub)
    index = {tok: i + 1 for i, tok in enumerate(spec.letters)}
    if spec.tilemap is not None:
        refpoints = suspension.control_points(system, spec.tilemap)
    else:
        refpoints = suspension.left_endpoint_points(system)
    window = system.window(report["input"]["bounds"]["window"])
    results = {}

    def witness_from_json(w):
        scope = None
        if w["scope"] != "all":
            scope = tuple(index[t] for t in w["scope"])
        return coincidence.CoincidenceWitness(
            level=w["level"],
            color=index[w["color"]],
            shift=_parse_elem(system.field, w["shift"]),
            scope=scope,
            replay_level=w["replay_level"],
            replay_color=index[w["replay_color"]],
            replay_shift=_parse_elem(system.field, w["replay_shift"]),
        )

    geo = report["checks"].get("geometric_strong")
    if isinstance(geo, dict) and "pairs" in geo:
        for key, verdict in geo["pairs"].items():
            if verdict.get("status") == "HOLDS":
                witness = witness_from_json(verdict["witness"])
                results[f"geometric_strong[{key}]"] = coincidence.verify_witness(
                    system, refpoints, witness, window
                )
    sim = report["checks"].get("simultaneous")
    if isinstance(sim, dict) and sim.get("status") == "HOLDS":
        witness = witness_from_json(sim["witness"])
        results["simultaneous"] = coincidence.verify_witness(
            system, refpoints, witness, window
        )
    overlap = report["checks"].get("overlap_coincidence")
    if isinstance(overlap, dict) and overlap.get("status") == "FAILS":
        results["overlap_coincidence"] = spectrum.replay_overlap_certificate(
            system, overlap["certificate"]
        )
    balanced = report["checks"].get("balanced_pairs")
    if isinstance(balanced, dict) and balanced.get("status") == "FAILS":
        results["balanced_pairs"] = spectrum.replay_balanced_certificate(
            sub, balanced["certificate"]
        )
    return {"passed": all(results.values()) if results else True,
            "replayed": results}


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _load_spec(source: str) -> SpecFile:
    if source in _CORPUS_TEXTS:
        return corpus_lookup(source)
    with open(source, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_spec(text, name=source)


def _overrides_from_args(args) -> dict:
    """Only the flags the user actually passed."""
    overrides = {}
    if args.Lmax is not None:
        overrides["level_bound"] = args.Lmax
    if args.window is not None:
        overrides["window"] = args.window
    if args.kmax is not None:
        overrides["kmax"] = args.kmax
    if getattr(args, "node_cap", None) is not None:
        overrides["node_cap"] = args.node_cap
    if getattr(args, "pair_cap", None) is not None:
        overrides["pair_cap"] = args.pair_cap
    return overrides


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
    p_analyze.add_argument("--Lmax", type=int, default=None)
    p_analyze.add_argument("--window", type=int, default=None)
    p_analyze.add_argument("--kmax", type=int, default=None)
    p_analyze.add_argument("--node-cap", dest="node_cap", type=int,
                           default=None)
    p_analyze.add_argument("--pair-cap", dest="pair_cap", type=int,
                           default=None)
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
        system = suspension.SuspensionSystem(spec.substitution())
        _, left, right = system.seed
        patch = suspension.generate_patch(system, (left, right), args.n)
        for pos, color in patch.tiles:
            coords = " ".join(_frac(c) for c in pos.coords)
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
    report = run_analysis(spec, overrides=_overrides_from_args(args))
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
