"""Per-module tracing for the benchmark's traced run.

The program is not changed: the tracer wraps the public functions of the
eight `subtiling` modules from outside, records one span per call of a
module-level function (name, start, end, parent span, input id) and plain
counters for the hot arithmetic and word methods, and puts every original
back on `uninstall`.

A name is patched wherever a caller looks it up.  `spectrum` and
`coincidence` import `reference_point_sets` and `return_vectors` by name
and the package re-exports most functions, so every module dictionary is
scanned for the original object, not only the defining module.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

import subtiling
from subtiling import (algebraic, cli, coincidence, lattices, polys,
                       spectrum, suspension, words)

MODULES = (words, polys, algebraic, suspension, coincidence, lattices,
           spectrum, cli)

# Every object the tracer installs carries this attribute.
MARK = "_perfbench_wrapped"

# (metric, unit).  `X.s` is the inclusive time of the outermost spans named
# X, `X.calls` their number, `X.self_s` span time minus direct child spans.
PER_LAYER = (
    ("algebraic.sign.calls", "count"),
    ("algebraic.sign.s", "s"),
    ("algebraic.refinements", "count"),
    ("algebraic.mul.calls", "count"),
    ("algebraic.addsub.calls", "count"),
    ("algebraic.inverse.calls", "count"),
    ("algebraic.is_pisot.s", "s"),
    ("spectrum.overlap_coincidence.s", "s"),
    ("spectrum.initial_overlaps.s", "s"),
    ("spectrum.overlap_classes_for_translation.calls", "count"),
    ("spectrum.inflate_overlap.calls", "count"),
    ("spectrum.overlap_classes", "count"),
    ("spectrum.balanced_pairs.s", "s"),
    ("spectrum.replay_overlap_certificate.s", "s"),
    ("spectrum.replay_balanced_certificate.s", "s"),
    ("lattices.height_group.s", "s"),
    ("lattices.differences_in_return_module.s", "s"),
    ("lattices.module_from_vectors.calls", "count"),
    ("lattices.module_from_vectors.rows", "count"),
    ("suspension.SuspensionSystem.s", "s"),
    ("suspension.patch_covering.calls", "count"),
    ("suspension.patch_tiles", "count"),
    ("suspension.reference_point_sets.s", "s"),
    ("suspension.return_vectors.s", "s"),
    ("suspension.return_vectors.out", "count"),
    ("coincidence.prefix_strong.s", "s"),
    ("coincidence.suffix_strong.s", "s"),
    ("coincidence.prefix_simultaneous.s", "s"),
    ("coincidence.geometric_strong.s", "s"),
    ("coincidence.simultaneous.s", "s"),
    ("coincidence.verify_witness.s", "s"),
    ("coincidence.verify_witness.calls", "count"),
    ("words.apply.letters", "count"),
    ("words.iterate.calls", "count"),
    ("polys.is_irreducible.s", "s"),
    ("polys.isolate_largest_real_root.s", "s"),
    ("cli.run_analysis.self_s", "s"),
    ("cli.verify_report.self_s", "s"),
)


def _module_name(module):
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(module):
    """Public functions defined in the module itself, by name."""
    return {
        name: value for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


def _prefix_or_suffix(args, kwargs):
    suffixes = kwargs.get("suffixes", args[2] if len(args) > 2 else False)
    return ("coincidence.suffix_strong" if suffixes
            else "coincidence.prefix_strong")


def _count_classes(tracer, args, result):
    cert = result.certificate
    tracer.counts["spectrum.overlap_classes"] += (
        cert.get("total_classes") or cert.get("nodes_seen") or 0)


def _count_rows(tracer, args, result):
    tracer.counts["lattices.module_from_vectors.rows"] += len(args[0])


def _count_return_vectors(tracer, args, result):
    per_color, cross = result
    tracer.counts["suspension.return_vectors.out"] += (
        sum(len(pc) for pc in per_color) + len(cross))


# Span names whose calls need more than a duration.
_SPAN_NAMERS = {"coincidence.prefix_strong": _prefix_or_suffix}
_SPAN_HOOKS = {
    "spectrum.overlap_coincidence": _count_classes,
    "lattices.module_from_vectors": _count_rows,
    "suspension.return_vectors": _count_return_vectors,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, input id]
        self.counts = Counter()
        self.seconds = Counter()
        self.input_id = None
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        namer = _SPAN_NAMERS.get(name)
        hook = _SPAN_HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                      stack[-1] if stack else None, self.input_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook:
                hook(self, args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter(self, key, fn, size_of_result=False):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += len(result) if size_of_result else 1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _sign(self, fn):
        counts, seconds = self.counts, self.seconds

        @functools.wraps(fn)
        def wrapper(elem):
            start = time.perf_counter()
            result = fn(elem)
            seconds["algebraic.sign.s"] += time.perf_counter() - start
            counts["algebraic.sign.calls"] += 1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for module in MODULES:
            prefix = _module_name(module)
            for name, fn in public_functions(module).items():
                replacements[id(fn)] = self._span(f"{prefix}.{name}", fn)
        for module in (subtiling,) + MODULES:
            for name, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._set(module, name, wrapper)

        # NumberField.generation counts the same refinements, per field.
        field = algebraic.NumberField
        self._set(field, "_refine_once", self._counter(
            "algebraic.refinements", field._refine_once))
        elem = algebraic.FieldElem
        self._set(elem, "sign", self._sign(elem.sign))
        self._set(elem, "inverse",
                  self._counter("algebraic.inverse.calls", elem.inverse))
        for attr in ("__mul__", "__rmul__"):
            self._set(elem, attr, self._counter(
                "algebraic.mul.calls", vars(elem)[attr]))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            self._set(elem, attr, self._counter(
                "algebraic.addsub.calls", vars(elem)[attr]))
        sub = words.Substitution
        self._set(sub, "apply", self._counter(
            "words.apply.letters", sub.apply, size_of_result=True))
        self._set(sub, "iterate",
                  self._counter("words.iterate.calls", sub.iterate))
        system = suspension.SuspensionSystem
        self._set(system, "__init__", self._span(
            "suspension.SuspensionSystem", system.__init__))
        self._set(system, "patch_covering", self._span(
            "suspension.patch_covering", system.patch_covering))
        self._set(system, "patch_from_word", self._counter(
            "suspension.patch_tiles", system.patch_from_word,
            size_of_result=True))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Every PER_LAYER metric from the recorded spans and counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        outermost = [True] * n
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += end - start
            p = parent
            while p is not None:
                if self.spans[p][0] == name:
                    outermost[i] = False
                    break
                p = self.spans[p][3]
        inclusive, calls, self_time = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[i]
            if outermost[i]:
                inclusive[name] += end - start
        out = {}
        for metric, unit in PER_LAYER:
            if metric in self.counts or metric in self.seconds:
                value = self.counts.get(metric) or self.seconds[metric]
            elif metric.endswith(".self_s"):
                value = self_time[metric[:-len(".self_s")]]
            elif metric.endswith(".calls"):
                value = calls[metric[:-len(".calls")]]
            elif metric.endswith(".s"):
                value = inclusive[metric[:-len(".s")]]
            else:
                value = 0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, input."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def wrapped_names():
    """Attributes of the subtiling modules and classes that hold a wrapper."""
    found = []
    for module in (subtiling,) + MODULES:
        for name, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{value.__qualname__}.{attr}")
    return found
