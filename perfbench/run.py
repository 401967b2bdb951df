"""Time-to-verdict benchmark for `subtiling analyze` and `subtiling verify`.

    python3 perfbench/run.py --workload pisot-corpus --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports the program from its `src`.
One process runs one workload as a closed loop with a single client: each
input starts when the previous verdict is out.  Whole passes over the
workload's inputs repeat until `--seconds` have been measured (at least one
pass).  Every operation is checked: it fails if it raises, contradicts the
oracle (`oracle.py`), gives output that differs from the same input's
output in an earlier pass of the run, or, on `replay`, does not pass.

`--trace 0` reports the end-to-end metrics; `setup_s` is the median of
several fresh processes timed from their start to the end of set-up.
`--trace 1` makes one untraced pass, then one pass with every `subtiling`
module wrapped (`tracing.py`), and reports the per-layer metrics and the
tracing overhead; the spans go to `.bench_out/`.

Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import source

source.use_checkout_sources()

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 15
OUT = source.ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only set up, then print the monotonic clock "
                             "and the core's probe time (used by the run "
                             "itself to time set-up)")
    return parser.parse_args(argv)


def setup_seconds(workload, seed):
    """Median over fresh processes of process start to end of set-up:
    imports, spec parsing or report loading, and the seeded draw."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        ready, probe_s = (float(x) for x in done.stdout.split()[-2:])
        samples.append((ready - start) * speed.REFERENCE_S / probe_s)
    return statistics.median(samples)


class Pass:
    """Per-input wall clock and outcome counts of one pass."""

    def __init__(self):
        self.spans = {}          # input name -> (start, end)
        self.failed = 0
        self.messages = []
        self.decided = 0
        self.verdicts = 0

    def wall(self, name):
        start, end = self.spans[name]
        return end - start

    @property
    def total(self):
        return sum(self.wall(name) for name in self.spans)


def run_pass(inputs, earlier, tracer=None):
    """Run every input once; `earlier` maps input name to first output."""
    result = Pass()
    for inp in inputs:
        if tracer is not None:
            tracer.input_id = inp.name
        start = time.perf_counter()
        try:
            output, text = workloads.run(inp)
        except Exception as exc:  # noqa: BLE001 - a raise is a failed op
            result.spans[inp.name] = (start, time.perf_counter())
            result.failed += 1
            result.messages.append(
                f"{inp.name}: raised {type(exc).__name__}: {exc}")
            result.verdicts += len(oracle.CHECKS)
            continue
        result.spans[inp.name] = (start, time.perf_counter())
        found = workloads.problems(inp, output)
        if earlier.setdefault(inp.name, text) != text:
            found.append(f"{inp.name}: output differs from an earlier pass")
        result.failed += bool(found)
        result.messages += found
        decided, verdicts = workloads.verdict_counts(inp, output)
        result.decided += decided
        result.verdicts += verdicts
    return result


def check_unwrapped():
    wrapped = tracing.wrapped_names()
    if wrapped:
        raise RuntimeError(f"tracing wrappers still installed: {wrapped}")


def timed_passes(inputs, seconds):
    check_unwrapped()
    earlier = {}
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(inputs, earlier))
    return passes


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(args, inputs):
    setup = setup_seconds(args.workload, args.seed)
    with speed.SpeedProbe() as probe:
        passes = timed_passes(inputs, args.seconds)
    scaled = [{name: probe.scaled(*span) for name, span in p.spans.items()}
              for p in passes]
    totals = [p.total for p in passes]
    q1, q3 = _quartiles(totals)
    print(f"wall clock per pass: median {statistics.median(totals):.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s over {len(passes)} pass(es)")
    totals = [sum(s.values()) for s in scaled]
    q1, q3 = _quartiles(totals)
    print(f"reference seconds per pass: median "
          f"{statistics.median(totals):.4f} s, quartiles {q1:.4f} / "
          f"{q3:.4f} s; per input (median wall / reference):")
    medians = {}
    for inp in sorted(inputs, key=lambda i: i.name):
        medians[inp.name] = statistics.median(s[inp.name] for s in scaled)
        wall = statistics.median(p.wall(inp.name) for p in passes)
        print(f"  {inp.name}: {wall:.4f} / {medians[inp.name]:.4f} s")
    metrics = {
        "pass_s": (sum(medians.values()), "s"),
        "slowest_input_s": (max(medians.values()), "s"),
        "decided_share": (sum(p.decided for p in passes)
                          / sum(p.verdicts for p in passes), "share"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    return passes, {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}


def per_layer(args, inputs):
    check_unwrapped()
    earlier = {}
    tracer = tracing.Tracer()
    with speed.SpeedProbe() as probe:
        untraced = run_pass(inputs, earlier)
        tracer.install()
        try:
            traced = run_pass(inputs, earlier, tracer)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = tracer.metrics()
    untraced_s, traced_s = (sum(probe.scaled(*span)
                                for span in p.spans.values())
                            for p in (untraced, traced))
    for name, value in (("trace.pass_s", traced_s),
                        ("trace.untraced_pass_s", untraced_s),
                        ("trace.overhead_s", traced_s - untraced_s)):
        metrics[name] = {"value": value, "unit": "s"}
    print(f"{len(tracer.spans)} spans written to {OUT.name}/")
    return [untraced, traced], metrics


def main(argv=None):
    args = parse_args(argv)
    inputs = workloads.build(args.workload, args.seed)
    if args.probe:
        ready = time.monotonic()
        print(repr(ready), repr(speed.burst()))
        return 0
    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(i.name for i in inputs))
    if args.trace:
        passes, metrics = per_layer(args, inputs)
    else:
        passes, metrics = end_to_end(args, inputs)
    attempted = sum(len(p.spans) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for message in p.messages:
            print(f"FAILED {message}")
    print(f"failed_share: {failed}/{attempted} operations")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
