"""Run every workload: end-to-end metrics, then two traced runs.

    python3 perfbench/all.py [--workload W ...] [--seed N] [--seconds S]

For each workload this runs `run.py --trace 0`, then `run.py --trace 1`
twice, once under PYTHONHASHSEED=1 and once under PYTHONHASHSEED=2. It
prints every end-to-end metric, every per-layer metric with the tracing
overhead, and every per-layer count that differs between the two traced
runs.  Counts must repeat exactly, so that one depending on the run or on
hash order shows.  Exits non-zero if a run is not correct or a count
differs.
"""

import argparse
import json
import os
import subprocess
import sys

import source

source.use_checkout_sources()

import workloads  # noqa: E402

RUN = source.ROOT / "perfbench" / "run.py"


def run(workload, seed, seconds, trace, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=source.ROOT, capture_output=True, text=True, check=True,
        timeout=900, env=env)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        results = [run(workload, args.seed, args.seconds, 0),
                   run(workload, args.seed, args.seconds, 1, "1"),
                   run(workload, args.seed, args.seconds, 1, "2")]
        for result in results:
            status |= not result["correct"]
            print(f"{workload}: {result['failed']}/{result['attempted']} "
                  f"operations failed")
        for result in results[:2]:
            for name, metric in result["metrics"].items():
                print(f"{workload} {name}: {metric['value']} "
                      f"{metric['unit']}")
        first, second = (r["metrics"] for r in results[1:])
        for name, metric in first.items():
            if metric["unit"] == "count" and \
                    metric["value"] != second[name]["value"]:
                status = 1
                print(f"{workload} {name}: DIFFERS between hash seeds: "
                      f"{metric['value']} / {second[name]['value']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
