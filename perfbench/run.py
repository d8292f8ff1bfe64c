#!/usr/bin/env python3
"""Benchmark of the benchplan desk protocol at level 4.

Usage:
    python3 perfbench/run.py --workload symbolic-l4|token-l4|noisy-pool-l4
        [--seed 11] [--seconds 10] [--trace 0|1]

Runs gen -> fit -> [artifact round trip] -> eval passes on datasets made from
the seed for `--seconds` of wall time, checking the outputs outside the timed
stages. It prints the environment and the input fingerprints, one line per
metric with its unit and sample count, and as its last line one JSON object
with the keys correct, attempted, failed and metrics. `--trace 0` reports
the end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
Times are in reference seconds: wall seconds scaled to a fixed machine speed
by the mean time of a probe kernel run between the timed intervals (see
perfbench/speed.py).

Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
library sources are not beside the benchmark.
"""

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "benchplan", "__init__.py")):
        print(f"perfbench: no benchplan sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import protocol

    # a terminated run still removes its scratch directory and joins its pool
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = protocol.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"--workload must be one of {', '.join(protocol.WORKLOADS)}")
    env = protocol.environment()
    run = protocol.trace if args.trace else protocol.measure
    result = run(workload, args.seed, args.seconds)
    names = protocol.PER_LAYER if args.trace else protocol.END_TO_END

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(env))
    print("inputs " + json.dumps(result.inputs))
    print(f"speed scale {result.scale:.6g} reference s per wall s")
    if result.wall:
        print("wall-clock medians " + json.dumps(result.wall))
    for stage, name, calls, total_s, self_s in result.spans:
        print(f"span {stage:9s} {name:30s} calls {calls:8d} "
              f"total {total_s:10.4f} s self {self_s:10.4f} s")
    for name, (_, better) in names.items():
        m = result.metrics[name]
        print(f"metric {name} {m.value:.6g} {m.unit} n={m.n} ({better} is better)")
    print(f"metric failed_frac {result.failed / result.attempted:.6g} fraction "
          f"n={result.attempted} (lower is better)")
    for problem in result.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name].value,
                           "unit": result.metrics[name].unit} for name in names},
    }))
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
