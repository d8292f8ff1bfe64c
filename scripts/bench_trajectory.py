#!/usr/bin/env python3
"""One point of the benchmark trajectory: speed and results in one JSON file.

Writes to --out a JSON object with
- `schema`, the version of this layout, and `env`: the git SHA, nproc, the
  Python and numpy versions and the load average (`protocol.environment`),
  with `dirty`, whether `src/` or `perfbench/` differ from that commit (None
  without git), and `code_sha256`, a hash of the Python files under them, so
  a run on uncommitted edits names the code it measured;
- `workloads`: per benchmark workload, the end-to-end metrics of an untraced
  run (`protocol.measure`) and the per-layer metrics of a traced one
  (`protocol.trace`), each run for --seconds on the workload seed SEEDS[0],
  with the run's attempted and failed task counts and its failed checks;
- `quality`: the symbolic planner's ASAcc top-1/top-5 and ASE at levels
  1-4 and sigma 0, 0.2, 0.4 and 0.5 (fit and eval at the same sigma, top_k 5,
  the level's length cap), on each of SEEDS, with their mean and range per
  level and sigma. Below 0.4 every cell has read 100/100/1.0; the noisier
  rows show the spread;
- `generalization`: the same at sigma 0 on the paper's generalization splits,
  each cell named by its `variant` and built by `taskgen.make_dataset`, as
  `gen --variant` builds it: unseen objects at levels 1 and 3 (the test tasks
  retyped to the four types past the codebook's) and unseen tasks at levels 1
  and 2 (test plans on action pairs that no training plan combines).

Every dataset has perfbench's task counts. All timing is perfbench's: times
are in its reference seconds.

Usage: python3 scripts/bench_trajectory.py --out BENCH_<n>.json [--seconds 10]

Exit code 0 when every run's output checks passed, 1 when one failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from benchplan.evaluate import run_experiment  # noqa: E402
from benchplan.fitting import FitConfig, fit_pipeline  # noqa: E402
from benchplan.taskgen import make_dataset  # noqa: E402
from perfbench import protocol  # noqa: E402

SCHEMA = 1
WORKLOADS = ("symbolic-l4", "noisy-pool-l4")  # the workloads of BENCHMARK.json
LEVELS = (1, 2, 3, 4)
SIGMAS = (0.0, 0.2, 0.4, 0.5)
QUALITY = ("asacc_top1", "asacc_top5", "ase")
SEEDS = (11, 12, 13)  # the quality seeds; the first is the workload seed
GENERALIZATION = (("unseen_object", 1), ("unseen_object", 3), ("unseen_task", 1),
                  ("unseen_task", 2))  # (variant, level), at sigma 0
CODE = ("src", "perfbench")  # what a run measures


def tree_state() -> dict:
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", *CODE], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        status = None
    digest = hashlib.sha256()
    for top in CODE:
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"dirty": None if status is None else bool(status),
            "code_sha256": digest.hexdigest()}


def run_record(result, names) -> dict:
    return {"metrics": {name: {"value": result.metrics[name].value,
                               "unit": result.metrics[name].unit,
                               "n": result.metrics[name].n} for name in names},
            "attempted": result.attempted, "failed": result.failed,
            "problems": result.problems}


def quality_cell(level: int, sigma: float, seeds, counts, variant="standard") -> dict:
    """The symbolic planner's results on each seed's dataset, with mean and range."""
    values = {name: [] for name in QUALITY}
    for seed in seeds:
        dataset = make_dataset(variant, level, counts, seed)
        report = run_experiment(dataset, fit_pipeline(dataset, FitConfig(noise_sigma=sigma)),
                                noise_sigma=sigma, top_k=protocol.TOP_K, seed=seed)
        values["asacc_top1"].append(report.asacc_top1)
        values["asacc_top5"].append(report.asacc_top5)
        values["ase"].append(report.ase)  # None when no plan succeeded
    cell = {"level": level, "sigma": sigma}
    for name, got in values.items():
        known = [v for v in got if v is not None]
        cell[name] = {"values": got, "mean": statistics.fmean(known) if known else None,
                      "range": [min(known), max(known)] if known else None}
    return cell


def main(argv=None, seeds=SEEDS, counts=protocol.COUNTS) -> int:
    """The command line; `seeds` and `counts` shrink a smoke run."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    workloads = {}
    for name in WORKLOADS:
        workload = protocol.WORKLOADS[name]
        workloads[name] = {
            "end_to_end": run_record(protocol.measure(workload, seeds[0], args.seconds, counts),
                                     protocol.END_TO_END),
            "per_layer": run_record(protocol.trace(workload, seeds[0], args.seconds, counts),
                                    protocol.PER_LAYER)}
    record = {
        "schema": SCHEMA, "env": {**protocol.environment(), **tree_state()},
        "settings": {"seconds": args.seconds, "seed": seeds[0], "counts": list(counts)},
        "workloads": workloads,
        "quality": {"planner": "symbolic", "seeds": list(seeds),
                    "cells": [quality_cell(level, sigma, seeds, counts)
                              for level in LEVELS for sigma in SIGMAS]},
        "generalization": {"planner": "symbolic", "seeds": list(seeds),
                           "cells": [{"variant": variant,
                                      **quality_cell(level, 0.0, seeds, counts, variant)}
                                     for variant, level in GENERALIZATION]},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    problems = [p for w in workloads.values() for run in w.values() for p in run["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
