#!/usr/bin/env python3
"""Desk-scale reproduction run: all four levels plus generalization splits.

Generates a dataset per level, fits the full pipeline, and evaluates the
symbolic planner against the chance baseline and the token-space ablation.
Prints one results table and the interpretability summary.

Usage: python3 scripts/run_all_levels.py [--train 800 --val 100 --test 100]
       [--sigma 0.0] [--seed 11] [--jobs N] [--skip-generalization]
"""

import argparse
import sys
import time

from benchplan.cli import count_arg, positive_arg, seed_arg, sigma_arg
from benchplan.evaluate import interpretability_report, run_experiment
from benchplan.fitting import FitConfig, fit_pipeline, unmapped_note
from benchplan.symbols import InsufficientPoints, UnmeasurablePoints
from benchplan.taskgen import VARIANTS, make_dataset
from benchplan.token_maps import InsufficientPairs

GENERALIZATION = (  # (variant, heading, levels) of each generalization split
    ("unseen_object", "unseen objects (retyped test split, same model)", (1, 3)),
    ("unseen_task", "unseen tasks (held-out action combinations)", (1, 2)),
)


def row(label, rep):
    ase = f"{rep.ase:.3f}" if rep.ase is not None else "  -  "
    print(f"  {label:14s} top1 {rep.asacc_top1:6.1f}  top5 {rep.asacc_top5:6.1f}  "
          f"ase {ase}  fsd {rep.fsd_mean:.3f}")


def main():
    ap = argparse.ArgumentParser()
    # the fit needs a training task and the table a test task
    ap.add_argument("--train", type=positive_arg, default=800)
    ap.add_argument("--val", type=count_arg, default=100)
    ap.add_argument("--test", type=positive_arg, default=100)
    ap.add_argument("--seed", type=seed_arg, default=11)
    ap.add_argument("--sigma", type=sigma_arg, default=0.0)
    ap.add_argument("--jobs", type=positive_arg, default=1)
    ap.add_argument("--skip-generalization", action="store_true")
    args = ap.parse_args()
    try:
        reproduce(args)
    except (InsufficientPoints, InsufficientPairs) as err:  # too little training data
        sys.exit(f"error: {err}")  # as `benchplan fit`: one line, exit 1
    except UnmeasurablePoints as err:  # token distances overflow a float
        sys.exit(f"error: argument --sigma: {args.sigma:g} is too large: {err}")


def reproduce(args):
    counts = (args.train, args.val, args.test)
    config = FitConfig(noise_sigma=args.sigma)

    fitted_by_level = {}
    for level in VARIANTS["standard"].levels:
        t0 = time.perf_counter()
        dataset = make_dataset("standard", level, counts, args.seed)
        fitted = fit_pipeline(dataset, config)
        fitted_by_level[level] = (dataset, fitted)
        print(f"level {level} (gen+fit {time.perf_counter() - t0:.1f}s, "
              f"purity min {min(fitted.train_purity):.3f})")
        if note := unmapped_note(fitted):
            print(f"  {note}")
        for planner in ("symbolic", "chance", "token"):
            rep = run_experiment(dataset, fitted, planner=planner,
                                 noise_sigma=args.sigma, jobs=args.jobs)
            row(planner, rep)

    for variant, heading, levels in () if args.skip_generalization else GENERALIZATION:
        print(f"\ngeneralization: {heading}")
        for level in levels:
            dataset = make_dataset(variant, level, counts, args.seed)
            standard, fitted = fitted_by_level[level]
            if dataset.subset("train") != standard.subset("train"):  # trains on its own tasks
                fitted = fit_pipeline(dataset, config)
            row(f"level {level}", run_experiment(dataset, fitted,
                                                 noise_sigma=args.sigma, jobs=args.jobs))

    print("\ninterpretability: dominant concept per action")
    _, fitted = fitted_by_level[4]
    report = interpretability_report(fitted.maps, fitted.codebook, seed=args.seed)
    for action, concept in report.argmax_concepts().items():
        print(f"  {action:14s} -> {concept}")


if __name__ == "__main__":
    main()
