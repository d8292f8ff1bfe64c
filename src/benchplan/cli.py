"""Command-line pipeline: gen, fit, plan, eval, report.

Exit codes: 0 success, 1 usage error, 2 missing, malformed or mismatched
artifacts, or a path that cannot be read or written, 3 acceptance-threshold
failure (including a planner that finds no plan). Exits 1 and 2 print one
`error:` line.
The default artifact directory can be set via BENCHPLAN_ARTIFACTS.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import artifacts, streams
from .concepts import SeparationUnachievable, UnknownValue
from .evaluate import interpretability_report, plan_task, run_experiment
from .fitting import MAX_DIM, FitConfig, codebook_for_tasks, fit_pipeline, unmapped_note
from .mdp import InvalidInit, NoPlanFound
from .symbols import InsufficientPoints, UnmeasurablePoints
from .taskgen import (
    N_TYPES,
    SPLITS,
    UNSEEN_TYPES,
    VARIANTS,
    Task,
    Unreachable,
    make_dataset,
    oracle_shortest_plan,
)
from .token_maps import InsufficientPairs, UnknownAction, rollout, token_mse
from .workbench import CONCEPTS, MAX_TYPES, EnvConfig

ENV_ARTIFACT_DIR = "BENCHPLAN_ARTIFACTS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ARTIFACTS = 2
EXIT_THRESHOLD = 3


def _bounded(kind, rule: str, ok):
    """An argparse `type`: `kind` of the text, refused with `must be <rule>`
    unless `ok` holds. It carries `kind`'s name, which argparse prints for text
    `kind` cannot read ("invalid int value: 'abc'")."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    convert.__name__ = kind.__name__
    return convert


_AT_LEAST_0 = _bounded(int, ">= 0", lambda v: v >= 0)
_SEED = _bounded(int, f"in 0..{streams.SEED_BOUND - 1}", lambda v: 0 <= v < streams.SEED_BOUND)
_AT_LEAST_1 = _bounded(int, ">= 1", lambda v: v >= 1)
_FINITE_AT_LEAST_0 = _bounded(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to usage lines and exit code 2
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def cmd_gen(args) -> int:
    dataset = make_dataset(args.variant, args.level, (args.train, args.val, args.test),
                           args.seed, args.unseen_types)
    if args.codebook_seed is not None:
        dataset.codebook_seed = args.codebook_seed
    artifacts.save_dataset(args.out, dataset)
    lengths = [len(t.gt_actions) for t in dataset.tasks]
    print(f"wrote {len(dataset.tasks)} level-{args.level} tasks to {args.out} "
          f"(variant {dataset.variant}, mean gt length {np.mean(lengths):.2f}, "
          f"max {max(lengths)})")
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = artifacts.load_dataset(args.data)
    config = FitConfig(dim=args.dim, min_sep=args.min_sep, noise_sigma=args.sigma,
                       thresh=args.thresh, seed=args.seed, restarts=args.restarts)
    try:
        fitted = fit_pipeline(dataset, config)
    except SeparationUnachievable as err:  # --min-sep too large for --dim
        print(f"error: argument --min-sep: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (InsufficientPoints, InsufficientPairs) as err:  # too little training data
        print(f"error: {args.data}: {err}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownValue as err:  # the dataset's content: an artifact error
        raise artifacts.SchemaMismatch(f"{args.data}: {err}") from err
    artifacts.save_fitted(args.artifacts, fitted)
    print(f"fit {len(dataset.subset('train'))} training tasks -> {args.artifacts}")
    for name, p in zip(CONCEPTS, fitted.train_purity):
        print(f"  purity[{name}] = {p:.4f}")
    print(f"  transition keys: {', '.join(fitted.model.action_keys)}")
    if note := unmapped_note(fitted):
        print(f"  {note}")
    return EXIT_OK


def _adhoc_task(args):
    env = EnvConfig(level=args.level, obstacles=artifacts.parse_cells(args.obstacles or "-"),
                    dyer=artifacts.parse_cell(args.dyer) if args.dyer else None,
                    dyer_color=args.dyer_color)
    init, goal = (artifacts.parse_state(s.split(",")) for s in (args.init, args.goal))
    try:
        gt = oracle_shortest_plan(env, init, goal)
    except Unreachable:
        gt = ()
    return Task(env=env, init=init, goal=goal, gt_actions=gt, task_id="adhoc")


def cmd_plan(args) -> int:
    fitted = artifacts.load_fitted(args.artifacts)
    if args.task_id:
        dataset = artifacts.load_dataset(args.data)
        artifacts.check_compatible(dataset, fitted)
        task = next((t for t in dataset.tasks if t.task_id == args.task_id), None)
        if task is None:
            raise artifacts.MissingArtifact(f"task {args.task_id!r} not in {args.data}")
    else:
        try:
            task = _adhoc_task(args)
        except ValueError as err:  # malformed spec, or a state/bench the simulator rejects
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
    # a dataset task may carry held-out object types, which eval encodes the same way
    codebook = codebook_for_tasks(fitted, [task]) if args.task_id else fitted.codebook
    try:
        result, init_tokens, goal_tokens = plan_task(
            task, fitted, codebook, planner="symbolic", noise_sigma=args.sigma,
            top_k=args.topk, l_max=args.l_max, rng=streams.rng(args.seed, "plan"))
    except NoPlanFound as err:
        print(f"no plan found: {err}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (UnknownValue, InvalidInit) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    print(f"task {task.task_id} (level {task.env.level}, "
          f"gt length {len(task.gt_actions)})")
    for i, p in enumerate(result.plans, 1):
        seq = " ".join(p.actions) if p.actions else "(empty plan)"
        print(f"  {i}. {seq}  [score {p.score:.6f}]")
    for warning in result.warnings:
        print(f"  warning: {warning}")
    actions = result.best.actions
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows is named below
            mses = [token_mse(t, goal_tokens) for t in rollout(init_tokens, actions, fitted.maps)]
    except UnknownAction as err:  # fit gave the key too few pairs for a map
        print(f"token rollout: {err}")
    else:
        step = next((i for i, mse in enumerate(mses[1:]) if not math.isfinite(mse)), None)
        if step is None:
            print(f"token rollout: final mse to goal tokens {mses[-1]:.6f}")
        else:
            print(f"token rollout: step {step}: the map of {actions[step]!r} gives tokens "
                  "whose mse to goal tokens is not finite")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = artifacts.load_dataset(args.data)
    if not dataset.subset(args.split):
        print(f"error: {args.data} has no {args.split} tasks", file=sys.stderr)
        return EXIT_USAGE
    fitted = artifacts.load_fitted(args.artifacts)
    artifacts.check_compatible(dataset, fitted)
    args.sigma = fitted.config.noise_sigma if args.sigma is None else args.sigma
    config_fields = dict(data=os.path.basename(args.data), sigma=args.sigma,
                         top_k=args.topk, l_max=args.l_max if args.l_max else "env",
                         seed=args.seed)
    planners = ["symbolic"]
    if args.compare:
        planners += ["chance", "token"]
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before any planning
    reports = {}
    for planner in planners:
        report = run_experiment(dataset, fitted, planner=planner, split=args.split,
                                noise_sigma=args.sigma, top_k=args.topk,
                                l_max=args.l_max, seed=args.seed, jobs=args.jobs)
        reports[planner] = report
        artifacts.save_report(args.out, report, config_fields)
        ase_txt = f"{report.ase:.4f}" if report.ase is not None else "absent"
        print(f"{planner:9s} top1 {report.asacc_top1:6.2f}%  "
              f"top5 {report.asacc_top5:6.2f}%  ase {ase_txt}  "
              f"fsd {report.fsd_mean:.4f}")
    if args.min_top1 is not None and reports["symbolic"].asacc_top1 < args.min_top1:
        print(f"top-1 ASAcc {reports['symbolic'].asacc_top1:.2f}% below "
              f"threshold {args.min_top1:.2f}%", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_report(args) -> int:
    fitted = artifacts.load_fitted(args.artifacts)
    try:
        rep = interpretability_report(fitted.maps, fitted.codebook,
                                      samples=args.samples, seed=args.seed)
    except UnmeasurablePoints as err:  # a map that overflows: the fit's content
        path = os.path.join(args.artifacts, artifacts.FIT_FILE)
        raise artifacts.SchemaMismatch(f"{path}: {err}") from err
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "displacement.tsv"), "w") as fh:
        fh.write(rep.to_text())
    with open(os.path.join(args.out, "position_changes.tsv"), "w") as fh:
        fh.write(rep.position_tsv())
    print(rep.to_text())
    print("dominant concept per action:")
    for action, concept in rep.argmax_concepts().items():
        print(f"  {action:14s} -> {concept}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="benchplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several subcommands share, each declared once
    artifacts_opt = argparse.ArgumentParser(add_help=False)
    artifacts_opt.add_argument("--artifacts",
                               default=os.environ.get(ENV_ARTIFACT_DIR, "artifacts"))
    seed_opt = argparse.ArgumentParser(add_help=False)
    seed_opt.add_argument("--seed", type=_SEED, default=0)
    search_opts = argparse.ArgumentParser(add_help=False)
    search_opts.add_argument("--topk", type=_AT_LEAST_1, default=5)
    search_opts.add_argument("--l-max", type=_AT_LEAST_1, default=None)

    p = sub.add_parser("gen", parents=[seed_opt], help="generate a task dataset")
    p.add_argument("--level", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--train", type=_AT_LEAST_0, default=800)
    p.add_argument("--val", type=_AT_LEAST_0, default=100)
    p.add_argument("--test", type=_AT_LEAST_0, default=100)
    p.add_argument("--codebook-seed", type=_SEED, default=None)
    p.add_argument("--variant", choices=tuple(VARIANTS), default="standard")
    p.add_argument("--unseen-types", default=UNSEEN_TYPES, type=_bounded(
        int, f"in 1..{MAX_TYPES - N_TYPES}", lambda v: 1 <= v <= MAX_TYPES - N_TYPES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", parents=[artifacts_opt],
                       help="fit symbolizer, transition model, and maps")
    p.add_argument("--data", required=True)
    p.add_argument("--dim", type=_bounded(int, f"in 2..{MAX_DIM}", lambda v: 2 <= v <= MAX_DIM),
                   default=FitConfig.dim)
    p.add_argument("--min-sep", type=_FINITE_AT_LEAST_0, default=FitConfig.min_sep)
    p.add_argument("--sigma", type=_FINITE_AT_LEAST_0, default=FitConfig.noise_sigma)
    p.add_argument("--thresh", type=_bounded(float, "in (0, 1)", lambda v: 0 < v < 1),
                   default=FitConfig.thresh)
    p.add_argument("--seed", type=_SEED, default=FitConfig.seed)
    p.add_argument("--restarts", type=_AT_LEAST_1, default=FitConfig.restarts)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("plan", parents=[artifacts_opt, seed_opt, search_opts],
                       help="plan one task and print the top-k sequences")
    p.add_argument("--data", default=None)
    p.add_argument("--task-id", default=None)
    p.add_argument("--level", type=int, choices=(1, 2, 3, 4), default=1)
    p.add_argument("--init", default=None, help="type,x,y,rot,color,size")
    p.add_argument("--goal", default=None)
    p.add_argument("--obstacles", default=None, help="x,y;x,y")
    p.add_argument("--dyer", default=None, help="x,y")
    p.add_argument("--dyer-color", type=int, default=None)
    p.add_argument("--sigma", type=_FINITE_AT_LEAST_0, default=0.0)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("eval", parents=[artifacts_opt, seed_opt, search_opts],
                       help="evaluate the planner on a dataset split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="reports")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--sigma", type=_FINITE_AT_LEAST_0, default=None,
                   help="eval-time token noise (default: the fit's sigma)")
    p.add_argument("--jobs", type=_AT_LEAST_1, default=os.cpu_count() or 1)
    p.add_argument("--compare", action="store_true",
                   help="also run the chance baseline and the token-space planner")
    p.add_argument("--min-top1", type=_bounded(float, "in [0, 100]", lambda v: 0 <= v <= 100),
                   default=None, help="exit 3 when symbolic top-1 ASAcc falls below this")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[artifacts_opt, seed_opt],
                       help="emit interpretability tables from fitted maps")
    p.add_argument("--out", default="reports")
    p.add_argument("--samples", type=_AT_LEAST_1, default=200)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "plan" and not args.task_id and not (args.init and args.goal):
            parser.error("plan needs either --task-id with --data, or --init and --goal")
        if args.command == "plan" and args.task_id and not args.data:
            parser.error("--task-id needs --data")
        if args.command == "gen" and args.train + args.val + args.test == 0:
            parser.error("--train, --val and --test sum to 0")
        if args.command == "gen" and args.level not in (levels := VARIANTS[args.variant].levels):
            parser.error(f"--variant {args.variant} needs --level {' or '.join(map(str, levels))}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (artifacts.MissingArtifact, artifacts.SchemaMismatch, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ARTIFACTS
    except SeparationUnachievable as err:  # plan, eval: more held-out types than the fit can place
        print(f"error: {args.data}: {err}", file=sys.stderr)
        return EXIT_ARTIFACTS
    except UnmeasurablePoints as err:  # fit, plan, eval: token distances overflow a float
        print(f"error: argument --sigma: {args.sigma:g} is too large: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
