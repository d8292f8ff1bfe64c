"""The benchplan desk protocol as the benchmark runs and checks it.

One pass is gen -> fit -> [artifact round trip] -> eval on one level-4
dataset of 800/100/100 tasks, with `FitConfig` defaults except
`noise_sigma`, top_k = 5 and l_max = the level cap. Pass p of a run uses the
dataset seed `seed + DATASET_STRIDE * (p % DATASETS)`: pass 0 is the dataset
of the workload seed itself, and the quality metrics come from it. The other
datasets steady the timings across seeds, and cycling through a fixed set
keeps a run's inputs, and so its failures, the same however many passes fit
in its time.

The loop is closed and runs in one process: one caller plans the test tasks
one after another, each as soon as the previous one is adjudicated. Only
workloads with `jobs > 1` hand the eval stage to `evaluate.run_experiment`'s
process pool.

Timings are taken in wall seconds, with a probe of the machine's speed
after every stage and around every serially evaluated task. The metrics are
in reference seconds (see `speed`), because the speed of a small share of a
busy host drifts by more than the bounds between runs; the wall-clock
medians are printed beside them. A task, tens of milliseconds long, is scaled
by the probes just before and after it; a stage or a pool eval, seconds
long and spanning several changes of speed, by the run's mean probe time.

Output checks run outside the timed stages; a failed check makes the run
incorrect rather than a wrong number.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from benchplan import (
    artifacts,
    evaluate,
    fitting,
    mdp,
    symbols,
    taskgen,
    token_maps,
    workbench,
)
from benchplan.workbench import MAX_LEN_BY_LEVEL

from . import speed
from .tracing import Tracer, patched

LEVEL = 4
COUNTS = (800, 100, 100)
TOP_K = 5
L_MAX = MAX_LEN_BY_LEVEL[LEVEL]
DATASET_STRIDE = 1_000_003  # above any workload seed in use: runs never share a dataset
# Distinct datasets per run; later passes repeat them in turn. The more a run
# sees, the less its task-latency percentiles depend on its seed's datasets.
DATASETS = 8
WARMUP_COUNTS = (40, 0, 2)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Workload:
    name: str
    planner: str
    noise_sigma: float
    jobs: int
    round_trip: bool  # dataset and fit go through the artifact files before eval


# Why each workload is there, and which layers it stresses or bypasses, is
# recorded in BENCHMARK.json under the same names. token-l4 is for runs by
# hand: one 100-task pass takes ~20 s and its timings and ASAcc vary by a
# fifth between seeds, too much for the bounded set in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("symbolic-l4", "symbolic", 0.0, 1, False),
    Workload("token-l4", "token", 0.0, 1, False),
    Workload("noisy-pool-l4", "symbolic", 0.2, 2, True),
)}

# name -> (unit, better); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "protocol_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "task_ms_p50": ("ms", "lower"),
    "task_ms_p90": ("ms", "lower"),
    "asacc_top1": ("%", "higher"),
    "asacc_top5": ("%", "higher"),
    "ase": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "taskgen.generate_s": ("s", "lower"),
    "taskgen.oracle_s": ("s", "lower"),
    "taskgen.oracle_calls": ("count", "lower"),
    "workbench.apply_calls": ("count", "lower"),
    "fitting.fit_s": ("s", "lower"),
    "concepts.encode_s": ("s", "lower"),
    "symbols.kmeans_s": ("s", "lower"),
    "symbols.lloyd_iters": ("count", "lower"),
    "mdp.count_s": ("s", "lower"),
    "token_maps.affine_fit_s": ("s", "lower"),
    "mdp.plan_ms_p50": ("ms", "lower"),
    "mdp.plan_ms_p90": ("ms", "lower"),
    "mdp.legal_checks": ("count", "lower"),
    "token_maps.plan_ms_p50": ("ms", "lower"),
    "token_maps.plan_ms_p90": ("ms", "lower"),
    "token_maps.transition_calls": ("count", "lower"),
    "symbols.symbolize_calls": ("count", "lower"),
    "symbols.symbolize_s": ("s", "lower"),
    "workbench.adjudicate_s": ("s", "lower"),
    "evaluate.self_s": ("s", "lower"),
    "evaluate.no_plan_tasks": ("count", "lower"),
    "evaluate.pickled_bytes_per_task": ("bytes_computed", "lower"),
    "artifacts.save_s": ("s", "lower"),
    "artifacts.load_s": ("s", "lower"),
    "artifacts.bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _tally_lloyd(tracer: Tracer, result) -> None:
    tracer.add("symbols.lloyd_iters", result.iterations)


def trace_points(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, wrap) for every library call a traced pass records."""
    def span(name, on_result=None):
        return lambda fn: tracer.timed(fn, name, on_result)

    def count(name):
        return lambda fn: tracer.counted(fn, name)

    return [
        (taskgen, "generate_dataset", span("taskgen.generate_dataset")),
        (taskgen, "oracle_shortest_plan", span("taskgen.oracle_shortest_plan")),
        (taskgen, "apply_action", count("workbench.apply_action")),
        (workbench, "apply_action", count("workbench.apply_action")),
        (fitting, "fit_pipeline", span("fitting.fit_pipeline")),
        (fitting, "encode", span("concepts.encode")),
        (evaluate, "encode", span("concepts.encode")),
        (symbols, "fit_kmeans", span("symbols.fit_kmeans", _tally_lloyd)),
        (fitting, "symbolize", span("symbols.symbolize")),
        (evaluate, "symbolize", span("symbols.symbolize")),
        (token_maps, "symbolize", span("symbols.symbolize")),
        (fitting, "fit_transitions", span("mdp.fit_transitions")),
        (fitting, "fit_affine", span("token_maps.fit_affine")),
        (artifacts, "save_dataset", span("artifacts.save_dataset")),
        (artifacts, "save_fitted", span("artifacts.save_fitted")),
        (artifacts, "load_dataset", span("artifacts.load_dataset")),
        (artifacts, "load_fitted", span("artifacts.load_fitted")),
        (evaluate, "evaluate_task", span("evaluate.evaluate_task")),
        (evaluate, "plan", span("mdp.plan")),
        (evaluate, "plan_tokenspace", span("token_maps.plan_tokenspace")),
        (mdp, "action_legal", count("mdp.action_legal")),
        (token_maps, "transition", count("token_maps.transition")),
        (evaluate, "adjudicate", span("workbench.adjudicate")),
    ]


@dataclass
class Pass:
    seed: int
    stage_s: dict[str, float]     # wall seconds per stage
    records: list                 # TaskRecord, or None where evaluate_task raised
    task_s: list[float]           # evaluate_task wall time per task; empty for a pool eval
    task_ref_s: list[float]       # the same in reference seconds
    probe_s: list[float]          # speed probe times taken during the pass
    report: evaluate.EvalReport | None  # run_experiment on this dataset, where made
    dataset_sha256: str = ""
    artifact_bytes: int = 0

    @property
    def setup_s(self) -> float:
        return sum(t for stage, t in self.stage_s.items() if stage != "eval")

    @property
    def protocol_s(self) -> float:
        return sum(self.stage_s.values())


@dataclass
class TracedPass:
    reference: Pass  # the same pass untraced, evaluated serially like the traced one
    traced: Pass
    tracer: Tracer
    pickled_bytes_per_task: float


@dataclass
class Metric:
    value: float
    unit: str
    n: int


@dataclass
class Result:
    metrics: dict[str, Metric]
    problems: list[str]
    attempted: int
    failed: int
    inputs: dict
    wall: dict[str, float] = field(default_factory=dict)  # wall-clock medians, printed only
    scale: float = 1.0  # reference seconds per wall second in this run
    spans: list[tuple[str, str, int, float, float]] = field(default_factory=list)


def pass_seed(seed: int, index: int) -> int:
    return seed + DATASET_STRIDE * (index % DATASETS)


def test_tasks(dataset, fitted):
    """The test split and its codebook, as `run_experiment` makes them."""
    tasks = dataset.subset("test")
    return tasks, fitting.codebook_for_tasks(fitted, tasks)


def _evaluate_one(task, fitted, codebook, workload: Workload, rng):
    try:
        return evaluate.evaluate_task(
            task, fitted, codebook, planner=workload.planner,
            noise_sigma=workload.noise_sigma, top_k=TOP_K, l_max=L_MAX, rng=rng)
    except Exception:  # counted as a failed task; the record check reports it
        traceback.print_exc(file=sys.stderr)
        return None


def evaluate_serial(tasks, fitted, codebook, workload: Workload, seed: int,
                    probes: speed.Probes):
    """`evaluate_task` per test task, in order, on `run_experiment`'s RNG streams.

    Returns the records and each task's wall and reference seconds, the
    latter from the probes taken before and after every task.
    """
    records, task_s, task_ref_s = [], [], []
    probes.take()
    for i, task in enumerate(tasks):
        rng = np.random.default_rng([seed, evaluate._STREAM_EVAL, i])
        start = time.perf_counter()
        records.append(_evaluate_one(task, fitted, codebook, workload, rng))
        wall_s = time.perf_counter() - start
        probes.take()
        task_s.append(wall_s)
        task_ref_s.append(wall_s * speed.scale(probes.times[-2:]))
    return records, task_s, task_ref_s


def run_experiment(dataset, fitted, workload: Workload, seed: int, jobs: int):
    return evaluate.run_experiment(
        dataset, fitted, planner=workload.planner, noise_sigma=workload.noise_sigma,
        top_k=TOP_K, l_max=L_MAX, seed=seed, jobs=jobs)


def run_pass(workload: Workload, seed: int, counts, workdir: str, *,
             pool: bool, tracer: Tracer | None = None):
    """One timed gen -> fit -> [round trip] -> eval pass; returns (Pass, dataset, fitted)."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    probes = speed.Probes(span)
    stage_s = {}

    def staged(name, fn, *args, **kwargs):
        with span(name):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            stage_s[name] = time.perf_counter() - start
            probes.take()
        return result

    dataset = staged("gen", taskgen.generate_dataset, LEVEL, counts, seed=seed)
    fitted = staged("fit", fitting.fit_pipeline, dataset,
                    fitting.FitConfig(noise_sigma=workload.noise_sigma))

    artifact_bytes = 0
    if workload.round_trip:
        data_path = os.path.join(workdir, "data.txt")
        fit_dir = os.path.join(workdir, "fit")
        os.makedirs(fit_dir, exist_ok=True)

        def round_trip():
            artifacts.save_dataset(data_path, dataset)
            artifacts.save_fitted(fit_dir, fitted)
            return artifacts.load_dataset(data_path), artifacts.load_fitted(fit_dir)
        dataset, fitted = staged("artifacts", round_trip)
        artifact_bytes = os.path.getsize(data_path) + sum(
            os.path.getsize(os.path.join(fit_dir, f)) for f in os.listdir(fit_dir))

    report = None
    if pool:
        report = staged("eval", run_experiment, dataset, fitted, workload, seed,
                        workload.jobs)
        records, task_s, task_ref_s = list(report.records), [], []
    else:
        # the eval stage is the codebook and the tasks, without the probes between them
        with span("eval"):
            start = time.perf_counter()
            tasks, codebook = test_tasks(dataset, fitted)
            prepare_s = time.perf_counter() - start
            records, task_s, task_ref_s = evaluate_serial(
                tasks, fitted, codebook, workload, seed, probes)
        stage_s["eval"] = prepare_s + sum(task_s)

    result = Pass(seed=seed, stage_s=stage_s, records=records, task_s=task_s,
                  task_ref_s=task_ref_s, probe_s=probes.times, report=report,
                  artifact_bytes=artifact_bytes)
    return result, dataset, fitted


def dataset_sha256(dataset, workdir: str) -> str:
    """sha256 of the `save_dataset` bytes: the input fingerprint of a pass."""
    path = os.path.join(workdir, "fingerprint.txt")
    artifacts.save_dataset(path, dataset)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# output checks

def check_gt_plans(dataset) -> list[str]:
    """Every gt plan replays to its goal in the simulator within env.max_len."""
    problems = []
    for task in dataset.tasks:
        if len(task.gt_actions) > task.env.max_len:
            problems.append(f"{task.task_id}: gt plan longer than {task.env.max_len}")
            continue
        try:
            final = workbench.simulate(task.init, task.gt_actions, task.env)[-1]
        except (workbench.SimulationError, ValueError) as err:
            problems.append(f"{task.task_id}: gt plan does not replay: {err}")
            continue
        if not workbench.goal_reached(final, task.goal, task.env.level):
            problems.append(f"{task.task_id}: gt plan misses its goal")
    return problems


def check_same_records(label: str, got, want) -> list[str]:
    if list(got) == list(want):
        return []
    diff = sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))
    return [f"{label}: {diff} of {len(want)} task records differ"]


def check_pass(p: Pass, dataset, earlier: list[Pass]) -> list[str]:
    """A new dataset's gt plans replay; a repeated one reproduces its first pass."""
    if len(earlier) < DATASETS:
        return check_gt_plans(dataset)
    first = earlier[len(earlier) % DATASETS]
    problems = check_same_records(f"repeat of dataset {p.seed}", p.records, first.records)
    if p.dataset_sha256 != first.dataset_sha256:
        problems.append(f"dataset {p.seed} was not reproduced")
    return problems


def failed_tasks(records) -> list[int]:
    """Test-split indices of the tasks whose evaluation raised or returned no attempt."""
    return [i for i, r in enumerate(records) if r is None or not r.attempt_success]


# ---------------------------------------------------------------------------
# runs

def warm_up(workload: Workload, workdir: str):
    """Untimed tiny pass: imports, allocator and numpy set-up finish before timing."""
    run_pass(workload, 0, WARMUP_COUNTS, workdir, pool=False)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float, counts=COUNTS) -> Result:
    """Untraced passes for `seconds` of wall time; end-to-end metrics.

    Pass timings are medians over passes, so a pass slowed by other load on
    the machine moves them less than a pooled total would; task latencies are
    percentiles over every task timed in the run.
    """
    problems: list[str] = []
    passes: list[Pass] = []
    pool = workload.jobs > 1
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        warm_up(workload, workdir)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            p, dataset, fitted = run_pass(workload, pass_seed(seed, len(passes)),
                                          counts, workdir, pool=pool)
            p.dataset_sha256 = dataset_sha256(dataset, workdir)
            problems += check_pass(p, dataset, passes)
            if pool:
                # the serial loop checks the pool's records and gives the
                # per-task latencies that the pool's workers cannot report
                tasks, codebook = test_tasks(dataset, fitted)
                probes = speed.Probes()
                serial, p.task_s, p.task_ref_s = evaluate_serial(
                    tasks, fitted, codebook, workload, p.seed, probes)
                p.probe_s += probes.times
                problems += check_same_records("serial loop vs pool", serial, p.records)
            elif not passes:
                p.report = run_experiment(dataset, fitted, workload, p.seed, jobs=1)
                problems += check_same_records("serial loop vs run_experiment",
                                               p.records, p.report.records)
            passes.append(p)
            del dataset, fitted

    def median(fn) -> float:
        return float(statistics.median(fn(p) for p in passes))

    scale = speed.scale([t for p in passes for t in p.probe_s])

    def eval_ref_s(p: Pass) -> float:
        if pool:
            return p.stage_s["eval"] * scale
        return (p.stage_s["eval"] - sum(p.task_s)) * scale + sum(p.task_ref_s)

    task_s = [t for p in passes for t in p.task_s]
    task_ref_s = [t for p in passes for t in p.task_ref_s]
    wall = {
        "setup_s": median(lambda p: p.setup_s),
        "protocol_s": median(lambda p: p.protocol_s),
        "tasks_per_s": median(lambda p: len(p.records) / p.stage_s["eval"]),
        "task_ms_p50": 1e3 * percentile(task_s, 50),
        "task_ms_p90": 1e3 * percentile(task_s, 90),
    }
    n_passes = len(passes)
    quality = passes[0].report
    metrics = {
        "setup_s": Metric(wall["setup_s"] * scale, "s", n_passes),
        "protocol_s": Metric(median(lambda p: p.setup_s * scale + eval_ref_s(p)),
                             "s", n_passes),
        "tasks_per_s": Metric(median(lambda p: len(p.records) / eval_ref_s(p)), "1/s",
                              sum(len(p.records) for p in passes)),
        "task_ms_p50": Metric(1e3 * percentile(task_ref_s, 50), "ms", len(task_ref_s)),
        "task_ms_p90": Metric(1e3 * percentile(task_ref_s, 90), "ms", len(task_ref_s)),
        "asacc_top1": Metric(quality.asacc_top1, "%", quality.n_tasks),
        "asacc_top5": Metric(quality.asacc_top5, "%", quality.n_tasks),
        "ase": Metric(quality.ase if quality.ase is not None else 0.0, "ratio",
                      sum(r.top1_success for r in quality.records)),
        "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
    }
    result = _result(metrics, problems, passes, counts)
    result.wall, result.scale = wall, scale
    return result


def trace(workload: Workload, seed: int, seconds: float, counts=COUNTS) -> Result:
    """Per pass: an untraced serial reference, then the same pass traced.

    Both evaluate serially, also on pool workloads, whose workers would keep
    their spans to themselves; so the ratio of the two totals is the tracing
    overhead alone. The pool's records are checked against the traced ones.
    """
    problems: list[str] = []
    traced: list[TracedPass] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        warm_up(workload, workdir)
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            s = pass_seed(seed, len(traced))
            ref, _, _ = run_pass(workload, s, counts, workdir, pool=False)
            tracer = Tracer()
            with patched(trace_points(tracer)):
                p, dataset, fitted = run_pass(workload, s, counts, workdir,
                                              pool=False, tracer=tracer)
            p.dataset_sha256 = dataset_sha256(dataset, workdir)
            problems += check_pass(p, dataset, [t.traced for t in traced])
            problems += check_same_records("traced vs untraced pass", p.records,
                                           ref.records)
            if not traced:
                report = run_experiment(dataset, fitted, workload, s, workload.jobs)
                problems += check_same_records(
                    f"traced serial loop vs run_experiment(jobs={workload.jobs})",
                    p.records, report.records)
            traced.append(TracedPass(ref, p, tracer, pickled_bytes_per_task(
                dataset, fitted, workload, s)))
            del dataset, fitted

    scale = speed.scale([t for tp in traced for p in (tp.reference, tp.traced)
                         for t in p.probe_s])
    for tp in traced:
        tp.tracer.rescale(scale)
    result = _result(layer_metrics(traced), problems, [t.traced for t in traced], counts)
    result.scale = scale
    result.spans = span_table([t.tracer for t in traced])
    return result


def span_table(tracers: list[Tracer]) -> list[tuple[str, str, int, float, float]]:
    """(stage, name, calls, total_s, self_s) summed over the traced passes."""
    rows: dict[tuple[str, str], list] = {}
    for tracer in tracers:
        for key, stats in tracer.spans.items():
            row = rows.setdefault(key, [0, 0.0, 0.0])
            row[0] += stats.count
            row[1] += stats.total_s
            row[2] += stats.self_s
    return [(*key, *rows[key]) for key in sorted(rows)]


def pickled_bytes_per_task(dataset, fitted, workload: Workload, seed: int) -> float:
    """Mean pickle size of the work items `run_experiment` sends to its pool.

    Computed here from the same tuple the library builds, not measured in a
    pool.
    """
    tasks = dataset.subset("test")
    codebook = fitting.codebook_for_tasks(fitted, tasks)
    sizes = [len(pickle.dumps((i, task, fitted, codebook, workload.planner,
                               workload.noise_sigma, TOP_K, L_MAX, seed)))
             for i, task in enumerate(tasks)]
    return sum(sizes) / len(sizes)


def layer_metrics(traced: list[TracedPass]) -> dict[str, Metric]:
    """Per-pass medians of the traced totals; latency percentiles pooled over passes."""
    n = len(traced)

    def per_pass(fn, unit: str) -> Metric:
        return Metric(float(statistics.median(fn(t) for t in traced)), unit, n)

    def span_s(*names):
        return per_pass(lambda t: sum(t.tracer.total_s(name) for name in names), "s")

    def calls(name):
        return per_pass(lambda t: t.tracer.calls(name), "count")

    def counter(name):
        return per_pass(lambda t: t.tracer.counts.get(name, 0), "count")

    def latency_ms(name, q):
        samples = [d for t in traced for d in t.tracer.durations(name)]
        return Metric(1e3 * percentile(samples, q), "ms", len(samples))

    traced_s = sum(t.traced.protocol_s for t in traced)
    reference_s = sum(t.reference.protocol_s for t in traced)
    return {
        "taskgen.generate_s": span_s("taskgen.generate_dataset"),
        "taskgen.oracle_s": span_s("taskgen.oracle_shortest_plan"),
        "taskgen.oracle_calls": calls("taskgen.oracle_shortest_plan"),
        "workbench.apply_calls": counter("workbench.apply_action"),
        "fitting.fit_s": span_s("fitting.fit_pipeline"),
        "concepts.encode_s": span_s("concepts.encode"),
        "symbols.kmeans_s": span_s("symbols.fit_kmeans"),
        "symbols.lloyd_iters": counter("symbols.lloyd_iters"),
        "mdp.count_s": span_s("mdp.fit_transitions"),
        "token_maps.affine_fit_s": span_s("token_maps.fit_affine"),
        "mdp.plan_ms_p50": latency_ms("mdp.plan", 50),
        "mdp.plan_ms_p90": latency_ms("mdp.plan", 90),
        "mdp.legal_checks": counter("mdp.action_legal"),
        "token_maps.plan_ms_p50": latency_ms("token_maps.plan_tokenspace", 50),
        "token_maps.plan_ms_p90": latency_ms("token_maps.plan_tokenspace", 90),
        "token_maps.transition_calls": counter("token_maps.transition"),
        "symbols.symbolize_calls": calls("symbols.symbolize"),
        "symbols.symbolize_s": span_s("symbols.symbolize"),
        "workbench.adjudicate_s": span_s("workbench.adjudicate"),
        "evaluate.self_s": per_pass(lambda t: t.tracer.self_s("evaluate.evaluate_task"), "s"),
        "evaluate.no_plan_tasks": per_pass(lambda t: len(failed_tasks(t.traced.records)),
                                           "count"),
        "evaluate.pickled_bytes_per_task": per_pass(lambda t: t.pickled_bytes_per_task,
                                                    "bytes_computed"),
        "artifacts.save_s": span_s("artifacts.save_dataset", "artifacts.save_fitted"),
        "artifacts.load_s": span_s("artifacts.load_dataset", "artifacts.load_fitted"),
        "artifacts.bytes": per_pass(lambda t: t.traced.artifact_bytes, "bytes"),
        "trace.overhead_ratio": Metric(traced_s / reference_s, "ratio", n),
    }


# ---------------------------------------------------------------------------
# provenance

def _result(metrics: dict[str, Metric], problems: list[str], passes: list[Pass],
            counts) -> Result:
    """Attempts and failures count each distinct test task once, however often run."""
    distinct = passes[:DATASETS]
    inputs = {"level": LEVEL, "counts": list(counts), "top_k": TOP_K, "l_max": L_MAX,
              "passes": len(passes),
              "dataset_seeds": [p.seed for p in distinct],
              "dataset_sha256": [p.dataset_sha256 for p in distinct],
              "failed_tasks": [f"{p.seed}/test/{i}" for p in distinct
                               for i in failed_tasks(p.records)]}
    return Result(metrics=metrics, problems=problems,
                  attempted=sum(len(p.records) for p in distinct),
                  failed=len(inputs["failed_tasks"]), inputs=inputs)


def git_sha(root: str = ROOT) -> str:
    """Commit of a git checkout, read from `.git` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg_1m": os.getloadavg()[0]}
