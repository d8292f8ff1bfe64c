"""Tests of the benchmark itself, at tiny task counts.

Run from the repository root: PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import protocol, speed
from perfbench.tracing import Tracer, patched

TINY = (60, 5, 8)
SEED = 3


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(protocol.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=sorted(protocol.WORKLOADS))
def workload(request):
    return protocol.WORKLOADS[request.param]


def test_names_and_units_match_benchmark_json(spec):
    assert {w["name"] for w in spec["workloads"]} <= set(protocol.WORKLOADS)
    for key, table in (("end_to_end", protocol.END_TO_END),
                       ("per_layer", protocol.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_measure_emits_every_end_to_end_metric_with_its_unit(workload):
    result = protocol.measure(workload, SEED, 0, counts=TINY)
    assert result.problems == []
    assert set(result.metrics) == set(protocol.END_TO_END)
    for name, (unit, _) in protocol.END_TO_END.items():
        assert result.metrics[name].unit == unit
        assert result.metrics[name].n >= 1
    assert result.attempted == TINY[2]
    assert len(result.inputs["dataset_sha256"]) == len(result.inputs["dataset_seeds"]) == 1


def test_repeated_datasets_are_reproduced_and_counted_once():
    result = protocol.measure(protocol.WORKLOADS["symbolic-l4"], SEED, 12.0, counts=TINY)
    assert result.problems == []
    assert result.inputs["passes"] > protocol.DATASETS
    assert result.attempted == protocol.DATASETS * TINY[2]
    assert result.failed == len(result.inputs["failed_tasks"])


def test_trace_emits_every_layer_metric_and_restores_the_library(workload):
    tracer = Tracer()
    points = protocol.trace_points(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in points]
    result = protocol.trace(workload, SEED, 0, counts=TINY)
    assert result.problems == []
    assert set(result.metrics) == set(protocol.PER_LAYER)
    for name, (unit, _) in protocol.PER_LAYER.items():
        assert result.metrics[name].unit == unit
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_patches_are_restored_when_the_pass_raises():
    tracer = Tracer()
    points = protocol.trace_points(tracer)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in points]
    with pytest.raises(RuntimeError):
        with patched(points):
            assert protocol.taskgen.generate_dataset is not originals[0][2]
            raise RuntimeError("pass failed")
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_self_times_are_non_negative_and_within_their_stage(tmp_path):
    workload = protocol.WORKLOADS["noisy-pool-l4"]
    tracer = Tracer()
    with patched(protocol.trace_points(tracer)):
        protocol.run_pass(workload, SEED, TINY, str(tmp_path), pool=False, tracer=tracer)
    stages = {stage: s.total_s for (stage, name), s in tracer.spans.items() if stage == name}
    assert set(stages) == {"gen", "fit", "artifacts", "eval"}
    for stage, total in stages.items():
        rows = [s for (st, _), s in tracer.spans.items() if st == stage]
        assert all(s.self_s >= 0.0 for s in rows)
        assert sum(s.self_s for s in rows) <= total * (1 + 1e-9)
    assert tracer.calls("evaluate.evaluate_task") == TINY[2]
    assert tracer.counts["workbench.apply_action"] > 0


@pytest.mark.parametrize("name", ["symbolic-l4", "noisy-pool-l4"])
def test_times_are_scaled_by_the_probe_time(monkeypatch, name):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    result = protocol.measure(protocol.WORKLOADS[name], SEED, 0, counts=TINY)
    assert result.problems == []
    assert result.scale == pytest.approx(0.5)
    for name in ("setup_s", "protocol_s", "task_ms_p50", "task_ms_p90"):
        assert result.metrics[name].value == pytest.approx(result.wall[name] / 2)
    assert result.metrics["tasks_per_s"].value == pytest.approx(2 * result.wall["tasks_per_s"])


def test_check_rejects_a_gt_plan_that_misses_its_goal():
    dataset = protocol.taskgen.generate_dataset(4, (3, 0, 1), seed=SEED)
    assert protocol.check_gt_plans(dataset) == []
    task = dataset.tasks[0]
    dataset.tasks[0] = replace(task, gt_actions=task.gt_actions[:-1])
    assert len(protocol.check_gt_plans(dataset)) == 1


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(os.path.join(protocol.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic-l4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert run.returncode == 2
    assert run.stdout == ""
