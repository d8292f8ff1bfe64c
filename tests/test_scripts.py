"""Smoke tests of the reproduction and trajectory scripts at a tiny scale."""

import importlib.util
import json
import os
import subprocess
import sys

from _cli import assert_own_message
from benchplan.workbench import ACTIONS, CONCEPTS
from perfbench import protocol

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_all_levels_small():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_all_levels.py"),
         "--train", "40", "--val", "2", "--test", "6", "--jobs", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert_own_message(done.stderr)  # pytest's warnings filter does not reach a subprocess
    out = done.stdout
    for level in (1, 2, 3, 4):
        assert f"level {level} (gen+fit" in out
    # at this scale the change_color keys of the level-4 fit get no token map,
    # so the interpretability block below has no change_color line
    level4 = out.split("level 4 (gen+fit")[1].splitlines()[1]
    assert level4.startswith("  no token map (fewer than 8 pairs): change_color@"), level4
    block = out.split("interpretability: dominant concept per action\n")[1].splitlines()
    assert block
    for line in block:
        action, arrow, concept = line.split()
        assert action in ACTIONS and arrow == "->" and concept in CONCEPTS, line


def test_bench_trajectory_small(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", os.path.join(ROOT, "scripts", "bench_trajectory.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out), "--seconds", "0"],
                       seeds=(11, 12), counts=(60, 2, 6)) == 0
    record = json.loads(out.read_text())
    assert record["schema"] == 1
    assert {"git_sha", "dirty", "code_sha256", "nproc", "numpy"} <= record["env"].keys()
    assert record["settings"] == {"seconds": 0, "seed": 11, "counts": [60, 2, 6]}
    assert record["workloads"].keys() == {"symbolic-l4", "noisy-pool-l4"}
    for runs in record["workloads"].values():
        for run, names in (("end_to_end", protocol.END_TO_END),
                           ("per_layer", protocol.PER_LAYER)):
            assert runs[run]["metrics"].keys() == names.keys()
            assert runs[run]["attempted"] == 6 and runs[run]["problems"] == []
    cells = record["quality"]["cells"]
    assert [(c["level"], c["sigma"]) for c in cells] == [
        (level, sigma) for level in (1, 2, 3, 4) for sigma in (0.0, 0.2, 0.4, 0.5)]
    splits = record["generalization"]["cells"]
    assert [(c["variant"], c["level"], c["sigma"]) for c in splits] == [
        ("unseen_object", 1, 0.0), ("unseen_object", 3, 0.0), ("unseen_task", 1, 0.0),
        ("unseen_task", 2, 0.0)]
    for cell in cells + splits:
        top1 = cell["asacc_top1"]
        assert len(top1["values"]) == 2 and min(top1["values"]) == top1["range"][0]
        assert top1["range"][0] <= top1["mean"] <= top1["range"][1] <= 100
