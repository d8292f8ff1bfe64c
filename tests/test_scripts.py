"""Smoke test of the reproduction script at a tiny scale."""

import os
import subprocess
import sys

from _cli import assert_own_message
from benchplan.workbench import ACTIONS, CONCEPTS

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
