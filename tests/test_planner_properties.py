"""Properties of every plan the symbolic planner returns, on drawn tasks of
levels 2-4 planned from noiseless tokens against the session fits: each plan
reaches its goal, is no shorter than the BFS gt plan and no longer than the
level's step cap, and the plans are distinct and ranked by length ascending,
then score descending."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchplan.evaluate import plan_task
from benchplan.mdp import NoPlanFound, base_action
from benchplan.taskgen import generate_task
from benchplan.workbench import adjudicate

# the fit each level's tasks plan against; a level-2 bench is level 1's with
# obstacles, which the masks apply, and the same action keys
FITS = {2: "level1_run", 3: "level3_run", 4: "level4_run"}


@pytest.mark.parametrize("level", FITS)
@settings(max_examples=400, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_returned_plan_reaches_its_goal_in_rank_order(request, level, seed):
    _, fitted = request.getfixturevalue(FITS[level])
    task = generate_task(level, np.random.default_rng(seed))
    try:
        result, _, _ = plan_task(task, fitted, fitted.codebook, planner="symbolic",
                                 noise_sigma=0.0, top_k=5, l_max=None, rng=None)
    except NoPlanFound:  # a row the training split never saw can cut every path
        return
    for p in result.plans:
        assert adjudicate(task, tuple(map(base_action, p.actions))).failure_reason == "none"
        assert len(task.gt_actions) <= len(p.actions) <= task.env.max_len
    assert len({p.actions for p in result.plans}) == len(result.plans)
    ranks = [(len(p.actions), -p.score) for p in result.plans]
    assert ranks == sorted(ranks)
