"""One compiled move table per bench: `apply_action` and the BFS oracle read it
and agree with the per-action rules and the ObjectState BFS they replaced."""

import itertools

import numpy as np
import pytest

from benchplan.taskgen import Unreachable, oracle_shortest_plan
from benchplan.workbench import (
    ACTIONS,
    N_COLORS,
    N_SIZES,
    ROTATIONS,
    X_CELLS,
    Y_CELLS,
    ActionError,
    Collision,
    DyerUnavailable,
    EnvConfig,
    ObjectState,
    OutOfBounds,
    apply_action,
    cells_connected,
)

from _oracles import oracle_apply_action, oracle_bfs, oracle_cells_connected

CELLS = list(itertools.product(range(X_CELLS), range(Y_CELLS)))


def random_bench(level, rng):
    """Any legal bench of the level, free cells connected or not: 0-4 obstacles
    at level 2 and up, plus a dyer of a random color at levels 3 and 4."""
    if level == 1:
        return EnvConfig(level=1)
    picks = [CELLS[int(i)] for i in rng.choice(len(CELLS), size=5, replace=False)]
    obstacles = tuple(picks[:int(rng.integers(0, 5))])
    if level == 2:
        return EnvConfig(level=2, obstacles=obstacles)
    return EnvConfig(level=level, obstacles=obstacles, dyer=picks[4],
                     dyer_color=int(rng.integers(N_COLORS)))


def outcome(apply, state, action, env):
    """The state an action leads to, or the class and message of its error."""
    try:
        return apply(state, action, env)
    except (ActionError, ValueError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_apply_action_equals_frozen_rules(level):
    # level 1 has one bench, so it is checked once; the others on 500 benches each
    rng = np.random.default_rng([23, level])
    outcomes = set()
    for _ in range(1 if level == 1 else 500):
        env = random_bench(level, rng)
        type_id, size = int(rng.integers(12)), int(rng.integers(N_SIZES))
        states = [ObjectState(type_id, x, y, rotation, color, size) for (x, y), rotation, color
                  in itertools.product(CELLS, ROTATIONS, range(N_COLORS))]
        for action in ACTIONS:
            new = [outcome(apply_action, state, action, env) for state in states]
            assert new == [outcome(oracle_apply_action, state, action, env) for state in states], \
                (env, action)
            outcomes.update(o[0] if isinstance(o, tuple) else ObjectState for o in new)
    assert outcome(apply_action, states[0], "jump", env) == \
        outcome(oracle_apply_action, states[0], "jump", env)
    assert outcomes == {ObjectState, OutOfBounds, DyerUnavailable} | \
        ({Collision} if level > 1 else set())


def random_case(level, rng):
    """A bench, an init and a goal. Init sits on any cell, an obstacle or the
    dyer included; the goal copies each of init's fields at even odds and draws
    the rest, so init == goal, blocked goals and differing rotations, types and
    sizes all come up."""
    env = random_bench(level, rng)
    init = ObjectState(int(rng.integers(12)), *CELLS[int(rng.integers(len(CELLS)))],
                       ROTATIONS[int(rng.integers(4))], int(rng.integers(N_COLORS)),
                       int(rng.integers(N_SIZES)))
    drawn = (int(rng.integers(12)), *CELLS[int(rng.integers(len(CELLS)))],
             ROTATIONS[int(rng.integers(4))], int(rng.integers(N_COLORS)),
             int(rng.integers(N_SIZES)))
    kept = (init.type_id, init.pos_x, init.pos_y, init.rotation, init.color, init.size)
    goal = ObjectState(*(k if rng.random() < 0.5 else d for k, d in zip(kept, drawn)))
    return env, init, goal


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_oracle_equals_frozen_bfs(level):
    rng = np.random.default_rng([29, level])
    seen = dict.fromkeys(("init blocked", "goal blocked", "turned", "retyped", "resized",
                          "init == goal", "unreachable", "planned"), 0)
    for _ in range(2000):
        env, init, goal = random_case(level, rng)
        expected = oracle_bfs(env, init, goal)
        if expected is None:
            with pytest.raises(Unreachable):
                oracle_shortest_plan(env, init, goal)
        else:
            assert oracle_shortest_plan(env, init, goal) == expected, (env, init, goal)
        seen["init blocked"] += not env.free[init.pos_x][init.pos_y]
        seen["goal blocked"] += not env.free[goal.pos_x][goal.pos_y]
        seen["turned"] += goal.rotation != init.rotation
        seen["retyped"] += goal.type_id != init.type_id
        seen["resized"] += goal.size != init.size
        seen["init == goal"] += goal == init
        seen["unreachable"] += expected is None
        seen["planned"] += bool(expected)
    if level == 1:  # no obstacle, no dyer: nothing is blocked
        del seen["init blocked"], seen["goal blocked"]
    assert all(seen.values()), seen


def test_cells_connected_equals_frozen_check():
    # every blocked set the bench sampler can draw: up to 3 obstacles and a dyer
    for n in range(5):
        for blocked in itertools.combinations(CELLS, n):
            assert cells_connected(set(blocked)) == oracle_cells_connected(set(blocked)), \
                blocked
    assert not cells_connected({(1, y) for y in range(Y_CELLS)})
