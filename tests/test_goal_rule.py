"""One goal rule: `workbench.goal_concepts` says which concepts a level's goal
fixes, and the judge, the BFS oracle and both planners test exactly those."""

import pathlib
import re
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest

import benchplan
from benchplan.concepts import encode
from benchplan.mdp import NoPlanFound, SymbolMasks, plan
from benchplan.symbols import symbolize
from benchplan import taskgen
from benchplan.taskgen import oracle_shortest_plan
from benchplan.token_maps import plan_tokenspace, rollout
from benchplan.workbench import (
    N_COLORS,
    N_SIZES,
    POS_X,
    POS_Y,
    ROTATION,
    ROTATIONS,
    X_CELLS,
    Y_CELLS,
    EnvConfig,
    ObjectState,
    goal_concepts,
    goal_reached,
)

SOURCES = pathlib.Path(benchplan.__file__).parent
# a module-level definition of goal_concepts or of a concept-index name
DEFINES_RULE = re.compile(
    r"^(def goal_concepts\b|(TYPE|POS_X|POS_Y|ROTATION|COLOR|SIZE)\b[\w, ]*=)", re.MULTILINE)
RETIRED = re.compile(r"\b(CHANGEABLE_CONCEPTS|POSX|POSY|TYPE_CONCEPT)\b")


def frozen_goal_reached(final, goal, level):
    """`workbench.goal_reached` as it was before it read `goal_concepts`."""
    if final.pos != goal.pos or final.color != goal.color:
        return False
    if level == 4 and final.rotation != goal.rotation:
        return False
    return True


def random_state(rng, base=None):
    """A random state; with `base`, one that agrees with it on each field at
    even odds, so that near-matches come up often."""
    fields = (int(rng.integers(12)), int(rng.integers(X_CELLS)), int(rng.integers(Y_CELLS)),
              ROTATIONS[int(rng.integers(4))], int(rng.integers(N_COLORS)),
              int(rng.integers(N_SIZES)))
    if base is not None:
        old = (base.type_id, base.pos_x, base.pos_y, base.rotation, base.color, base.size)
        fields = tuple(o if rng.random() < 0.5 else f for o, f in zip(old, fields))
    return ObjectState(*fields)


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_goal_reached_equals_frozen_rule(level):
    rng = np.random.default_rng([5, level])
    verdicts = set()
    for _ in range(2000):
        goal = random_state(rng)
        final = random_state(rng, base=goal)
        verdict = goal_reached(final, goal, level)
        assert verdict == frozen_goal_reached(final, goal, level), (final, goal)
        verdicts.add(verdict)
    assert verdicts == {True, False}


# one step front, and a quarter turn the goal asks for
BENCH = dict(dyer=(2, 1), dyer_color=1)
INIT = ObjectState(0, 0, 0, 0, 2, 1)
TURNED_GOAL = ObjectState(0, 0, 1, 90, 2, 1)


def test_oracle_ignores_rotation_below_level_4():
    assert oracle_shortest_plan(EnvConfig(level=3, **BENCH), INIT, TURNED_GOAL) == \
        ("move_front",)
    assert oracle_shortest_plan(EnvConfig(level=4, **BENCH), INIT, TURNED_GOAL) == \
        ("move_front", "rotate_right")


def test_oracle_reads_the_goal_rule(monkeypatch):
    # a rule whose level-3 goal fixes rotation, and no longer color, must reach the oracle
    monkeypatch.setattr(taskgen, "goal_concepts", lambda level: (POS_X, POS_Y, ROTATION))
    recolored = replace(TURNED_GOAL, color=4)  # no dyer of color 4 on the bench
    assert oracle_shortest_plan(EnvConfig(level=3, **BENCH), INIT, recolored) == \
        ("move_front", "rotate_right")


def _inputs(fitted, task, goal):
    """Noiseless init and goal tokens and symbols of `task` with `goal` in
    place of its own goal, its bench masks and its planning budget."""
    tokens = [encode(s, fitted.codebook) for s in (task.init, goal)]
    symbols = [symbolize(t, fitted.symbolizer) for t in tokens]
    masks = SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value)
    return tokens, symbols, masks, dict(top_k=5, l_max=task.env.max_len)


def _actions(result):
    return [p.actions for p in result.plans]


def test_planners_ignore_goal_rotation_at_level_3(level3_run):
    dataset, fitted = level3_run
    fixed, token_tasks = itemgetter(*goal_concepts(3)), 0
    for task in dataset.subset("test")[:12]:
        turned = replace(task.goal, rotation=(task.goal.rotation + 90) % 360)
        _, (init, goal), masks, budget = _inputs(fitted, task, task.goal)
        (init_tokens, turned_tokens), (_, turned_sym), _, _ = _inputs(fitted, task, turned)
        assert turned_sym[ROTATION] != goal[ROTATION]
        assert _actions(plan(fitted.model, init, turned_sym, masks, **budget)) == \
            _actions(plan(fitted.model, init, goal, masks, **budget))
        # token plans rank by their distance to the goal tokens, the rotation
        # token included, so they are checked where they end, not against the
        # plans for the matched goal
        try:
            result = plan_tokenspace(fitted.maps, init_tokens, turned_tokens,
                                     fitted.symbolizer, masks, **budget)
        except NoPlanFound:
            continue
        token_tasks += 1
        for actions in _actions(result):
            end = symbolize(rollout(init_tokens, actions, fitted.maps)[-1],
                            fitted.symbolizer)
            assert fixed(end) == fixed(turned_sym)
            assert end[ROTATION] != turned_sym[ROTATION]  # no level-3 key turns
    assert token_tasks


def test_planners_plan_goal_rotation_at_level_4(level4_run):
    dataset, fitted = level4_run
    for task in dataset.subset("test")[:3]:
        turned = replace(task.goal, rotation=(task.init.rotation + 180) % 360)
        (init_tokens, goal_tokens), (init, goal), masks, budget = \
            _inputs(fitted, task, turned)
        for result in (plan(fitted.model, init, goal, masks, **budget),
                       plan_tokenspace(fitted.maps, init_tokens, goal_tokens,
                                       fitted.symbolizer, masks, **budget)):
            assert result.plans
            for actions in _actions(result):  # a half turn takes two quarter turns
                assert sum(a.startswith("rotate_") for a in actions) >= 2, actions


def test_only_workbench_defines_the_goal_rule():
    assert DEFINES_RULE.search((SOURCES / "workbench.py").read_text())
    definers = sorted(path.name for path in SOURCES.glob("*.py")
                      if DEFINES_RULE.search(path.read_text()))
    assert definers == ["workbench.py"]
    assert not [path.name for path in SOURCES.glob("*.py")
                if RETIRED.search(path.read_text())]
