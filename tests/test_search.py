"""The shared layered k-best search, checked against the two frozen planners."""

import numpy as np
import pytest

from _oracles import (
    _oracle_available_keys,
    _oracle_tokenspace_keys,
    oracle_plan,
    oracle_plan_tokenspace,
)
from benchplan.concepts import encode
from benchplan.fitting import codebook_for_tasks
from benchplan.mdp import NoPlanFound, SymbolMasks, available_keys, plan
from benchplan.symbols import symbolize
from benchplan.token_maps import plan_tokenspace
from benchplan.workbench import EnvConfig

# Token-space searches take ~40 ms each on level 3 and ~200 ms on level 4, so
# only the first few test tasks of those runs go to the token-space planner.
TOKEN_TASK_CAP = {"level1_run": None, "level3_run": 16, "level4_run": 3}


def assert_same(new, frozen, *args, **kwargs):
    """Equal PlanResults (exact scores), or an exception of the frozen type."""
    try:
        expected = frozen(*args, **kwargs)
    except (NoPlanFound, ValueError) as err:
        with pytest.raises(type(err)):
            new(*args, **kwargs)
        return
    assert new(*args, **kwargs) == expected


@pytest.mark.parametrize("sigma", (0.0, 0.2))
@pytest.mark.parametrize("run", sorted(TOKEN_TASK_CAP))
def test_planners_match_frozen_search(run, sigma, request):
    dataset, fitted = request.getfixturevalue(run)
    tasks = dataset.subset("test")
    codebook = codebook_for_tasks(fitted, tasks)
    cap = TOKEN_TASK_CAP[run]
    for i, task in enumerate(tasks):
        rng = np.random.default_rng([11, i])
        init_tokens = encode(task.init, codebook, sigma, rng)
        goal_tokens = encode(task.goal, codebook, sigma, rng)
        masks = SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value)
        budget = dict(top_k=5, l_max=task.env.max_len)
        assert_same(plan, oracle_plan, fitted.model,
                    symbolize(init_tokens, fitted.symbolizer),
                    symbolize(goal_tokens, fitted.symbolizer), masks, **budget)
        if cap is None or i < cap:
            assert_same(plan_tokenspace, oracle_plan_tokenspace, fitted.maps,
                        init_tokens, goal_tokens, fitted.symbolizer, masks, **budget)


# a bench without a dyer, then one with a dyer of each color
BENCHES = [EnvConfig(level=1)] + [EnvConfig(level=3, dyer=(2, 0), dyer_color=c)
                                  for c in range(6)]


@pytest.mark.parametrize("run", ["level3_run", "level4_run"])
def test_available_keys_match_frozen_rules(run, request):
    _, fitted = request.getfixturevalue(run)
    for env in BENCHES:
        masks = SymbolMasks.build(env, fitted.value_maps.symbol_to_value)
        assert (available_keys(fitted.model, masks)
                == _oracle_available_keys(fitted.model, masks))
        assert (available_keys(fitted.maps, masks)
                == tuple(_oracle_tokenspace_keys(fitted.maps, masks)))
