"""The shared layered k-best search and the bounded symbolic planner, checked
against the frozen planners."""

import math
import pickle
from collections import deque

import numpy as np
import pytest

import _oracles
from _oracles import (
    _oracle_available_keys,
    _oracle_tokenspace_keys,
    oracle_codes,
    oracle_compiled_steps,
    oracle_plan,
    oracle_plan_tokenspace,
    oracle_search_graph,
    oracle_unbounded_plan,
)
from benchplan.concepts import encode
from benchplan.fitting import codebook_for_tasks
from benchplan import mdp
from benchplan.mdp import (NoPlanFound, SymbolMasks, TransitionModel, available_keys,
                           layered_kbest, plan)
from benchplan.symbols import symbolize
from benchplan.token_maps import plan_tokenspace
from benchplan.workbench import COLOR, DEFAULT_CARDINALITIES, N_COLORS, EnvConfig

# A token-space search takes ~5 ms on level 3 and ~25 ms on level 4, and the
# frozen token search ~9 ms and ~50 ms (means over each run's 50 test tasks, on
# a 2-core machine), so only the first few test tasks of those runs go to both.
TOKEN_TASK_CAP = {"level1_run": None, "level3_run": 16, "level4_run": 3}


def assert_same(new, frozen, *args, **kwargs):
    """Equal PlanResults (exact scores), or an exception of the frozen type.
    Returns the new planner's result, or None when both raised."""
    try:
        expected = frozen(*args, **kwargs)
    except (NoPlanFound, ValueError) as err:
        with pytest.raises(type(err)):
            new(*args, **kwargs)
        return None
    result = new(*args, **kwargs)
    assert result == expected
    return result


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


def _symbolic_cases(run, sigma, request):
    """(model, init symbols, goal symbols, masks, ground-truth length) per test task."""
    dataset, fitted = request.getfixturevalue(run)
    tasks = dataset.subset("test")
    codebook = codebook_for_tasks(fitted, tasks)
    for i, task in enumerate(tasks):
        rng = np.random.default_rng([11, i])
        yield (fitted.model,
               symbolize(encode(task.init, codebook, sigma, rng), fitted.symbolizer),
               symbolize(encode(task.goal, codebook, sigma, rng), fitted.symbolizer),
               SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value),
               len(task.gt_actions))


@pytest.mark.parametrize("sigma", (0.0, 0.2))
@pytest.mark.parametrize("run", ["level3_run", "level4_run"])
def test_symbolic_planner_matches_frozen_search_over_budgets(run, sigma, request):
    # top_k 1 and 3 truncate buckets the default 5 keeps; l_max one short of
    # the ground-truth length takes the NoPlanFound path
    outcomes = set()
    for model, init, goal, masks, gt_len in _symbolic_cases(run, sigma, request):
        for top_k in (1, 3, 8):
            for l_max in (gt_len - 1, gt_len):
                assert_same(plan, oracle_plan, model, init, goal, masks,
                            top_k=top_k, l_max=l_max)
                try:
                    outcomes.add(len(plan(model, init, goal, masks,
                                          top_k=top_k, l_max=l_max).plans))
                except NoPlanFound:
                    outcomes.add("no plan")
    assert {"no plan", 1, 3, 8} <= outcomes


def test_model_tables_check_each_key_once(level4_run, monkeypatch, request):
    # a fresh model: the session's fitted one may hold its tables already
    model = level4_run[1].model
    fresh = TransitionModel(model.cardinalities, model.thresh, model.counts)
    checked, legal = [], mdp.action_legal

    def recording(model, state, key):
        checked.append(key)
        return legal(model, state, key)

    monkeypatch.setattr(mdp, "action_legal", recording)
    planned = 0
    for sigma in (0.0, 0.2):
        for _, init, goal, masks, gt_len in _symbolic_cases("level4_run", sigma, request):
            try:
                plan(fresh, init, goal, masks, top_k=5, l_max=gt_len + 2)
            except NoPlanFound:
                pass
            planned += 1
            assert checked == list(fresh.action_keys)  # the first call's, and no more
    assert planned > 1


def test_closures_are_cached_per_key_set_and_not_pickled(level4_run, request):
    model = level4_run[1].model
    fresh = TransitionModel(model.cardinalities, model.thresh, model.counts)
    for sigma in (0.0, 0.2):
        for _, init, goal, masks, gt_len in _symbolic_cases("level4_run", sigma, request):
            try:
                plan(fresh, init, goal, masks, top_k=5, l_max=gt_len + 2)
            except NoPlanFound:
                pass
    assert 0 < len(fresh.key_sets) <= N_COLORS + 1
    for keys, (rows, closures) in fresh.key_sets.items():
        # each key's row, as an offset in the flattened step tables
        assert rows.tolist() == [[fresh.action_keys.index(key) * fresh.steps[0].shape[1]]
                                 for key in keys]
        for (k, w), (reached, codes) in closures.items():  # a walk of the MAP successors
            seen, frontier = {w}, [w]
            while frontier:
                nxt = {fresh.succ[key][k][v] for v in frontier for key in keys} - seen - {-1}
                seen |= nxt
                frontier = list(nxt)
            assert reached == sorted(seen), (keys, k, w)
            stride = math.prod(fresh.cardinalities[:k])  # codes are ravel_multi_index's, order F
            assert codes.dtype.kind == "i" and codes.tolist() == [v * stride for v in reached]
    twin = pickle.loads(pickle.dumps(fresh))
    assert "steps" in vars(fresh)
    assert "key_sets" not in vars(twin) and "steps" not in vars(twin)  # per process


def test_codes_equal_frozen_ravel():
    # random count tables give closures of every size on every concept; the
    # graph's nodes are the codes of their product, ascending
    rng = np.random.default_rng(47)
    cards = DEFAULT_CARDINALITIES
    counts = {key: [rng.integers(0, 3, size=(c, c)) * (rng.random((c, 1)) < 0.6)
                    for c in cards]
              for key in ("move_left", "move_front", "rotate_right", "change_color@1")}
    model = TransitionModel(cards, 0.05, counts)
    masks = SymbolMasks.build(EnvConfig(level=3, dyer=(1, 1), dyer_color=1),
                              tuple(tuple(range(c)) for c in cards))
    keys = available_keys(model, masks)
    sizes = set()
    for _ in range(100):
        init = tuple(int(rng.integers(c)) for c in cards)
        node_of, dist, _ = mdp._search_graph(model, masks, init, init, keys, 4)
        closures = [model.key_sets[keys][1][k, w][0] for k, w in enumerate(init)]
        codes = np.flatnonzero(node_of < len(dist))
        assert codes.tolist() == oracle_codes(closures, cards).tolist(), closures
        assert node_of[codes].tolist() == list(range(len(dist)))
        sizes.update(map(len, closures))
    assert {1, 2, 3} <= sizes


def test_goal_symbol_outside_its_closure(level1_run):
    # no dyer at level 1: the color closure is init's color alone, so a goal of
    # another color has no goal node, and no plan
    dataset, fitted = level1_run
    task = dataset.subset("test")[0]
    masks = SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value)
    init = tuple(fitted.value_maps.value_to_symbol[k][v]
                 for k, v in enumerate(task.init.values()))
    goal = (*init[:COLOR], (init[COLOR] + 1) % N_COLORS, *init[COLOR + 1:])
    keys = available_keys(fitted.model, masks)
    _, dist, _ = mdp._search_graph(fitted.model, masks, init, goal, keys, 6)
    assert set(dist) == {7}
    for planner in (oracle_unbounded_plan, plan):
        with pytest.raises(NoPlanFound):
            planner(fitted.model, init, goal, masks, l_max=6)


@pytest.mark.parametrize("model_keys", [("change_color@1",), ()])
def test_bench_without_usable_keys(model_keys):
    # a model that only dyes color 1, on a bench whose dyer dyes 2, and a model
    # with no key at all: the bench gets no key, so init is the whole graph
    cards = DEFAULT_CARDINALITIES
    model = TransitionModel(cards, 0.05, {key: [np.eye(c, dtype=np.int64) for c in cards]
                                          for key in model_keys})
    masks = SymbolMasks.build(EnvConfig(level=3, dyer=(1, 1), dyer_color=2),
                              tuple(tuple(range(c)) for c in cards))
    assert available_keys(model, masks) == ()
    cell = next((sx, sy) for sx, row in enumerate(masks.valid)
                for sy, free in enumerate(row) if free)
    init = (0, *cell, 0, 0, 0)
    goal = (*init[:COLOR], 2, *init[COLOR + 1:])
    for planner in (oracle_unbounded_plan, plan):
        with pytest.raises(NoPlanFound):
            planner(model, init, goal, masks, l_max=4)
        assert planner(model, init, init, masks, l_max=4).plans == (mdp.Plan((), 1.0),)


def _budget_cases(run, sigma, request):
    """`_symbolic_cases` with the l_max values gt - 1, gt and the bench's max_len."""
    tasks = request.getfixturevalue(run)[0].subset("test")
    for (*case, gt_len), task in zip(_symbolic_cases(run, sigma, request), tasks,
                                     strict=True):
        yield (*case, (gt_len - 1, gt_len, task.env.max_len))


@pytest.mark.parametrize("sigma", (0.0, 0.2, 0.4))
@pytest.mark.parametrize("run", ["level3_run", "level4_run"])
def test_bounded_plan_matches_unbounded_search(run, sigma, request):
    outcomes = set()
    for model, init, goal, masks, budgets in _budget_cases(run, sigma, request):
        for top_k in (1, 3, 5, 8):
            for l_max in budgets:
                result = assert_same(plan, oracle_unbounded_plan, model, init, goal,
                                     masks, top_k=top_k, l_max=l_max)
                outcomes.add("no plan" if result is None else len(result.plans))
    assert {"no plan", 1, 3, 5, 8} <= outcomes


@pytest.mark.parametrize("sigma", (0.0, 0.2))
@pytest.mark.parametrize("run", ["level3_run", "level4_run"])
def test_search_graph_equals_frozen_graph(run, sigma, request):
    # the node table, the distances and every node's steps, at two budgets
    nodes = 0
    for model, init, goal, masks, gt_len in _symbolic_cases(run, sigma, request):
        keys = available_keys(model, masks)
        for l_max in (gt_len, gt_len + 3):
            node_of, dist, steps_from = mdp._search_graph(model, masks, init, goal, keys, l_max)
            want_node_of, want_dist, want_steps_from = oracle_search_graph(
                model, masks, init, goal, keys, l_max)
            assert node_of.dtype == want_node_of.dtype
            assert np.array_equal(node_of, want_node_of) and dist == want_dist
            for i in range(len(dist)):
                assert steps_from(i) == want_steps_from(i), (init, i)
            nodes += len(dist)
    assert nodes > 1000


def _state(code, cardinalities):
    """The symbol state of a code of the model's step tables."""
    return tuple(map(int, np.unravel_index(code, cardinalities, order="F")))


def _recording_search(monkeypatch):
    """Record `plan`'s search graph, the states each planner expands, and the
    `layered_kbest` runs of each `plan` call."""
    record = {"graph": None, "states": None, "expanded": set(), "searches": 0}
    search_graph, search = mdp._search_graph, mdp.layered_kbest

    def recording_graph(model, *args):
        node_of, dist, steps_from = record["graph"] = search_graph(model, *args)
        codes = np.flatnonzero(node_of < len(dist))  # the nodes' codes, in node order
        record["states"] = [_state(code, model.cardinalities) for code in codes]
        return node_of, dist, steps_from

    def recording(search, state_of):
        def run(init, start_entry, expand, *args):
            def expand_recorded(node, entries):
                record["expanded"].add(state_of(node))
                return expand(node, entries)
            return search(init, start_entry, expand_recorded, *args)
        return run

    def counting_search(*args):
        record["searches"] += 1
        assert record["searches"] <= args[-1]  # each retry raises the bound <= l_max
        return recording(search, lambda node: record["states"][node])(*args)

    monkeypatch.setattr(mdp, "_search_graph", recording_graph)
    monkeypatch.setattr(mdp, "layered_kbest", counting_search)
    monkeypatch.setattr(_oracles, "_oracle_batched_kbest",
                        recording(_oracles._oracle_batched_kbest, lambda state: state))
    return record


def _expanded(record, planner, *args, **kwargs):
    """The set of states one planner call expands."""
    record["expanded"] = set()
    record["searches"] = 0
    try:
        planner(*args, **kwargs)
    except NoPlanFound:
        pass
    return record["expanded"]


@pytest.mark.parametrize("sigma", (0.0, 0.2))
def test_goal_bound_is_admissible(sigma, monkeypatch, request):
    record = _recording_search(monkeypatch)
    for model, init, goal, masks, gt_len in _symbolic_cases("level4_run", sigma, request):
        l_max = gt_len + 2
        expanded = _expanded(record, plan, model, init, goal, masks, l_max=l_max)
        to_goal = dict(zip(record["states"], record["graph"][1], strict=True))
        # the fully compiled graph reachable from init, and its exact distances
        keys = available_keys(model, masks)
        into, frontier = {init: set()}, [init]
        while frontier:
            state = frontier.pop()
            for succ, _, _ in oracle_compiled_steps(model, masks, keys, state):
                if succ not in into:
                    into[succ] = set()
                    frontier.append(succ)
                into[succ].add(state)
        is_goal = masks.goal_test(goal)
        exact = {state: 0 for state in into if is_goal(state)}
        queue = deque(exact)
        while queue:
            state = queue.popleft()
            for pred in into[state] - exact.keys():
                exact[pred] = exact[state] + 1
                queue.append(pred)
        assert expanded <= into.keys() <= to_goal.keys()
        for state in into:
            assert to_goal[state] == min(exact.get(state, l_max + 1), l_max + 1)
            assert (to_goal[state] == 0) == is_goal(state)


def test_bounded_plan_prunes_and_retries(level4_run, monkeypatch, request):
    record = _recording_search(monkeypatch)
    bounded_total = unbounded_total = most_searches = 0
    for sigma in (0.0, 0.2):
        for model, init, goal, masks, gt_len in _symbolic_cases("level4_run", sigma,
                                                                request):
            budget = dict(top_k=5, l_max=gt_len + 2)
            unbounded = _expanded(record, oracle_unbounded_plan, model, init, goal,
                                  masks, **budget)
            bounded = _expanded(record, plan, model, init, goal, masks, **budget)
            most_searches = max(most_searches, record["searches"])
            assert bounded <= unbounded
            bounded_total += len(bounded)
            unbounded_total += len(unbounded)
    assert bounded_total < unbounded_total
    assert most_searches >= 2


def test_goal_the_relaxed_graph_cannot_reach(level4_run, monkeypatch):
    dataset, fitted = level4_run
    record = _recording_search(monkeypatch)
    task = dataset.subset("test")[0]
    masks = SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value)
    init = tuple(fitted.value_maps.value_to_symbol[k][v]
                 for k, v in enumerate(task.init.values()))
    blocked = next((sx, sy) for sx, row in enumerate(masks.valid)
                   for sy, free in enumerate(row) if not free)
    goal = (*init[:1], *blocked, *init[3:])
    l_max = task.env.max_len
    for planner in (oracle_unbounded_plan, plan):
        record["expanded"] = set()
        with pytest.raises(NoPlanFound, match=f"^no plan within {l_max} steps$"):
            planner(fitted.model, init, goal, masks, l_max=l_max)
        assert init in record["expanded"]
    to_goal = dict(zip(record["states"], record["graph"][1], strict=True))
    assert to_goal[init] == l_max + 1
    # only the goal states on the blocked cell are labelled: no step enters it
    assert {d for state, d in to_goal.items() if state[1:3] != blocked} == {l_max + 1}


def _graph_expand(edges):
    """`expand` over a hand-built graph: node -> [(successor, step p, rank)]."""
    def expand(node, entries):
        for succ, step_p, rank in edges.get(node, ()):
            yield succ, [(score * step_p, seq + (rank,), None)
                         for score, seq, _ in entries]
    return expand


def test_layered_kbest_breaks_score_ties_on_seq():
    # s reaches g in two steps four ways. Three arrive tied at 0.25 = 0.5 * 0.5
    # = 0.25 * 1.0, the one through c first though its seq is larger; via d the
    # score is higher, so it leads although its seq is the largest. s yields
    # two batches for b, which the search merges into one bucket.
    edges = {"s": [("c", 0.25, 1), ("b", 0.5, 0), ("d", 1.0, 3), ("b", 0.5, 2)],
             "b": [("g", 0.5, 0)], "c": [("g", 1.0, 0)], "d": [("g", 0.5, 1)]}
    expand = _graph_expand(edges)
    start = (1.0, (), None)

    def search(top_k):
        return layered_kbest("s", start, expand, lambda n: n == "g", top_k, 2)

    assert search(4) == [(0.5, (3, 1), None), (0.25, (0, 0), None),
                         (0.25, (1, 0), None), (0.25, (2, 0), None)]
    assert search(2) == [(0.5, (3, 1), None), (0.25, (0, 0), None)]
    assert search(1) == [(0.5, (3, 1), None)]
    assert layered_kbest("s", start, expand, lambda n: n == "b", 2, 2) == [
        (0.5, (0,), None), (0.5, (2,), None)]
    assert layered_kbest("s", start, expand, lambda n: n == "g", 4, 1) == []


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
