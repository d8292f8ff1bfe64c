"""Transition-model tests, checked against the brute-force propagation oracle."""

import pickle
from itertools import product

import numpy as np
import pytest

from _oracles import (
    encode_trajectory,
    fit_layout,
    oracle_fit_transitions,
    oracle_map_successor,
    oracle_masks,
    oracle_occurrences,
    oracle_paths,
    oracle_sequence,
    oracle_step,
    point_mass,
)
from benchplan.concepts import encode
from benchplan.fitting import FitConfig, fit_pipeline
from benchplan.mdp import (
    DeadDistribution,
    NoPlanFound,
    SymbolMasks,
    TransitionModel,
    action_key,
    action_legal,
    fit_transitions,
    marginal_masks,
    plan,
    propagate,
)
from benchplan.streams import STREAMS
from benchplan.symbols import symbolize
from benchplan.taskgen import oracle_shortest_plan
from benchplan.workbench import (DEFAULT_CARDINALITIES, POS_X, POS_Y, EnvConfig, ObjectState,
                                 simulate)


def toy_model(thresh=0.1):
    """Two concepts with hand-counted transitions."""
    triplets = [
        ((0, 0), "move_right", (1, 0)),
        ((0, 0), "move_right", (1, 0)),
        ((1, 0), "move_right", (2, 0)),
        ((1, 1), "move_left", (0, 1)),
        ((2, 0), "move_left", (1, 0)),
    ]
    return fit_transitions(*fit_layout(triplets), thresh=thresh, cardinalities=(3, 2))


# ---------------------------------------------------------------------------

class TestFitTransitions:
    def test_counts_accumulate(self):
        model = toy_model()
        assert model.counts["move_right"][0][0, 1] == 2
        assert model.counts["move_right"][0][1, 2] == 1
        assert model.occurrences[0][0].sum() == 2
        assert model.base_actions == ("move_left", "move_right")

    def test_probabilities_normalize(self):
        model = toy_model()
        assert model.trans_p["move_right"][0][0, 1] == 1.0
        # concept-0 symbol 1 appears twice: once with move_right, once with move_left
        assert model.act_p[0][1] == pytest.approx([0.5, 0.5])
        assert model.act_p[0][0] == pytest.approx([0.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_transitions(*fit_layout([]), cardinalities=(3, 2))

    @pytest.mark.parametrize("bad", [(3, 0), (-1, 0), (0, 2)])
    def test_symbol_out_of_range_rejected(self, bad):
        # as a fit file's count rows are checked by count_tables
        with pytest.raises(ValueError, match="out of range"):
            fit_transitions(*fit_layout([((0, 0), "move_right", bad)]), cardinalities=(3, 2))

    @pytest.mark.parametrize("run", ["level1_run", "level3_run", "level4_run"])
    def test_derived_tables_equal_frozen_accumulation(self, request, run):
        dataset, fitted = request.getfixturevalue(run)
        model = fitted.model
        triplets = _training_triplets(dataset, fitted)
        refit = oracle_fit_transitions(triplets, model.cardinalities, thresh=model.thresh)
        assert refit.action_keys == model.action_keys
        for key in model.action_keys:
            for a, b in zip(refit.counts[key], model.counts[key]):
                assert np.array_equal(a, b)
        keys, bases, occ = oracle_occurrences(triplets, model.cardinalities)
        assert (model.action_keys, model.base_actions) == (keys, bases)
        for a, b in zip(model.occurrences, occ):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", (0.0, 0.2))
    @pytest.mark.parametrize("run", ["level3_run", "level4_run"])
    def test_step_tables_equal_scalar_rules(self, request, run, sigma):
        dataset, fitted = request.getfixturevalue(run)
        if sigma:
            fitted = fit_pipeline(dataset, FitConfig(noise_sigma=sigma))
        _assert_step_tables_equal_scalar_rules(fitted.model)

    def test_step_tables_equal_scalar_rules_on_random_counts(self):
        # few probabilities are 1 and the gate cuts rows that were seen, so
        # the multiplication order and the legality read both show
        rng = np.random.default_rng(5)
        cards = (2, 3, 5, 4, 3, 2)
        counts = {key: [rng.integers(0, 4, size=(c, c)) * (rng.random((c, 1)) < 0.8)
                        for c in cards]
                  for key in ("move_left", "move_right", "rotate_right", "change_color@1")}
        _assert_step_tables_equal_scalar_rules(TransitionModel(cards, 0.3, counts))
        # dense counts: every key is legal in most states, and change_color's
        # MAP successor mostly moves the object, so its gates join two cells
        dense = {key: [rng.integers(1, 4, size=(c, c)) * (rng.random((c, 1)) < 0.9)
                       for c in cards] for key in counts}
        _assert_step_tables_equal_scalar_rules(TransitionModel(cards, 0.05, dense))

    def test_level1_position_transitions_deterministic(self, level1_run):
        dataset, fitted = level1_run
        vmap = fitted.value_maps.value_to_symbol
        model = fitted.model
        for x in (0, 1):
            row = model.trans_p["move_right"][1][vmap[1][x]]
            assert row[vmap[1][x + 1]] == 1.0

    def test_never_observed_action_is_masked(self, level1_run):
        _, fitted = level1_run
        vmap = fitted.value_maps.value_to_symbol
        state = tuple(vmap[k][0] for k in range(6))
        # boundary: move_right never observed at x=2
        boundary = list(state)
        boundary[1] = vmap[1][2]
        assert not action_legal(fitted.model, tuple(boundary), "move_right")
        # rotations never appear in level-1 training data at all
        assert not action_legal(fitted.model, state, "rotate_left")

    def test_interior_action_legal(self, level1_run):
        _, fitted = level1_run
        vmap = fitted.value_maps.value_to_symbol
        state = tuple(vmap[k][0] for k in range(6))  # y = 0
        assert action_legal(fitted.model, state, "move_front")


IDENTITY = tuple(tuple(range(c)) for c in DEFAULT_CARDINALITIES)


def _assert_step_tables_equal_scalar_rules(model):
    """`model.steps` against the scalar legality, the frozen MAP successor and
    the scalar mask rule, for every (code, key), bit for bit: under benches of
    random masks, a step's gate reads a flag that holds exactly when the
    successor's cell is valid and, for change_color, the node's is adjacent."""
    succ, prob, gate = model.steps
    assert succ.dtype == np.int32 and gate.dtype == np.int16
    rng = np.random.default_rng(3)
    shape = model.cardinalities[POS_X], model.cardinalities[POS_Y]
    benches = [SymbolMasks(valid=tuple(map(tuple, rng.random(shape) < 0.7)),
                           adjacent=tuple(map(tuple, rng.random(shape) < 0.5)),
                           dyer_color=None, goal_concepts=()) for _ in range(2)]
    assert not any(masks.flags[-1] for masks in benches)  # the gate of no step
    n_steps = 0
    for code, state in enumerate(product(*map(range, reversed(model.cardinalities)))):
        state = state[::-1]  # concept 0 varies fastest
        assert code == np.ravel_multi_index(state, model.cardinalities, order="F")
        for i, key in enumerate(model.action_keys):
            step = oracle_map_successor(model, state, key)
            if not action_legal(model, state, key) or step is None:
                assert succ[i, code] == -1 and gate[i, code] == -1
                continue
            n_steps += 1
            assert succ[i, code] == np.ravel_multi_index(step[0], model.cardinalities,
                                                         order="F")
            assert prob[i, code] == step[1]  # bit for bit
            recolor = key.startswith("change_color")
            for masks in benches:
                assert masks.flags[gate[i, code]] == (
                    masks.position_valid(step[0])
                    and (not recolor or masks.adjacent[state[POS_X]][state[POS_Y]]))
    assert 0 < n_steps < succ.size
    assert "steps" not in vars(pickle.loads(pickle.dumps(model)))  # per process


def _count(table):
    return sum(map(sum, table))


class TestStateMask:
    """Bench masks through identity value maps: symbols are the grid values."""

    def test_no_obstacles(self):
        mask = SymbolMasks.build(EnvConfig(level=1), IDENTITY)
        assert _count(mask.valid) == 15
        assert all(m.all() for m in marginal_masks(EnvConfig(level=1), IDENTITY))

    def test_one_obstacle(self):
        mask = SymbolMasks.build(EnvConfig(level=2, obstacles=((1, 1),)), IDENTITY)
        assert _count(mask.valid) == 14
        assert not mask.valid[1][1]

    def test_dyer_plus_obstacle(self):
        env = EnvConfig(level=3, obstacles=((2, 2),), dyer=(0, 4), dyer_color=1)
        mask = SymbolMasks.build(env, IDENTITY)
        assert _count(mask.valid) == 13
        assert _count(mask.adjacent) == 2  # (0, 3) and (1, 4)

    def test_blocked_row_marginalizes(self):
        env = EnvConfig(level=2, obstacles=((0, 1), (1, 1), (2, 1)))
        marginals = marginal_masks(env, IDENTITY)
        assert list(marginals[2]) == [True, False, True, True, True]
        assert marginals[1].all()


def _assert_masks_equal_oracle(env, symbol_to_value):
    masks = SymbolMasks.build(env, symbol_to_value)
    cards = tuple(len(values) for values in symbol_to_value)
    valid, adjacent, per_concept, dyer_color = oracle_masks(
        env, symbol_to_value[1], symbol_to_value[2], cards)
    assert masks.valid == valid
    assert masks.adjacent == adjacent
    assert masks.dyer_color == dyer_color
    marginals = marginal_masks(env, symbol_to_value)
    assert len(marginals) == len(per_concept)
    for got, expected in zip(marginals, per_concept):
        assert got.dtype == bool and got.tolist() == expected.tolist()


@pytest.mark.parametrize("run", ("level3_run", "level4_run"))
def test_masks_equal_frozen_value_space_build(run, request):
    dataset, fitted = request.getfixturevalue(run)
    maps = fitted.value_maps.symbol_to_value
    # a many-to-one position map: two x symbols and two y symbols share a value
    merged = list(maps)
    merged[1], merged[2] = (0, 0) + maps[1][2:], maps[2][:-2] + (4, 4)
    for task in dataset.subset("test"):
        _assert_masks_equal_oracle(task.env, maps)
        _assert_masks_equal_oracle(task.env, tuple(merged))


@pytest.mark.parametrize("run", ("level3_run", "level4_run"))
def test_identity_maps_give_the_bench_tables(run, request):
    dataset, _ = request.getfixturevalue(run)
    identity = tuple(tuple(range(c)) for c in DEFAULT_CARDINALITIES)
    for task in dataset.subset("test"):
        masks = SymbolMasks.build(task.env, identity)
        assert masks.valid == task.env.free
        assert masks.adjacent == task.env.near_dyer


class TestPropagate:
    def test_point_mass_moves_right(self):
        model = toy_model()
        masks = [np.ones(3, dtype=bool), np.ones(2, dtype=bool)]
        dist = point_mass((1, 0), (3, 2))
        out = propagate(dist, "move_right", model, masks)
        assert out[0] == pytest.approx([0.0, 0.0, 1.0])

    def test_boundary_is_dead(self):
        model = toy_model()
        masks = [np.ones(3, dtype=bool), np.ones(2, dtype=bool)]
        with pytest.raises(DeadDistribution):
            propagate(point_mass((2, 1), (3, 2)), "move_right", model, masks)

    def test_unknown_action_dead(self):
        model = toy_model()
        masks = [np.ones(3, dtype=bool), np.ones(2, dtype=bool)]
        with pytest.raises(DeadDistribution):
            propagate(point_mass((0, 0), (3, 2)), "rotate_left", model, masks)

    def test_uniform_source_matches_oracle(self, level1_run):
        _, fitted = level1_run
        model = fitted.model
        masks = marginal_masks(EnvConfig(level=1), fitted.value_maps.symbol_to_value)
        dist = [np.full(c, 1.0 / c) for c in model.cardinalities]
        out = propagate(dist, "move_right", model, masks)
        for k in range(6):
            start = [1.0 / model.cardinalities[k]] * model.cardinalities[k]
            expect = oracle_step(model, k, start, "move_right", masks)
            assert out[k] == pytest.approx(expect, abs=1e-9)

    def test_composition_matches_path_enumeration(self, level3_run):
        _, fitted = level3_run
        model = fitted.model
        env = EnvConfig(level=3, obstacles=((1, 1),), dyer=(2, 0), dyer_color=2)
        masks = marginal_masks(env, fitted.value_maps.symbol_to_value)
        keys = ["move_right", "move_front", action_key("change_color", env.dyer_color)]
        for concept in range(6):
            for start in range(model.cardinalities[concept]):
                stepwise = oracle_sequence(model, concept, start, keys, masks)
                paths = oracle_paths(model, concept, start, keys, masks)
                if stepwise is None:
                    assert paths is None
                else:
                    assert stepwise == pytest.approx(paths, abs=1e-9)

    def test_masking_soundness(self, level3_run):
        # no probability mass may survive on an invalid destination symbol
        _, fitted = level3_run
        model = fitted.model
        env = EnvConfig(level=2, obstacles=((0, 2), (1, 2), (2, 2)))
        masks = marginal_masks(env, fitted.value_maps.symbol_to_value)
        dist = [np.full(c, 1.0 / c) for c in model.cardinalities]
        for key in ("move_front", "move_back", "move_left"):
            out = propagate(dist, key, model, masks)
            for k in range(6):
                assert (out[k][~masks[k]] == 0.0).all()

    def test_conservation_without_masking(self, level1_run):
        _, fitted = level1_run
        model = fitted.model
        masks = [np.ones(c, dtype=bool) for c in model.cardinalities]
        vmap = fitted.value_maps.value_to_symbol
        state = tuple(vmap[k][v] for k, v in
                      enumerate(ObjectState(0, 1, 2, 0, 3, 1).values()))
        out = propagate(point_mass(state, model.cardinalities), "move_front",
                        model, masks)
        for vec in out:
            assert vec.sum() == pytest.approx(1.0, abs=1e-9)


def _training_triplets(dataset, fitted):
    """The (symbol state, key, symbol state) triplets `fit_pipeline` counted."""
    triplets = []
    for i, task in enumerate(dataset.tasks):
        if task.split != "train":
            continue
        rng = np.random.default_rng([fitted.config.seed, STREAMS["fit_noise"].tag, i])
        _, tokens = encode_trajectory(task, fitted.codebook,
                                      fitted.config.noise_sigma, rng)
        symbols = [symbolize(t, fitted.symbolizer) for t in tokens]
        triplets.extend((symbols[t], action_key(a, task.env.dyer_color), symbols[t + 1])
                        for t, a in enumerate(task.gt_actions))
    return triplets


def _sym(fitted, state):
    return symbolize(encode(state, fitted.codebook), fitted.symbolizer)


def _masks(fitted, env):
    return SymbolMasks.build(env, fitted.value_maps.symbol_to_value)


class TestPlan:
    def test_init_equals_goal(self, level1_run):
        _, fitted = level1_run
        env = EnvConfig(level=1)
        s = ObjectState(0, 1, 1, 0, 2, 0)
        result = plan(fitted.model, _sym(fitted, s), _sym(fitted, s),
                      _masks(fitted, env), top_k=5, l_max=6)
        assert len(result.plans) == 1
        assert result.best.actions == ()
        assert result.best.score == 1.0

    def test_top1_length_matches_oracle(self, level1_run):
        dataset, fitted = level1_run
        for task in dataset.subset("test"):
            gt = oracle_shortest_plan(task.env, task.init, task.goal)
            result = plan(fitted.model, _sym(fitted, task.init),
                          _sym(fitted, task.goal), _masks(fitted, task.env),
                          top_k=1, l_max=task.env.max_len)
            assert len(result.best.actions) == len(gt)

    def test_color_change_plans_visit_dyer(self, level3_run):
        dataset, fitted = level3_run
        checked = 0
        for task in dataset.subset("test"):
            if task.goal.color == task.init.color:
                continue
            checked += 1
            result = plan(fitted.model, _sym(fitted, task.init),
                          _sym(fitted, task.goal), _masks(fitted, task.env),
                          top_k=5, l_max=task.env.max_len)
            for candidate in result.plans:
                base = [k.split("@")[0] for k in candidate.actions]
                assert base.count("change_color") == 1
                step = base.index("change_color")
                trajectory = simulate(task.init, base[:step], task.env)
                pos = trajectory[-1]
                assert abs(pos.pos_x - task.env.dyer[0]) + \
                    abs(pos.pos_y - task.env.dyer[1]) == 1
        assert checked >= 10

    def test_monotone_top_k(self, level3_run):
        dataset, fitted = level3_run
        for task in dataset.subset("test")[:20]:
            args = (fitted.model, _sym(fitted, task.init), _sym(fitted, task.goal),
                    _masks(fitted, task.env))
            one = plan(*args, top_k=1, l_max=task.env.max_len)
            five = plan(*args, top_k=5, l_max=task.env.max_len)
            assert five.plans[0] == one.plans[0]
            lengths = [len(p.actions) for p in five.plans]
            assert lengths == sorted(lengths)
            assert len({p.actions for p in five.plans}) == len(five.plans)

    def test_no_plan_within_budget(self, level1_run):
        _, fitted = level1_run
        init = ObjectState(0, 0, 0, 0, 0, 0)
        goal = ObjectState(0, 2, 4, 0, 0, 0)  # six steps needed, two allowed
        with pytest.raises(NoPlanFound):
            plan(fitted.model, _sym(fitted, init), _sym(fitted, goal),
                 _masks(fitted, EnvConfig(level=1)), top_k=1, l_max=2)

    def test_invalid_init_rejected(self, level1_run):
        _, fitted = level1_run
        env = EnvConfig(level=2, obstacles=((1, 1),))
        init = ObjectState(0, 1, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            plan(fitted.model, _sym(fitted, init), _sym(fitted, init),
                 _masks(fitted, env), top_k=1, l_max=3)

    def test_type_mismatch_warns_but_plans(self, level1_run):
        _, fitted = level1_run
        init = ObjectState(0, 0, 0, 0, 0, 0)
        goal = ObjectState(3, 1, 0, 0, 0, 0)
        result = plan(fitted.model, _sym(fitted, init), _sym(fitted, goal),
                      _masks(fitted, EnvConfig(level=1)), top_k=1, l_max=6)
        assert result.warnings
        assert result.best.actions == ("move_right",)

    def test_every_returned_plan_replays_successfully(self, level1_run):
        # noiseless levels 1-2: all top-5 candidates, not just the best,
        # must survive adjudication
        from benchplan.workbench import adjudicate
        dataset, fitted = level1_run
        for task in dataset.subset("test"):
            result = plan(fitted.model, _sym(fitted, task.init),
                          _sym(fitted, task.goal), _masks(fitted, task.env),
                          top_k=5, l_max=task.env.max_len)
            for candidate in result.plans:
                actions = [k.split("@")[0] for k in candidate.actions]
                assert adjudicate(task, actions).success

    def test_unseen_task_model_counts(self):
        # a model fit on the restricted-family split has counts exactly for
        # the observed action set and nothing else
        from benchplan.fitting import FitConfig, fit_pipeline
        from benchplan.taskgen import make_unseen_task_split
        dataset = make_unseen_task_split(1, (120, 10, 20), seed=5)
        fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.0))
        model = fitted.model
        assert set(model.base_actions) == {"move_front", "move_back",
                                           "move_left", "move_right"}
        vmap = fitted.value_maps.value_to_symbol
        # physically impossible pairs were never observed
        left = model.base_actions.index("move_left")
        right = model.base_actions.index("move_right")
        assert model.occurrences[1][vmap[1][0], left] == 0
        assert model.occurrences[1][vmap[1][2], right] == 0
        # both train families contributed every movement somewhere
        for j in range(len(model.base_actions)):
            assert model.occurrences[1][:, j].sum() > 0

    def test_cluster_relabel_invariance(self, level3_run):
        dataset, fitted = level3_run
        model = fitted.model
        rng = np.random.default_rng(29)
        perms = [rng.permutation(c) for c in model.cardinalities]
        inverse = [np.argsort(p) for p in perms]

        counts = {key: [mat[np.ix_(inverse[k], inverse[k])]
                        for k, mat in enumerate(model.counts[key])]
                  for key in model.action_keys}
        permuted = TransitionModel(cardinalities=model.cardinalities,
                                   thresh=model.thresh, counts=counts)
        for task in dataset.subset("test")[:15]:
            masks = _masks(fitted, task.env)
            init, goal = _sym(fitted, task.init), _sym(fitted, task.goal)
            base = plan(model, init, goal, masks, top_k=5, l_max=task.env.max_len)

            p_init = tuple(int(perms[k][init[k]]) for k in range(6))
            p_goal = tuple(int(perms[k][goal[k]]) for k in range(6))
            p_masks = SymbolMasks(
                valid=tuple(tuple(masks.valid[x][y] for y in inverse[2])
                            for x in inverse[1]),
                adjacent=tuple(tuple(masks.adjacent[x][y] for y in inverse[2])
                               for x in inverse[1]),
                dyer_color=masks.dyer_color, goal_concepts=masks.goal_concepts)
            relabeled = plan(permuted, p_init, p_goal, p_masks, top_k=5,
                             l_max=task.env.max_len)
            assert [p.actions for p in relabeled.plans] == \
                [p.actions for p in base.plans]
