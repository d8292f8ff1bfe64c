import numpy as np
import pytest

from benchplan import token_maps
from benchplan.concepts import build_codebook, encode
from _oracles import encode_trajectory, fit_layout, oracle_snap_trusted, oracle_symbolize
from benchplan.fitting import codebook_for_tasks
from benchplan.mdp import NoPlanFound, SymbolMasks, action_key
from benchplan.symbols import Symbolizer, assign, symbolize
from benchplan.token_maps import (
    SNAP_MARGIN,
    ActionTransitionMaps,
    InsufficientPairs,
    UnknownAction,
    _min_center_gaps,
    fit_affine,
    plan_tokenspace,
    rollout,
    token_mse,
    transition,
)
from benchplan.workbench import CONCEPTS, EnvConfig, ObjectState, simulate

POSX, POSY, ROT, COLOR = (CONCEPTS.index(c)
                          for c in ("pos_x", "pos_y", "rotation", "color"))


def movement_pairs(cb, action, n, rng, sigma=0.0):
    """(before, after) encodings of every legal application of a movement."""
    from benchplan.workbench import apply_action
    env = EnvConfig(level=1)
    pairs = []
    while len(pairs) < n:
        state = ObjectState(int(rng.integers(8)), int(rng.integers(3)),
                            int(rng.integers(5)), 90 * int(rng.integers(4)),
                            int(rng.integers(6)), int(rng.integers(4)))
        try:
            after = apply_action(state, action, env)
        except Exception:
            continue
        enc = (lambda s: encode(s, cb, sigma, rng) if sigma else encode(s, cb))
        pairs.append((enc(state), enc(after)))
    return pairs


def fit_pairs(pairs_by_key):
    """`fit_affine` of each key's (before, after) token pairs."""
    return fit_affine(*fit_layout((before, key, after) for key, pairs in pairs_by_key.items()
                                  for before, after in pairs))


class TestFitAffine:
    def test_recovers_known_affine_map(self):
        rng = np.random.default_rng(0)
        dim = 4
        truth_a = rng.normal(size=(6 * dim, 6 * dim))
        truth_b = rng.normal(size=6 * dim)
        pairs = []
        for _ in range(200):
            x = rng.normal(size=(6, dim))
            y = (truth_a @ x.ravel() + truth_b).reshape(6, dim)
            pairs.append((x, y))
        maps = fit_pairs({"move_front": pairs})
        assert maps.residual_mse["move_front"] <= 1e-6
        x = rng.normal(size=(6, dim))
        expected = (truth_a @ x.ravel() + truth_b).reshape(6, dim)
        assert token_mse(transition(x, "move_front", maps), expected) <= 1e-6

    def test_move_right_lands_on_next_centroid(self):
        cb = build_codebook(seed=1)
        rng = np.random.default_rng(2)
        maps = fit_pairs({"move_right": movement_pairs(cb, "move_right", 150, rng)})
        state = ObjectState(0, 0, 2, 0, 3, 1)
        out = transition(encode(state, cb), "move_right", maps)
        assert assign(out[POSX], cb.centroids[POSX]) == 1

    def test_rotation_map_leaves_other_concepts(self):
        # held-out inputs: non-rotation coordinates move < 10% of min_sep
        cb = build_codebook(seed=3, min_sep=1.0)
        rng = np.random.default_rng(4)
        pairs = []
        for _ in range(150):
            state = ObjectState(int(rng.integers(8)), int(rng.integers(3)),
                                int(rng.integers(5)), 90 * int(rng.integers(4)),
                                int(rng.integers(6)), int(rng.integers(4)))
            after = ObjectState(state.type_id, state.pos_x, state.pos_y,
                                (state.rotation + 90) % 360, state.color, state.size)
            pairs.append((encode(state, cb), encode(after, cb)))
        maps = fit_pairs({"rotate_right": pairs})
        held_out = np.random.default_rng(5)
        for _ in range(50):
            state = ObjectState(int(held_out.integers(8)), int(held_out.integers(3)),
                                int(held_out.integers(5)), 90 * int(held_out.integers(4)),
                                int(held_out.integers(6)), int(held_out.integers(4)))
            before = encode(state, cb)
            after = transition(before, "rotate_right", maps)
            drift = np.linalg.norm(after - before, axis=1)
            for k in range(6):
                if k != ROT:
                    assert drift[k] < 0.1

    def test_insufficient_pairs(self):
        cb = build_codebook(seed=1)
        rng = np.random.default_rng(6)
        with pytest.raises(InsufficientPairs):
            fit_pairs({"move_left": movement_pairs(cb, "move_left", 7, rng)})

    def test_thin_key_dropped_beside_supported_key(self):
        cb = build_codebook(seed=1)
        rng = np.random.default_rng(6)
        maps = fit_pairs({"move_left": movement_pairs(cb, "move_left", 7, rng),
                          "move_right": movement_pairs(cb, "move_right", 8, rng)})
        assert maps.action_keys == ("move_right",)


class TestTransitionRollout:
    def test_identity_fit(self):
        cb = build_codebook(seed=7)
        rng = np.random.default_rng(8)
        states = [ObjectState(int(rng.integers(8)), int(rng.integers(3)),
                              int(rng.integers(5)), 90 * int(rng.integers(4)),
                              int(rng.integers(6)), int(rng.integers(4)))
                  for _ in range(100)]
        pairs = [(encode(s, cb), encode(s, cb)) for s in states]
        maps = fit_pairs({"rotate_left": pairs})
        x = encode(states[0], cb)
        assert token_mse(transition(x, "rotate_left", maps), x) <= 1e-6

    def test_unknown_action(self):
        cb = build_codebook(seed=7)
        rng = np.random.default_rng(9)
        maps = fit_pairs({"move_right": movement_pairs(cb, "move_right", 50, rng)})
        with pytest.raises(UnknownAction):
            transition(encode(ObjectState(0, 0, 0, 0, 0, 0), cb), "move_left", maps)
        with pytest.raises(UnknownAction, match="step 1"):
            rollout(encode(ObjectState(0, 0, 0, 0, 0, 0), cb),
                    ["move_right", "move_left"], maps)

    def test_round_trip_small_drift(self, level1_run):
        _, fitted = level1_run
        cb = fitted.codebook
        start = encode(ObjectState(2, 0, 2, 0, 1, 3), cb)
        out = transition(transition(start, "move_right", fitted.maps),
                         "move_left", fitted.maps)
        assert np.linalg.norm(out - start, axis=1).max() <= 0.1

    def test_change_color_targets_dyer_centroid(self, level3_run):
        _, fitted = level3_run
        cb = fitted.codebook
        for dyer_color in (0, 3):
            key = f"change_color@{dyer_color}"
            source = ObjectState(1, 1, 1, 0, (dyer_color + 1) % 6, 2)
            out = transition(encode(source, cb), key, fitted.maps)
            assert assign(out[COLOR], cb.centroids[COLOR]) == dyer_color

    def test_rollout_empty(self, level1_run):
        _, fitted = level1_run
        tokens = encode(ObjectState(0, 1, 1, 0, 0, 0), fitted.codebook)
        assert rollout(tokens, [], fitted.maps) == [tokens]

    def test_rollout_compositionality(self, level1_run):
        _, fitted = level1_run
        tokens = encode(ObjectState(0, 0, 0, 0, 0, 0), fitted.codebook)
        seq = ["move_right", "move_front", "move_front", "move_left"]
        whole = rollout(tokens, seq, fitted.maps)
        first = rollout(tokens, seq[:2], fitted.maps)
        second = rollout(first[-1], seq[2:], fitted.maps)
        for a, b in zip(whole, first + second[1:]):
            assert np.allclose(a, b)

    def test_gt_rollout_reaches_goal_symbols(self, level1_run):
        dataset, fitted = level1_run
        for task in dataset.subset("test")[:20]:
            tokens = encode(task.init, fitted.codebook)
            trace = rollout(tokens, task.gt_actions, fitted.maps)
            final = symbolize(trace[-1], fitted.symbolizer)
            goal = symbolize(encode(task.goal, fitted.codebook), fitted.symbolizer)
            assert final[POSX] == goal[POSX] and final[POSY] == goal[POSY]

    def test_long_rollout_drift_bounded(self, level4_run):
        # accumulated drift from true centroids stays under 0.5 * min_sep
        dataset, fitted = level4_run
        cb = fitted.codebook
        worst = 0.0
        for task in dataset.subset("test"):
            if len(task.gt_actions) < 10:
                continue
            keys = [action_key(a, task.env.dyer_color) for a in task.gt_actions]
            if any(k not in fitted.maps.matrices for k in keys):
                continue
            states = simulate(task.init, task.gt_actions, task.env)
            trace = rollout(encode(task.init, cb), keys, fitted.maps)
            truth = encode(states[-1], cb)
            worst = max(worst, float(np.linalg.norm(trace[-1] - truth, axis=1).max()))
        assert worst <= 0.5 * cb.min_sep


class TestTokenMSE:
    def test_zero_for_identical(self):
        x = np.ones((6, 8))
        assert token_mse(x, x) == 0.0

    def test_unit_offset(self):
        x = np.zeros((6, 8))
        assert token_mse(x + 1.0, x) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            token_mse(np.zeros((6, 8)), np.zeros((6, 4)))

    def test_heldout_mse_near_noise_floor(self, level1_run):
        # fitted on sigma=0.1 tokens: held-out prediction error stays near 2*sigma^2
        dataset, _ = level1_run
        from benchplan.fitting import FitConfig, fit_pipeline
        fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.1))
        rng = np.random.default_rng(31)
        errors = []
        for task in dataset.subset("test"):
            states, tokens = encode_trajectory(task, fitted.codebook, 0.1, rng)
            for t, action in enumerate(task.gt_actions):
                key = action_key(action, task.env.dyer_color)
                pred = transition(tokens[t], key, fitted.maps)
                errors.append(token_mse(pred, tokens[t + 1]))
        assert np.mean(errors) <= 2 * 0.1 ** 2 * 1.5


class TestLeastSquaresOptimality:
    def test_beats_centroid_displacement_map(self):
        # alternative map: identity plus the mean token displacement
        cb = build_codebook(seed=10)
        rng = np.random.default_rng(11)
        pairs = movement_pairs(cb, "move_front", 200, rng, sigma=0.05)
        maps = fit_pairs({"move_front": pairs})
        x = np.stack([p[0].ravel() for p in pairs])
        y = np.stack([p[1].ravel() for p in pairs])
        hand_b = (y - x).mean(axis=0)
        hand_mse = float(((x + hand_b - y) ** 2).mean())
        assert maps.residual_mse["move_front"] <= hand_mse

    def test_movement_displacement_is_disentangled(self, level1_run):
        _, fitted = level1_run
        cb = fitted.codebook
        rng = np.random.default_rng(12)
        for action, concept in [("move_front", POSY), ("move_back", POSY),
                                ("move_left", POSX), ("move_right", POSX)]:
            pairs = movement_pairs(cb, action, 50, rng)
            disp = np.zeros(6)
            for before, _ in pairs:
                out = transition(before, action, fitted.maps)
                disp += np.linalg.norm(out - before, axis=1)
            disp /= len(pairs)
            assert disp.argmax() == concept
            for k in (0, COLOR, 5):  # type, color, size stay put
                assert disp[k] < 0.05


class TestPlanTokenspace:
    def test_init_equals_goal(self, level1_run):
        _, fitted = level1_run
        tokens = encode(ObjectState(0, 1, 1, 0, 2, 0), fitted.codebook)
        masks = SymbolMasks.build(EnvConfig(level=1), fitted.value_maps.symbol_to_value)
        result = plan_tokenspace(fitted.maps, tokens, tokens, fitted.symbolizer,
                                 masks, top_k=5, l_max=6)
        assert result.best.actions == ()

    def test_level1_noiseless_success_rates(self, level1_run):
        from benchplan.evaluate import run_experiment
        dataset, fitted = level1_run
        token = run_experiment(dataset, fitted, planner="token", noise_sigma=0.0)
        symbolic = run_experiment(dataset, fitted, planner="symbolic",
                                  noise_sigma=0.0)
        assert token.asacc_top1 <= symbolic.asacc_top1
        assert token.asacc_top1 >= 90.0
        assert symbolic.asacc_top1 >= 90.0

    @pytest.mark.parametrize("sigma", (0.0, 0.2))
    @pytest.mark.parametrize("run, cap", [("level3_run", None), ("level4_run", 6)])
    def test_trust_equals_frozen_rule_on_every_successor(self, run, cap, sigma, request,
                                                         monkeypatch):
        # the successors the search position-checks are, in the order computed,
        # exactly those the frozen per-concept norm rule trusts; the rule costs
        # ~30 us a successor, and level 4's 50 searches compute ~160k, so only
        # its first `cap` tasks (~7k-31k successors) are searched
        dataset, fitted = request.getfixturevalue(run)
        symbolizer = fitted.symbolizer
        gaps = _min_center_gaps(symbolizer)
        computed, checked = [], []
        real_transition, real_valid = token_maps.transition, SymbolMasks.position_valid

        def recording_transition(*args):
            computed.append(real_transition(*args))
            return computed[-1]

        def recording_valid(masks, state):
            checked.append(state)
            return real_valid(masks, state)

        monkeypatch.setattr(token_maps, "transition", recording_transition)
        monkeypatch.setattr(SymbolMasks, "position_valid", recording_valid)
        tasks = dataset.subset("test")
        codebook = codebook_for_tasks(fitted, tasks)
        n_trusted = n_computed = 0
        for i, task in enumerate(tasks[:cap]):
            rng = np.random.default_rng([11, i])
            init, goal = (encode(s, codebook, sigma, rng) for s in (task.init, task.goal))
            masks = SymbolMasks.build(task.env, fitted.value_maps.symbol_to_value)
            try:
                plan_tokenspace(fitted.maps, init, goal, symbolizer, masks,
                                top_k=5, l_max=task.env.max_len)
            except NoPlanFound:
                pass
            snapped = [oracle_symbolize(t, symbolizer) for t in computed]
            trusted = [sym for t, sym in zip(computed, snapped)
                       if oracle_snap_trusted(t, sym, symbolizer, gaps)]
            assert checked == trusted, task.task_id
            n_trusted, n_computed = n_trusted + len(trusted), n_computed + len(computed)
            computed.clear()
            checked.clear()
        assert 0 < n_trusted < n_computed  # both decisions are exercised

    @pytest.mark.parametrize("offset, trusted", [
        (SNAP_MARGIN, True),  # on the margin: trusted, as `> margin` was the frozen test
        (np.nextafter(SNAP_MARGIN, 0.0), True),
        (np.nextafter(SNAP_MARGIN, 1.0), False),
    ])
    def test_trust_margin_edges(self, offset, trusted):
        # two centers a unit apart per concept (gap 1, radius SNAP_MARGIN); the one
        # key moves pos_x onto its second center, `offset` off it across the axis
        symbolizer = Symbolizer(centers=(np.array([[0.0, 0.0], [1.0, 0.0]]),) * 6,
                                inertia=(0.0,) * 6, iterations=(1,) * 6)
        goal = np.zeros((6, 2))
        goal[POSX] = (1.0, 0.0)
        shift = np.zeros((6, 2))
        shift[POSX] = (1.0, offset)
        maps = ActionTransitionMaps(dim=2, matrices={"move_right": np.eye(12)},
                                    offsets={"move_right": shift.ravel()},
                                    residual_mse={"move_right": 0.0})
        masks = SymbolMasks(valid=((True,) * 2,) * 2, adjacent=((False,) * 2,) * 2,
                            dyer_color=None, goal_concepts=(POSX, POSY))
        # `shift` is the key's successor of the all-zero init
        assert oracle_snap_trusted(shift, (0, 1, 0, 0, 0, 0), symbolizer,
                                   _min_center_gaps(symbolizer)) is trusted
        if trusted:
            result = plan_tokenspace(maps, np.zeros((6, 2)), goal, symbolizer, masks, l_max=1)
            assert result.best.actions == ("move_right",)
        else:
            with pytest.raises(NoPlanFound):
                plan_tokenspace(maps, np.zeros((6, 2)), goal, symbolizer, masks, l_max=1)

    def test_no_available_key_finds_no_plan(self, level3_run):
        # a map set of dye keys only, on a bench without a dyer, has no step to take
        _, fitted = level3_run
        dye = [k for k in fitted.maps.action_keys if k.startswith("change_color")]
        maps = ActionTransitionMaps(
            dim=fitted.maps.dim, matrices={k: fitted.maps.matrices[k] for k in dye},
            offsets={k: fitted.maps.offsets[k] for k in dye},
            residual_mse={k: fitted.maps.residual_mse[k] for k in dye})
        init = encode(ObjectState(0, 1, 1, 0, 2, 0), fitted.codebook)
        goal = encode(ObjectState(0, 2, 1, 0, 2, 0), fitted.codebook)
        masks = SymbolMasks.build(EnvConfig(level=1), fitted.value_maps.symbol_to_value)
        with pytest.raises(NoPlanFound):
            plan_tokenspace(maps, init, goal, fitted.symbolizer, masks)
