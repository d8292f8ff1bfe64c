import numpy as np
import pytest

from benchplan.concepts import build_codebook, encode
from _oracles import encode_trajectory, fit_layout
from benchplan.mdp import SymbolMasks, action_key
from benchplan.symbols import assign, symbolize
from benchplan.token_maps import (
    InsufficientPairs,
    UnknownAction,
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
