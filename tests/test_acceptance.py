"""Acceptance suite: every release criterion, one test each, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Desk-scale datasets are 800/100/100 per level.
"""

import itertools
import time

import numpy as np
import pytest

from _oracles import oracle_sequence, point_mass
from benchplan.artifacts import save_dataset, save_fitted, save_report
from benchplan.concepts import build_codebook, encode
from benchplan.evaluate import interpretability_report, run_experiment
from benchplan.fitting import FitConfig, fit_pipeline
from benchplan.mdp import (
    DeadDistribution,
    SymbolMasks,
    action_legal,
    available_keys,
    marginal_masks,
    propagate,
)
from benchplan.symbols import fit_symbolizer, purity, symbolize
from benchplan.taskgen import (
    generate_dataset,
    make_unseen_object_split,
    make_unseen_task_split,
)
from benchplan.workbench import EnvConfig, ObjectState

COUNTS = (800, 100, 100)
SEED = 11


class Runs:
    """Lazy cache of full-scale pipeline runs shared by the criteria."""

    def __init__(self):
        self._cache = {}

    def std(self, level, sigma):
        key = ("std", level, sigma)
        if key not in self._cache:
            t0 = time.perf_counter()
            dataset = generate_dataset(level, COUNTS, seed=SEED)
            fitted = fit_pipeline(dataset, FitConfig(noise_sigma=sigma))
            report = run_experiment(dataset, fitted, noise_sigma=sigma)
            elapsed = time.perf_counter() - t0
            self._cache[key] = (dataset, fitted, report, elapsed)
        return self._cache[key]

    def chance(self, level):
        key = ("chance", level)
        if key not in self._cache:
            dataset, fitted, _, _ = self.std(level, 0.0)
            self._cache[key] = run_experiment(dataset, fitted, planner="chance",
                                              seed=SEED)
        return self._cache[key]

    def unseen_task(self, level):
        key = ("unseen_task", level)
        if key not in self._cache:
            dataset = make_unseen_task_split(level, COUNTS, seed=SEED)
            fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.0))
            self._cache[key] = run_experiment(dataset, fitted, noise_sigma=0.0)
        return self._cache[key]

    def all_symbolic_reports(self):
        return [entry[2] for key, entry in self._cache.items() if key[0] == "std"]


@pytest.fixture(scope="module")
def runs():
    return Runs()


def test_criterion_01_level12_planning_accuracy_and_runtime(runs):
    for level in (1, 2):
        _, _, report, elapsed = runs.std(level, 0.0)
        assert report.asacc_top1 >= 99.0, \
            f"level {level} top-1 {report.asacc_top1}"
        assert elapsed < 60.0, f"level {level} took {elapsed:.1f}s"
    print("\nACCEPTANCE 01 PASS: levels 1-2 noiseless top-1 "
          f"{runs.std(1, 0.0)[2].asacc_top1:.1f}/{runs.std(2, 0.0)[2].asacc_top1:.1f}%, "
          f"runtimes {runs.std(1, 0.0)[3]:.1f}s/{runs.std(2, 0.0)[3]:.1f}s")


def test_criterion_02_level34_accuracy_with_and_without_noise(runs):
    for level in (3, 4):
        _, _, report, _ = runs.std(level, 0.0)
        assert report.asacc_top1 >= 95.0, f"level {level} top-1 {report.asacc_top1}"
    _, _, noisy, _ = runs.std(4, 0.2)
    assert noisy.asacc_top1 >= 60.0, f"level 4 sigma=0.2 top-1 {noisy.asacc_top1}"
    for report in runs.all_symbolic_reports():
        assert report.asacc_top5 >= report.asacc_top1
    print("ACCEPTANCE 02 PASS: level-3/4 noiseless "
          f"{runs.std(3, 0.0)[2].asacc_top1:.1f}/{runs.std(4, 0.0)[2].asacc_top1:.1f}%, "
          f"level-4 sigma=0.2 {noisy.asacc_top1:.1f}%, top5 >= top1 everywhere")


def test_criterion_03_plan_efficiency(runs):
    values = []
    for level in (1, 2, 3, 4):
        _, _, report, _ = runs.std(level, 0.0)
        assert report.ase is not None
        assert report.ase >= 0.95
        assert report.ase <= 1.0
        values.append(report.ase)
    print(f"ACCEPTANCE 03 PASS: ASE per level {['%.3f' % v for v in values]}, "
          "all within [0.95, 1.0]")


def test_criterion_04_final_state_distance_and_chance(runs):
    for level in (1, 2, 3, 4):
        _, _, report, _ = runs.std(level, 0.0)
        for record in report.records:
            if record.top1_success:
                assert record.fsd == 0.0
    chance1, chance4 = runs.chance(1), runs.chance(4)
    assert chance1.fsd_mean >= 1.5
    assert chance1.asacc_top1 <= 5.0
    assert chance4.asacc_top1 <= 1.0
    print("ACCEPTANCE 04 PASS: success => FSD 0; chance level-1 "
          f"top-1 {chance1.asacc_top1:.1f}% fsd {chance1.fsd_mean:.2f}, "
          f"level-4 top-1 {chance4.asacc_top1:.1f}%")


def test_criterion_05_propagation_matches_brute_force(runs):
    """All action sequences of length <= 3 from all per-concept point masses.

    The factored distribution makes per-concept point masses exhaustive for
    the joint product space; starts are packed diagonally so every
    (concept, symbol) start is covered.
    """
    t0 = time.perf_counter()
    checked = 0
    scenarios = []
    _, fitted2, _, _ = runs.std(2, 0.0)
    env2 = EnvConfig(level=2, obstacles=((0, 1), (1, 1), (2, 1)))
    scenarios.append((fitted2, env2))
    _, fitted4, _, _ = runs.std(4, 0.0)
    env4 = EnvConfig(level=4, obstacles=((1, 2),), dyer=(2, 3), dyer_color=2)
    scenarios.append((fitted4, env4))

    for fitted, env in scenarios:
        model = fitted.model
        masks = SymbolMasks.build(env, fitted.value_maps.symbol_to_value)
        keys = available_keys(model, masks)
        valid = marginal_masks(env, fitted.value_maps.symbol_to_value)
        max_card = max(model.cardinalities)
        for length in (1, 2, 3):
            for seq in itertools.product(keys, repeat=length):
                for offset in range(max_card):
                    start = tuple(min(offset, c - 1) for c in model.cardinalities)
                    expected = [oracle_sequence(model, k, start[k], seq, valid)
                                for k in range(6)]
                    try:
                        dist = point_mass(start, model.cardinalities)
                        for key in seq:
                            dist = propagate(dist, key, model, valid)
                    except DeadDistribution:
                        assert any(e is None for e in expected), \
                            f"propagate died, oracle alive: {seq} from {start}"
                        continue
                    assert all(e is not None for e in expected), \
                        f"oracle died, propagate alive: {seq} from {start}"
                    for k in range(6):
                        assert np.allclose(dist[k], expected[k], atol=1e-9)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"exhaustive check took {elapsed:.1f}s"
    print(f"ACCEPTANCE 05 PASS: {checked} live sequence/start combinations "
          f"match the brute-force oracle within 1e-9 ({elapsed:.1f}s)")


def test_criterion_06_boundary_actions_masked(runs):
    off_grid = {"move_right": lambda x, y: x == 2,
                "move_left": lambda x, y: x == 0,
                "move_front": lambda x, y: y == 4,
                "move_back": lambda x, y: y == 0}
    checked = 0
    for level in (1, 4):
        _, fitted, _, _ = runs.std(level, 0.0)
        vmap = fitted.value_maps.value_to_symbol
        for x in range(3):
            for y in range(5):
                for rot_idx in range(4):
                    for color in range(6):
                        state = (vmap[0][0], vmap[1][x], vmap[2][y],
                                 vmap[3][rot_idx], vmap[4][color], vmap[5][0])
                        for action, at_edge in off_grid.items():
                            if at_edge(x, y):
                                assert not action_legal(fitted.model, state, action), \
                                    f"L{level}: {action} at ({x},{y}) not masked"
                                checked += 1
    print(f"ACCEPTANCE 06 PASS: {checked} off-grid actions rejected by the "
          "legality indicator across the full grid")


def _random_states(rng, n, cardinalities):
    for _ in range(n):
        yield ObjectState(int(rng.integers(cardinalities[0])),
                          int(rng.integers(3)), int(rng.integers(5)),
                          90 * int(rng.integers(4)), int(rng.integers(6)),
                          int(rng.integers(4)))


def test_criterion_07_symbol_purity():
    cb = build_codebook(seed=SEED, min_sep=1.0)
    for sigma, floor in ((0.0, 1.0), (0.1, 0.99)):
        rng = np.random.default_rng([SEED, 61])
        states, tokens = [], []
        for state in _random_states(rng, 10_000, cb.cardinalities):
            states.append(state)
            tokens.append(encode(state, cb, sigma, rng) if sigma
                          else encode(state, cb))
        symbolizer, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        scores = purity([symbolize(t, symbolizer) for t in tokens],
                        np.array([s.values() for s in states]))
        assert scores.min() >= floor, f"sigma={sigma}: {scores}"
        if sigma == 0.0:
            assert np.array_equal(scores, np.ones(6))
    print("ACCEPTANCE 07 PASS: purity 1.0 at sigma 0 and >= 0.99 at "
          "0.1*min_sep over 10,000 tokens, all six concepts")


def test_criterion_08_changed_concept_identification():
    from _metrics import disentanglement_score
    cb = build_codebook(seed=SEED, min_sep=1.0)
    scores = {}
    for sigma in (0.0, 0.05):
        rng = np.random.default_rng([SEED, 62])
        pairs = []
        for state in _random_states(rng, 10_000, cb.cardinalities):
            k = int(rng.integers(6))
            values = list(state.values())
            card = cb.cardinalities[k]
            values[k] = (values[k] + 1 + int(rng.integers(card - 1))) % card
            other = ObjectState(values[0], values[1], values[2],
                                90 * values[3], values[4], values[5])
            a = encode(state, cb, sigma, rng) if sigma else encode(state, cb)
            b = encode(other, cb, sigma, rng) if sigma else encode(other, cb)
            pairs.append((a, b, k))
        scores[sigma] = disentanglement_score(pairs)
    assert scores[0.0] == 1.0
    assert scores[0.05] >= 0.99
    print(f"ACCEPTANCE 08 PASS: changed-concept accuracy {scores[0.0]:.4f} at "
          f"sigma 0, {scores[0.05]:.4f} at 0.05*min_sep over 10,000 pairs")


def test_criterion_09_interpretability_argmax(runs):
    _, fitted, _, _ = runs.std(4, 0.0)
    report = interpretability_report(fitted.maps, fitted.codebook, seed=SEED)
    expected = {"move_front": "pos_y", "move_back": "pos_y",
                "move_left": "pos_x", "move_right": "pos_x",
                "rotate_left": "rotation", "rotate_right": "rotation",
                "change_color": "color"}
    dominant = report.argmax_concepts()
    assert set(dominant) == set(expected)
    hits = sum(dominant[a] == c for a, c in expected.items())
    assert hits == 7, f"only {hits}/7 semantically matched: {dominant}"
    print("ACCEPTANCE 09 PASS: displacement argmax matches action semantics 7/7")


def test_criterion_10_generalization(runs):
    dataset1, fitted1, seen, _ = runs.std(1, 0.0)
    unseen = make_unseen_object_split(dataset1, set(range(8, 12)))
    unseen_report = run_experiment(unseen, fitted1, noise_sigma=0.0)
    assert unseen_report.asacc_top1 == seen.asacc_top1
    deltas = []
    for level in (1, 2):
        full = runs.std(level, 0.0)[2].asacc_top1
        held = runs.unseen_task(level).asacc_top1
        deltas.append(abs(full - held))
        assert abs(full - held) <= 2.0, \
            f"level {level}: unseen-task {held} vs full {full}"
    print("ACCEPTANCE 10 PASS: unseen-object ASAcc "
          f"{unseen_report.asacc_top1:.1f}% == seen {seen.asacc_top1:.1f}%; "
          f"unseen-task deltas {deltas} <= 2 points")


def test_criterion_11_token_space_ablation(runs):
    dataset = generate_dataset(3, COUNTS, seed=SEED)
    fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.1))
    symbolic = run_experiment(dataset, fitted, noise_sigma=0.1)
    token = run_experiment(dataset, fitted, planner="token", noise_sigma=0.1)
    assert token.asacc_top1 <= symbolic.asacc_top1
    assert token.asacc_top5 <= symbolic.asacc_top5
    print("ACCEPTANCE 11 PASS: level-3 at 0.1*min_sep, token planner "
          f"{token.asacc_top1:.1f}% <= symbolic {symbolic.asacc_top1:.1f}%")


def test_criterion_12_byte_determinism(tmp_path):
    def one_run(root):
        dataset = generate_dataset(3, (120, 10, 20), seed=17)
        save_dataset(root / "data.txt", dataset)
        fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.1))
        save_fitted(root, fitted)
        report = run_experiment(dataset, fitted, noise_sigma=0.1, seed=17)
        save_report(root, report, {"seed": 17})
        return sorted(p.name for p in root.iterdir())

    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    names_a, names_b = one_run(a_dir), one_run(b_dir)
    assert names_a == names_b
    for name in names_a:
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), \
            f"{name} differs between identical runs"
    print(f"ACCEPTANCE 12 PASS: {len(names_a)} artifact files byte-identical "
          "across two full pipeline runs")
