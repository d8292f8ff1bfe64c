"""`fit_pipeline` fits the training split as arrays: one token stack, a key id
per row and the key names in first-seen order. Its tokens must be, bit for bit,
the per-task `encode_trajectory` tokens end to end, and its counts and maps
those of the frozen Counter over triplets and of each key's stacked pair list."""

import numpy as np
import pytest

from _oracles import encode_trajectory, oracle_fit_affine, oracle_fit_transitions
from benchplan import fitting
from benchplan.fitting import FitConfig, InvalidGtPlan, fit_pipeline
from benchplan.mdp import action_key
from benchplan.streams import STREAMS
from benchplan.symbols import symbolize
from benchplan.taskgen import Dataset, Task
from benchplan.workbench import EnvConfig, ObjectState, SimulationError

RUNS = ("level1_run", "level3_run", "level4_run")


@pytest.fixture(scope="module", params=[(run, sigma) for run in RUNS for sigma in (0.0, 0.2)],
            ids=lambda p: f"{p[0]}-{p[1]}")
def split_fit(request):
    """(dataset, sigma, fitted, the arguments `fit_affine` was called with)."""
    run, sigma = request.param
    dataset, _ = request.getfixturevalue(run)
    calls = []

    def spy(*args):
        calls.append(args)
        return fit_affine(*args)

    fit_affine = fitting.fit_affine
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "fit_affine", spy)
        fitted = fit_pipeline(dataset, FitConfig(noise_sigma=sigma))
    (layout,) = calls
    return dataset, sigma, fitted, layout


def per_task_paths(dataset, sigma, fitted):
    """Each training task's (tokens, keys), encoded on its own as the fit once did."""
    for i, task in enumerate(dataset.tasks):
        if task.split == "train":
            rng = np.random.default_rng([0, STREAMS["fit_noise"].tag, i]) if sigma else None
            _, tokens = encode_trajectory(task, fitted.codebook, sigma, rng)
            yield tokens, [action_key(a, task.env.dyer_color) for a in task.gt_actions]


def test_whole_split_tokens_equal_per_task_encoding(split_fit):
    dataset, sigma, fitted, (tokens, key_ids, key_names) = split_fit
    paths = list(per_task_paths(dataset, sigma, fitted))
    assert tokens.tobytes() == np.concatenate([t for t, _ in paths]).tobytes()
    names = list(dict.fromkeys(key for _, keys in paths for key in keys))
    assert key_names == tuple(names)
    assert key_ids.tolist() == [i for _, keys in paths
                                for i in [*(names.index(k) for k in keys), -1]]


def test_counts_equal_frozen_counter(split_fit):
    dataset, sigma, fitted, _ = split_fit
    triplets = []
    for tokens, keys in per_task_paths(dataset, sigma, fitted):
        symbols = [symbolize(t, fitted.symbolizer) for t in tokens]
        triplets += [(symbols[t], key, symbols[t + 1]) for t, key in enumerate(keys)]
    frozen = oracle_fit_transitions(triplets, fitted.symbolizer.cardinalities,
                                    thresh=fitted.config.thresh)
    assert fitted.model.action_keys == frozen.action_keys
    assert list(fitted.model.counts) == list(frozen.counts)  # first-seen order
    for key in frozen.action_keys:
        for a, b in zip(fitted.model.counts[key], frozen.counts[key], strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_maps_equal_frozen_pair_stacking(split_fit):
    dataset, sigma, fitted, _ = split_fit
    pairs = {}
    for tokens, keys in per_task_paths(dataset, sigma, fitted):
        for t, key in enumerate(keys):
            pairs.setdefault(key, []).append((tokens[t], tokens[t + 1]))
    frozen = oracle_fit_affine(pairs, dim=fitted.config.dim)
    maps = fitted.maps
    assert (maps.action_keys, maps.dim) == (frozen.action_keys, frozen.dim)
    assert list(maps.matrices) == list(frozen.matrices)  # first-seen order
    for key in frozen.action_keys:
        assert maps.matrices[key].tobytes() == frozen.matrices[key].tobytes()
        assert maps.offsets[key].tobytes() == frozen.offsets[key].tobytes()
        assert maps.residual_mse[key] == frozen.residual_mse[key]


@pytest.mark.parametrize("sigma", (0.0, 0.2))
def test_only_a_noisy_fit_builds_noise_streams(level1_run, monkeypatch, sigma):
    dataset, _ = level1_run
    seeds, default_rng = [], np.random.default_rng

    def recorded(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recorded)
    fit_pipeline(dataset, FitConfig(noise_sigma=sigma))
    streams = [s[2] for s in seeds if s[:2] == [0, STREAMS["fit_noise"].tag]]
    train = [i for i, task in enumerate(dataset.tasks) if task.split == "train"]
    assert streams == (train if sigma else [])


def test_a_gt_plan_that_does_not_replay_is_refused_by_name():
    # the second training task's plan runs into the obstacle at its fourth step
    env, start = EnvConfig(level=2, obstacles=((2, 0),)), ObjectState(0, 0, 0, 0, 0, 0)
    tasks = [Task(env, start, ObjectState(0, 1, 0, 0, 0, 0), ("move_right",), "L2-00000"),
             Task(env, start, ObjectState(0, 1, 0, 0, 0, 0),
                  ("move_front", "move_right", "move_back", "move_right"), "L2-00001")]
    with pytest.raises(InvalidGtPlan) as err:
        fit_pipeline(Dataset(tasks, seed=0, codebook_seed=0))
    assert str(err.value) == ("task L2-00001: gt plan does not replay: illegal action at "
                              "step 3: move_right from (1, 0) hits (2, 0)")
    assert isinstance(err.value.__cause__, SimulationError)
