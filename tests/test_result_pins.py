"""Every planner result on fixed-seed datasets, pinned by sha256.

A digest covers, per test task in order, the task id and either the plans
(action keys and the exact score, as `float.hex`) and warnings of the
`PlanResult`, or the type and message of the exception the planner raised.
Each task is encoded as `run_experiment` encodes it (eval seed 0), with the
fit's noise. A new digest here is a change to planner results: declare it,
with the old and new digests and how many tasks changed.
"""

import hashlib
from functools import cache

import numpy as np
import pytest

from benchplan.evaluate import plan_task
from benchplan.fitting import FitConfig, codebook_for_tasks, fit_pipeline
from benchplan.mdp import InvalidInit, NoPlanFound
from benchplan.streams import STREAMS
from benchplan.taskgen import generate_dataset


@cache
def _fit(level, counts, sigma):
    """The seed-11 dataset and its fit, shared by the symbolic and token pins."""
    dataset = generate_dataset(level, counts, 11)
    return dataset, fit_pipeline(dataset, FitConfig(noise_sigma=sigma))


def result_digest(level, counts, sigma, planner):
    dataset, fitted = _fit(level, counts, sigma)
    tasks = dataset.subset("test")
    codebook = codebook_for_tasks(fitted, tasks)
    lines = []
    for index, task in enumerate(tasks):
        rng = np.random.default_rng([0, STREAMS["eval"].tag, index])
        try:
            result, _, _ = plan_task(task, fitted, codebook, planner=planner,
                                     noise_sigma=sigma, top_k=5, l_max=None, rng=rng)
        except (NoPlanFound, InvalidInit) as err:
            lines.append(f"{task.task_id} {type(err).__name__}: {err}")
            continue
        plans = [f"{','.join(p.actions)}:{float.hex(p.score)}" for p in result.plans]
        lines.append(f"{task.task_id} {' '.join(plans)} | {'; '.join(result.warnings)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# symbolic planner, desk scale (800/100/100 tasks per level)
PINNED_SYMBOLIC = {
    (1, 0.0): "b906d71491b1bdc3efcee4ba8440dd55d1aaa7fbca314dbd0e079e91faf8b210",
    (1, 0.4): "eb8ae04a14041188920c80ea4162a5c406c6e0ff767cdefa8d6c1aeffcb7eb2b",
    (2, 0.0): "e935a1ae6a17185bb0fbadf5476afeef32af0c14e7e876b4236241148cef1adc",
    (2, 0.4): "041439dd3f1083194dcdf40cca240edbe0c814a3e05db8b57146a2cf0ccb5bc5",
    (3, 0.0): "4732ae1d9dac9f8bc6aa281d771becde65320e5140591f955c861cfcf45766bc",
    (3, 0.4): "de4dbcbeccb6b24046b8fc35e8ee585334240c8dbfbe9b2cec622a8f2b0766da",
    (4, 0.0): "0d6f69b50489ed3a1c6f0a99b9f7cba6048e0fb31f84c22c7c12d48a7a2d9011",
    (4, 0.4): "bcb6acc26d7eef0576cc536c648484ee711c932884ad5fe05204beafe55ed363",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_SYMBOLIC))
def test_symbolic_results_are_pinned(level, sigma):
    digest = result_digest(level, (800, 100, 100), sigma, "symbolic")
    assert digest == PINNED_SYMBOLIC[level, sigma]


# token-space planner, desk scale; its σ=0 runs share the symbolic pins' fits
PINNED_TOKEN_DESK = {
    (1, 0.0): "f03833e56784c58f9e4485fcc271cbb9fb0cef30114ae3cf0b0f31f370ed6189",
    (1, 0.2): "ab655fd1bdabd015ec44baee427937ae0aa04eb9b5aa4c2829e78b25a5eecbea",
    (2, 0.0): "537a90edfab6c48677ca0ff028dcc2f073e8098c0c61a244e65f1fe313b1e12f",
    (2, 0.2): "4230fd796a1607d6595edac30d4b661fa8bdec6e67b332881764796e4f6fc409",
    (3, 0.0): "0f955a632ff9ec3e23b4f995a607e8922451d4abcdcce5b1bc2dd384fb268908",
    (3, 0.2): "edba9db853653988f98208c16ecf08654640134ccdc2350b558679addc8be70b",
    (4, 0.0): "db9194b8ac303ca250f3809f2332a45752060b397c3bceab7b13a5eb65c82fd9",
    (4, 0.2): "44e9a4c597b72bd4d87a4dfb66db4b2587b8cd1a9aed4510dbfc7d9f0fff3892",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_TOKEN_DESK))
def test_token_results_are_pinned_at_desk_scale(level, sigma):
    digest = result_digest(level, (800, 100, 100), sigma, "token")
    assert digest == PINNED_TOKEN_DESK[level, sigma]


# token-space planner, on small splits
PINNED_TOKEN = {
    (1, 0.0): "1dee73bc683bc3664f9b13f86172c869b28d98b6955ed9e8bdd4f7b1f2a8b55e",
    (2, 0.2): "4438f35fb42349805039b9cb629e02522b26dc3010d23cb25965a8d64a602337",
    (3, 0.0): "a053ecb48443b48d587f3a121917af39e5a8242d905dc4e92f6dfe49154fdd6c",
    (4, 0.2): "815e7738ae38a189cf29cfc47e4befc48c3bcfbb7719ad755b361d3851208c38",
}


@pytest.mark.parametrize("level, sigma", sorted(PINNED_TOKEN))
def test_token_results_are_pinned(level, sigma):
    digest = result_digest(level, (200, 0, 20), sigma, "token")
    assert digest == PINNED_TOKEN[level, sigma]
