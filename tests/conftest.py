import hypothesis
import numpy as np
import pytest

from _oracles import encode_trajectory
from benchplan.fitting import FitConfig, fit_pipeline
from benchplan.streams import STREAMS
from benchplan.taskgen import generate_dataset

hypothesis.settings.register_profile("suite", max_examples=50, deadline=None)
hypothesis.settings.load_profile("suite")


@pytest.fixture(scope="session")
def level1_run():
    """Small noiseless level-1 dataset plus fitted pipeline, shared across tests."""
    dataset = generate_dataset(1, (200, 20, 40), seed=7)
    fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.0))
    return dataset, fitted


@pytest.fixture(scope="session")
def level3_run():
    """Small noiseless level-3 dataset plus fitted pipeline (dyer + obstacles)."""
    dataset = generate_dataset(3, (300, 20, 50), seed=7)
    fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.0))
    return dataset, fitted


@pytest.fixture(scope="session")
def level4_run():
    """Small noiseless level-4 dataset plus fitted pipeline (rotations involved)."""
    dataset = generate_dataset(4, (300, 20, 50), seed=7)
    fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.0))
    return dataset, fitted


@pytest.fixture(scope="session")
def training_tokens():
    """`(run, sigma) ->` the (n, 6, dim) training tokens `fit_pipeline` (seed 0)
    fits a run's dataset on at noise `sigma`, encoded with the run's codebook."""
    def tokens(run, sigma):
        dataset, fitted = run
        return np.concatenate([
            encode_trajectory(task, fitted.codebook, sigma, np.random.default_rng(
                [0, STREAMS["fit_noise"].tag, i]) if sigma else None)[1]
            for i, task in enumerate(dataset.tasks) if task.split == "train"])
    return tokens
