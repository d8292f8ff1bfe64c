"""End-to-end fitting: dataset -> codebook -> symbolizer -> MDP counts -> affine maps.

Each training gt plan is replayed once; all else reads whole-split arrays: the
states' concept values, one token stack from one gather, and a key id per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import streams
from .concepts import (DEFAULT_DIM, DEFAULT_MIN_SEP, SIGMA, ConceptCodebook, UnknownValue,
                       build_codebook, encode_values, extend_codebook)
from .concepts import encode  # noqa: F401  unused; perfbench's trace points patch this name
from .mdp import DEFAULT_THRESH, THRESH, TransitionModel, action_key, fit_transitions
from .symbols import (DEFAULT_RESTARTS, RESTARTS, InsufficientPoints, Symbolizer,
                      finite_sq_dists, fit_symbolizer, purity)
from .symbols import symbolize  # noqa: F401  unused; perfbench's trace points patch this name
from .taskgen import Dataset, Task
from .token_maps import MIN_PAIRS, ActionTransitionMaps, InsufficientPairs, fit_affine
from .workbench import TYPE, ObjectState, SimulationError, simulate

# each action key's token map is (6 dim)^2 floats, 4.7 MB at 128; a fit file's
# header is refused past this before its dim sizes anything
MAX_DIM = 128
FIT_SETTINGS = {  # FitConfig's one table: each field's fit.txt header key, option and bound
    "dim": ("dim", "--dim", streams.Bound(int, f"in 2..{MAX_DIM}", lambda v: 2 <= v <= MAX_DIM)),
    "min_sep": ("min_sep", "--min-sep", SIGMA),
    "noise_sigma": ("noise_sigma", "--sigma", SIGMA),
    "thresh": ("thresh", "--thresh", THRESH),
    "seed": ("fit_seed", "--seed", streams.SEED),
    "restarts": ("restarts", "--restarts", RESTARTS),
}


class InvalidGtPlan(Exception):
    """A training task's gt plan does not replay on its bench."""


@dataclass(frozen=True)
class FitConfig:
    dim: int = DEFAULT_DIM
    min_sep: float = DEFAULT_MIN_SEP
    noise_sigma: float = 0.1
    thresh: float = DEFAULT_THRESH
    seed: int = 0
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):  # a refusal names the header key, as a fit file's does
        for name, (key, _, bound) in FIT_SETTINGS.items():
            bound.check(key, getattr(self, name))


@dataclass(frozen=True)
class ValueMaps:
    """Correspondence between ground-truth values and fitted cluster labels."""

    value_to_symbol: tuple[tuple[int, ...], ...]
    symbol_to_value: tuple[tuple[int, ...], ...]


def value_symbol_maps(codebook: ConceptCodebook, symbolizer: Symbolizer) -> ValueMaps:
    """Ground each cluster by nearest codebook centroid, and vice versa."""
    dists = [finite_sq_dists(centroids, centers, "values")  # (values, symbols)
             for centroids, centers in zip(codebook.centroids, symbolizer.centers)]
    return ValueMaps(value_to_symbol=tuple(tuple(d.argmin(axis=1).tolist()) for d in dists),
                     symbol_to_value=tuple(tuple(d.argmin(axis=0).tolist()) for d in dists))


@dataclass
class Fitted:
    """Everything the planner and evaluator need, fit from one dataset."""

    config: FitConfig
    codebook: ConceptCodebook
    symbolizer: Symbolizer
    model: TransitionModel
    maps: ActionTransitionMaps
    train_purity: tuple[float, ...]
    value_maps: ValueMaps = field(init=False)  # derived from codebook and symbolizer

    def __post_init__(self):
        self.value_maps = value_symbol_maps(self.codebook, self.symbolizer)


def fit_pipeline(dataset: Dataset, config: FitConfig = FitConfig()) -> Fitted:
    """Fit all stages on the dataset's training split."""
    codebook = build_codebook(dim=config.dim, seed=dataset.codebook_seed,
                              min_sep=config.min_sep)
    train = [(i, task) for i, task in enumerate(dataset.tasks) if task.split == "train"]
    if not train:
        raise InsufficientPoints("dataset has no training tasks")
    # every training state's concept values, task after task, and the id of the
    # key taken from each state, ids in first-seen order (-1 from a path's last)
    values, key_ids, key_index, cards = [], [], {}, codebook.cardinalities
    for _, task in train:
        try:
            path = simulate(task.init, task.gt_actions, task.env)
        except SimulationError as err:
            raise InvalidGtPlan(f"task {task.task_id}: gt plan does not replay: {err}") from err
        if task.init.type_id >= cards[TYPE]:  # ObjectState bounds every other value
            raise UnknownValue(f"task {task.task_id}: type value {task.init.type_id} "
                               f"outside codebook (cardinality {cards[TYPE]})")
        values += map(ObjectState.values, path)
        key_ids += [*(key_index.setdefault(action_key(a, task.env.dyer_color), len(key_index))
                      for a in task.gt_actions), -1]
    if not key_index:  # no (before, after) pair to count or map
        raise InsufficientPairs("no training task's gt plan takes an action")
    values, key_ids, key_names = np.array(values), np.array(key_ids), tuple(key_index)
    tokens = encode_values(values, codebook)  # (n, 6, dim)
    if config.noise_sigma > 0:  # each task's noise from its own stream; none at 0
        paths = np.split(tokens, np.flatnonzero(key_ids[:-1] < 0) + 1)  # views of tokens
        for (i, _), rows in zip(train, paths, strict=True):
            rng = streams.rng(config.seed, "fit_noise", i)
            rows += rng.normal(0.0, config.noise_sigma, rows.shape)

    symbolizer, labels = fit_symbolizer(tokens, cards, seed=config.seed,
                                        restarts=config.restarts)
    model = fit_transitions(labels, key_ids, key_names, symbolizer.cardinalities,
                            thresh=config.thresh)
    maps = fit_affine(tokens, key_ids, key_names)
    train_purity = tuple(float(p) for p in purity(labels, values))
    return Fitted(config=config, codebook=codebook, symbolizer=symbolizer,
                  model=model, maps=maps, train_purity=train_purity)


def unmapped_note(fitted: Fitted) -> str:
    """One line naming each key the fit gave no token map, with its pair
    count; empty when every key has a map."""
    unmapped = [f"{key} ({fitted.model.counts[key][0].sum()})"
                for key in fitted.model.action_keys if key not in fitted.maps.matrices]
    return (f"no token map (fewer than {MIN_PAIRS} pairs): {', '.join(unmapped)}"
            if unmapped else "")


def codebook_for_tasks(fitted: Fitted, tasks: list[Task]) -> ConceptCodebook:
    """Extend the type table when tasks mention types beyond the fitted codebook."""
    max_type = max((t.init.type_id for t in tasks), default=-1)
    n_known = fitted.codebook.cardinalities[TYPE]
    if max_type < n_known:
        return fitted.codebook
    return extend_codebook(fitted.codebook, max_type + 1 - n_known)
