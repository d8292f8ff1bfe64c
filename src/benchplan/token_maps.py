"""Per-action affine transition maps over concept tokens.

The continuous analog of the symbol-level model: each action key owns one
affine map acting on the concatenated (6*dim) token vector, fit by
ridge-regularized least squares on observed (before, after) token pairs.
Also hosts the token-space planner used as the no-symbols ablation: it runs
the shared k-best search (`mdp.layered_kbest`) with an expand step that
applies the maps directly and snaps and trust-checks their outputs from one
distance table, symbols serving only as visited-set keys, position-validity
checks and the goal test — it has no action-legality model, which is exactly
what the ablation is meant to expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mdp import (
    NoPlanFound,
    Plan,
    PlanResult,
    SymbolMasks,
    _key_rank,
    available_keys,
    layered_kbest,
)
from .symbols import Symbolizer, center_sq_dists, symbolize

MIN_PAIRS = 8          # hard floor per action
RIDGE_LAMBDA = 1e-6    # disentangled tokens span < 6*dim dims, so always regularize
SNAP_MARGIN = 0.3      # successor tokens must sit within this fraction of the
                       # concept's minimum center gap, else the snap is untrusted


class InsufficientPairs(Exception):
    """Too few training pairs to fit an action's map."""


class UnknownAction(Exception):
    """Transition requested for an action absent from the fitted maps."""


@dataclass(frozen=True)
class ActionTransitionMaps:
    dim: int
    matrices: dict[str, np.ndarray]   # key -> (6*dim, 6*dim)
    offsets: dict[str, np.ndarray]    # key -> (6*dim,)
    residual_mse: dict[str, float]
    action_keys: tuple[str, ...] = field(init=False)  # the mapped keys, in key order

    def __post_init__(self):
        object.__setattr__(self, "action_keys",
                           tuple(sorted(self.matrices, key=_key_rank)))


def fit_affine(tokens: np.ndarray, key_ids: np.ndarray,
               key_names: Sequence[str]) -> ActionTransitionMaps:
    """Closed-form normal-equations fit of one affine map per action key on (n, 6, dim)
    tokens: row t maps to row t + 1 under `key_names[key_ids[t]]`; -1 ends a path."""
    flat = tokens.reshape(len(tokens), -1)  # (n, 6*dim)
    matrices, offsets, mses = {}, {}, {}
    for j, key in enumerate(key_names):  # one key's (x, y) copies at a time
        t = np.flatnonzero(key_ids == j)
        if len(t) < MIN_PAIRS:  # a rare context (a seldom-seen dyer color) gets no map;
            continue            # the transition counts keep it
        x, y = flat[t], flat[t + 1]
        xa = np.hstack([x, np.ones((len(x), 1))])
        gram = xa.T @ xa + RIDGE_LAMBDA * np.eye(xa.shape[1])
        w = np.linalg.solve(gram, xa.T @ y)  # (width+1, width)
        matrices[key] = w[:-1].T.copy()
        offsets[key] = w[-1].copy()
        mses[key] = float(((xa @ w - y) ** 2).mean())
    if not matrices:
        raise InsufficientPairs(f"no action has the {MIN_PAIRS} pairs a token map needs")
    return ActionTransitionMaps(dim=tokens.shape[-1], matrices=matrices, offsets=offsets,
                                residual_mse=mses)


def transition(tokens: np.ndarray, key: str,
               maps: ActionTransitionMaps) -> np.ndarray:
    """Apply one action's affine map to a (6, dim) token set."""
    if key not in maps.matrices:
        raise UnknownAction(f"no fitted map for {key!r}")
    flat = maps.matrices[key] @ tokens.ravel() + maps.offsets[key]
    return flat.reshape(6, maps.dim)


def rollout(tokens: np.ndarray, keys: Sequence[str],
            maps: ActionTransitionMaps) -> list[np.ndarray]:
    """Iterated transition; returns [tokens, t1, ..., tT]."""
    out = [tokens]
    for i, key in enumerate(keys):
        try:
            out.append(transition(out[-1], key, maps))
        except UnknownAction as err:
            raise UnknownAction(f"step {i}: {err}") from err
    return out


def token_mse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over all 6*dim coordinates."""
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return float(((pred - truth) ** 2).mean())


def _min_center_gaps(symbolizer: Symbolizer) -> list[float]:
    gaps = []
    for centers in symbolizer.centers:
        pair = center_sq_dists(centers, centers)
        np.fill_diagonal(pair, np.inf)
        gaps.append(float(np.sqrt(pair.min())))
    return gaps


def plan_tokenspace(maps: ActionTransitionMaps, init_tokens: np.ndarray,
                    goal_tokens: np.ndarray, symbolizer: Symbolizer,
                    masks: SymbolMasks, top_k: int = 5,
                    l_max: int = 16) -> PlanResult:
    """Search token space for sequences whose snapped state matches the goal.

    Runs `layered_kbest` over snapped states: nodes carry continuous tokens,
    and per (snapped state, depth) only the top_k nodes nearest the goal
    tokens survive. Sequences are scored by negative token distance to the
    goal, so accepted sequences rank within a depth by that distance.
    """
    is_goal = masks.goal_test(symbolize(goal_tokens, symbolizer))

    def score(tokens: np.ndarray) -> float:  # np.linalg.norm's path, without its wrapper
        d = (tokens - goal_tokens).ravel()
        return -math.sqrt(d.dot(d))

    init_sym = symbolize(init_tokens, symbolizer)
    if is_goal(init_sym):
        return PlanResult(plans=(Plan((), score(init_tokens)),))

    keys = available_keys(maps, masks)  # in map order, so ranks order as keys do
    radius = SNAP_MARGIN * np.array(_min_center_gaps(symbolizer))

    def expand(sym_state, entries):
        for _, seq, tokens in entries:  # the K successors' snaps from one distance table
            succs = np.stack([transition(tokens, key, maps) for key in keys])
            dists = center_sq_dists(succs, symbolizer.center_table)  # (K, n_concepts, max k)
            # map extrapolations land far from every center: trust none beyond radius
            trusted = (np.sqrt(dists.min(axis=2)) <= radius).all(axis=1)
            for rank, nxt_sym in zip(trusted.nonzero()[0].tolist(),
                                     map(tuple, dists[trusted].argmin(axis=2).tolist())):
                if masks.position_valid(nxt_sym):
                    yield nxt_sym, [(score(succs[rank]), seq + (rank,), succs[rank])]

    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan prediction is untrusted
        found = layered_kbest(init_sym, (score(init_tokens), (), init_tokens), expand,
                              is_goal, top_k, l_max) if keys else []
    if not found:
        raise NoPlanFound(f"no plan within {l_max} steps")
    return PlanResult(plans=tuple(
        Plan(tuple(keys[r] for r in seq), value) for value, seq, _ in found))
