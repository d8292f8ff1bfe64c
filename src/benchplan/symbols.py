"""Symbol abstraction: cluster concept tokens into discrete symbols.

Each concept gets its own k-means fit with k equal to that concept's known
value-space size; a token's symbol is the index of its nearest center. The
fit is deterministic under a seed (k-means++ init, fixed restarts, centers
canonicalized to lexicographic order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-9
DEFAULT_RESTARTS = 10
# The expanded and the exact squared distance |p - c|^2 differ by under
# (2 dim + 6) eps (|p|^2 + |c|^2); a slack of over twice that, per coordinate:
_SLACK = 40 * np.finfo(float).eps


class InsufficientPoints(Exception):
    """Fewer points than requested clusters."""


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray  # (k, dim), lexicographically sorted
    inertia: float
    iterations: int
    inertia_history: tuple[float, ...]  # inertia at each assignment step


@dataclass(frozen=True)
class Symbolizer:
    """Per-concept cluster centers plus fit metadata."""

    centers: tuple[np.ndarray, ...]  # concept k -> (k_k, dim)
    inertia: tuple[float, ...]
    iterations: tuple[int, ...]
    seed: int

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.centers)


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n, dim = points.shape
    centers = np.empty((k, dim))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:  # fewer distinct points than k; fall back to uniform picks
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def _nearest(points: np.ndarray, sq_norms: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The labels of `_sq_dists(points, centers).argmin(axis=1)`, picked by one
    matmul of the expanded norm |p|^2 - 2 p.c + |c|^2, and each point's exact
    squared distance to its center. Where a second center is within rounding
    error of the best (coincident centers, ties), the exact form picks again."""
    c2 = (centers ** 2).sum(axis=1)
    expanded = points @ np.ascontiguousarray(-2.0 * centers.T) + sq_norms[:, None] + c2
    labels = expanded.argmin(axis=1)
    best = np.take_along_axis(expanded, labels[:, None], axis=1)
    close = expanded <= best + _SLACK * points.shape[1] * (sq_norms + c2.max())[:, None]
    if np.count_nonzero(close) > len(points):  # a second center within the error
        near = np.flatnonzero(close.sum(axis=1) > 1)
        labels[near] = _sq_dists(points[near], centers).argmin(axis=1)
    return labels, ((points - centers.take(labels, axis=0)) ** 2).sum(axis=1)


def _lloyd(points: np.ndarray,
           centers: np.ndarray) -> tuple[np.ndarray, float, int, list[float]]:
    k = len(centers)
    sq_norms = (points ** 2).sum(axis=1)
    history: list[float] = []
    iterations = 0
    for it in range(KMEANS_MAX_ITER):
        iterations = it + 1
        labels, point_costs = _nearest(points, sq_norms, centers)
        history.append(float(point_costs.sum()))
        # each cluster's members in index order, grouped by one stable (radix) sort
        grouped = points.take(labels.astype(np.min_scalar_type(k)).argsort(kind="stable"),
                              axis=0)
        ends = np.bincount(labels, minlength=k).cumsum()
        new_centers = centers.copy()
        for j, (start, end) in enumerate(zip([0, *ends[:-1]], ends)):
            if end > start:
                new_centers[j] = grouped[start:end].mean(axis=0)
            else:
                # re-seed an empty cluster from the farthest point
                new_centers[j] = points[int(point_costs.argmax())]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers, unmoved = new_centers, new_centers.tobytes() == centers.tobytes()  # bitwise
        if shift < KMEANS_TOL:
            break
    inertia = history[-1] if unmoved else float(_nearest(points, sq_norms, centers)[1].sum())
    return centers, inertia, iterations, history


def fit_kmeans(points: Sequence[np.ndarray] | np.ndarray, k: int,
               seed: int | Sequence[int], restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """k-means++ plus Lloyd; best of `restarts` runs by inertia."""
    pts = np.ascontiguousarray(points, dtype=float)  # a concept's column of a token stack
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(pts) < k:
        raise InsufficientPoints(f"{len(pts)} points for k={k}")
    seed_key = [seed] if isinstance(seed, int) else list(seed)
    best: tuple[np.ndarray, float, int, list[float]] | None = None
    for r in range(restarts):
        rng = np.random.default_rng([*seed_key, r])
        init = _kmeanspp_init(pts, k, rng)
        result = _lloyd(pts, init)
        if best is None or result[1] < best[1]:
            best = result
    centers, inertia, iterations, history = best
    order = np.lexsort(centers.T[::-1])  # canonical: sort rows lexicographically
    return KMeansResult(centers=centers[order], inertia=inertia,
                        iterations=iterations, inertia_history=tuple(history))


def assign(token: np.ndarray, centers: np.ndarray) -> int:
    """Index of the Euclidean-nearest center; ties -> lowest index."""
    return int(((centers - token) ** 2).sum(axis=1).argmin())


def assign_many(tokens: np.ndarray, centers: np.ndarray) -> np.ndarray:
    points = np.asarray(tokens, dtype=float)  # `assign` per row, by one matmul
    return _nearest(points, (points ** 2).sum(axis=1), centers)[0]


def fit_symbolizer(tokens: Sequence[np.ndarray], cardinalities: Sequence[int],
                   seed: int, restarts: int = DEFAULT_RESTARTS) -> Symbolizer:
    """Fit one k-means per concept, k fixed to the concept's value-space size."""
    if not len(tokens):
        raise InsufficientPoints("no tokens to fit on")
    stack = np.asarray(tokens, dtype=float)  # (n, 6, dim)
    fits = [fit_kmeans(stack[:, k, :], cardinalities[k], seed=[seed, k],
                       restarts=restarts)
            for k in range(len(cardinalities))]
    return Symbolizer(centers=tuple(f.centers for f in fits),
                      inertia=tuple(f.inertia for f in fits),
                      iterations=tuple(f.iterations for f in fits),
                      seed=seed)


def symbolize(tokens: np.ndarray, symbolizer: Symbolizer) -> tuple[int, ...]:
    """Nearest-center symbol per concept."""
    return tuple(assign(tokens[k], symbolizer.centers[k])
                 for k in range(len(symbolizer.centers)))


def purity(labels, states: Sequence) -> np.ndarray:
    """Majority-vote purity per concept of (n, n_concepts) cluster labels
    against the n ObjectStates they label."""
    if not len(states):
        raise ValueError("need labeled examples")
    values = np.asarray([s.values() for s in states])
    out = np.empty(values.shape[1])
    for k, (clusters, truth) in enumerate(zip(np.asarray(labels).T, values.T)):
        correct = sum(int(np.bincount(truth[clusters == c]).max())
                      for c in np.unique(clusters))
        out[k] = correct / len(states)
    return out
