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


def _lloyd(points: np.ndarray,
           centers: np.ndarray) -> tuple[np.ndarray, float, int, list[float]]:
    k = len(centers)
    history: list[float] = []
    inertia = np.inf
    iterations = 0
    for it in range(KMEANS_MAX_ITER):
        iterations = it + 1
        d2 = _sq_dists(points, centers)
        labels = d2.argmin(axis=1)
        point_costs = d2[np.arange(len(points)), labels]
        inertia = float(point_costs.sum())
        history.append(inertia)
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
            else:
                # re-seed an empty cluster from the farthest point
                new_centers[j] = points[int(point_costs.argmax())]
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = _sq_dists(points, centers)
    inertia = float(d2.min(axis=1).sum())
    return centers, inertia, iterations, history


def fit_kmeans(points: Sequence[np.ndarray] | np.ndarray, k: int,
               seed: int | Sequence[int], restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """k-means++ plus Lloyd; best of `restarts` runs by inertia."""
    pts = np.asarray(points, dtype=float)
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
    return _sq_dists(np.asarray(tokens, dtype=float), centers).argmin(axis=1)


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


def purity(symbolizer: Symbolizer, labeled: Sequence[tuple[np.ndarray, object]],
           ) -> np.ndarray:
    """Majority-vote purity per concept over (tokens, ObjectState) pairs."""
    if not len(labeled):
        raise ValueError("need labeled examples")
    tokens = np.asarray([t for t, _ in labeled], dtype=float)
    values = np.asarray([s.values() for _, s in labeled])
    out = np.empty(len(symbolizer.centers))
    for k, centers in enumerate(symbolizer.centers):
        clusters = assign_many(tokens[:, k, :], centers)
        truth = values[:, k]
        correct = 0
        for c in range(len(centers)):
            members = truth[clusters == c]
            if len(members):
                correct += int(np.bincount(members).max())
        out[k] = correct / len(labeled)
    return out
