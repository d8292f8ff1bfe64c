"""Symbol abstraction: cluster concept tokens into discrete symbols.

Each concept gets its own k-means fit with k equal to that concept's known
value-space size; a token's symbol is the index of its nearest center. The
fit is deterministic under a seed (k-means++ init, fixed restarts, centers
canonicalized to lexicographic order; restarts that draw one center set and
meet no tie share one Lloyd run). Points are held as (dim, n) columns; exact
near-tie picks and numpy's row-sum order keep every label and bit. A Lloyd
step sums again only the clusters whose members changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


class UnmeasurablePoints(ValueError):
    """Points, or squared distances between them, that are not finite floats."""


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray  # (k, dim), lexicographically sorted
    inertia: float
    iterations: int
    labels: np.ndarray  # (n,) each point's nearest center, an index into centers


@dataclass(frozen=True)
class Symbolizer:
    """Per-concept cluster centers plus fit metadata."""

    centers: tuple[np.ndarray, ...]  # concept k -> (k_k, dim)
    inertia: tuple[float, ...]
    iterations: tuple[int, ...]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.centers)

    @cached_property
    def center_table(self) -> np.ndarray:
        """(n_concepts, max k, dim): each concept's centers, padded to max k with
        copies of its last center, which lose every tie to it. Not pickled."""
        width = max(self.cardinalities)
        return np.stack([np.concatenate([c, c[-1:].repeat(width - len(c), axis=0)])
                         for c in self.centers])

    def __getstate__(self):  # the center table is rebuilt per process, not pickled
        return {name: value for name, value in self.__dict__.items() if name != "center_table"}


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """`(diff ** 2).T.sum(axis=1)` of a (dim, n) scratch array, which it
    overwrites, a whole row at a time in the order numpy sums each short row:
    left to right below 8 entries, from 8 in 8 accumulators, a tree, the tail."""
    diff *= diff
    tail = 1 if len(diff) < 8 else len(diff) - len(diff) % 8
    for i in range(8, tail, 8):
        diff[:8] += diff[i:i + 8]
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)) if tail > 1 else ():
        diff[a] += diff[b]
    for row in diff[tail:]:
        diff[0] += row
    return diff[0]


def _weighted_pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    """`rng.choice(len(weights), p=weights / total)` by numpy's own steps, or a uniform
    pick if every weight is 0; a total that is not finite is refused."""
    total = weights.sum()
    if not np.isfinite(total):
        raise UnmeasurablePoints(f"squared distances between points sum to {total}")
    if total > 0:
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))
    return int(rng.integers(len(weights)))  # all 0: fewer distinct points than k


def _kmeanspp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    dim, n = cols.shape
    centers = np.empty((k, dim))
    centers[0] = cols[:, int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    with np.errstate(over="ignore"):  # the pick refuses a sum that overflowed
        for j in range(1, k):
            d2 = np.minimum(d2, _sq_norms(cols - centers[j - 1][:, None]))
            centers[j] = cols[:, _weighted_pick(d2, rng)]
    return centers


def _nearest(cols: np.ndarray, sq_norms: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """`_sq_dists(cols.T, centers).argmin(axis=1)` by one matmul of |p|^2 - 2 p.c
    + |c|^2, the points a second center came within rounding error of, which the
    exact form picks, and whether one is a tie."""
    k, c2 = len(centers), (centers ** 2).sum(axis=1)
    expanded = (-2.0 * centers) @ cols  # (k, n)
    expanded += sq_norms
    expanded += c2[:, None]
    best = expanded.min(axis=0)
    # the one j with expanded[j] == best; a point with two is near, and picked again
    labels = np.einsum("kn,k->n", (expanded == best).view(np.uint8),
                       np.arange(k, dtype=np.min_scalar_type(k))).astype(np.intp)
    close = expanded <= best + _SLACK * len(cols) * (sq_norms + c2.max())
    near, tied = np.empty(0, dtype=np.intp), False
    if np.count_nonzero(close) > len(best):  # a second center within the error
        near = np.flatnonzero(close.sum(axis=0) > 1)
        exact = _sq_dists(cols[:, near].T, centers)
        labels[near] = exact.argmin(axis=1)
        tied = np.count_nonzero(exact == exact.min(axis=1)[:, None]) > len(near)
    return labels, near, tied


def _point_costs(cols: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each point's exact squared distance to its center: (c - p)^2 has the bits of (p - c)^2."""
    return _sq_norms(centers.T.take(labels, axis=1) - cols)


def _cluster_sums(cols: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(dim, k) cluster sums, in point order as numpy's mean adds rows (one column: pairwise)."""
    if len(cols) > 1:
        return np.stack([np.bincount(labels, weights=col, minlength=k) for col in cols])
    return np.array([[cols[0][labels == j].sum() for j in range(k)]])


def _lloyd(cols: np.ndarray, centers: np.ndarray
           ) -> tuple[np.ndarray, float, int, np.ndarray, np.ndarray, bool]:
    """Lloyd steps on (dim, n) points: the final centers, inertia and step count,
    with `_nearest`'s labels and near points at those centers, and whether any
    step met an exact tie."""
    k = len(centers)
    sq_norms = _sq_norms(cols.copy())
    tied, summed = False, None  # the labels `sums` were added at, if they give `centers`
    for it in range(KMEANS_MAX_ITER):
        labels, near, tie = _nearest(cols, sq_norms, centers)
        tied |= tie
        if summed is None:
            sums = _cluster_sums(cols, labels, k)
        elif not (moved := labels != summed).any():  # the same sums: the same centers
            unmoved = True
            break
        else:  # only a cluster that gained or lost a point has a new sum
            redo = np.bincount(np.concatenate([summed[moved], labels[moved]]), minlength=k) > 0
            members = np.flatnonzero(redo[labels])
            sums[:, redo] = _cluster_sums(cols.take(members, axis=1), labels[members], k)[:, redo]
        counts, summed = np.bincount(labels, minlength=k), labels
        new_centers = (sums / np.maximum(counts, 1)).T
        if not counts.all():  # re-seed an empty cluster from the farthest point
            new_centers[counts == 0] = cols[:, int(_point_costs(cols, centers, labels).argmax())]
            summed = None
        shift = float(np.linalg.norm(new_centers - centers, axis=1).max())
        centers, unmoved = new_centers, new_centers.tobytes() == centers.tobytes()  # bitwise
        if shift < KMEANS_TOL:
            break
    if not unmoved:  # the last step moved the centers: assign once more
        labels, near, tie = _nearest(cols, sq_norms, centers)
        tied |= tie
    return centers, float(_point_costs(cols, centers, labels).sum()), it + 1, labels, near, tied


def fit_kmeans(points: Sequence[np.ndarray] | np.ndarray, k: int,
               seed: int | Sequence[int], restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """k-means++ plus Lloyd; best of `restarts` runs by inertia, the first of equals.
    Lloyd from a permuted init is the permuted run, bit for bit, unless a point
    meets a tie: a restart that draws an earlier tie-free run's centers is skipped."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if not np.isfinite(pts).all():
        raise UnmeasurablePoints("some points are not finite")
    if k < 1 or restarts < 1:
        raise ValueError(f"k and restarts must be >= 1, got {k} and {restarts}")
    if len(pts) < k:
        raise InsufficientPoints(f"{len(pts)} points for k={k}")
    cols = np.ascontiguousarray(pts.T)  # (dim, n): each step works on whole rows
    seed_key = [seed] if isinstance(seed, int) else list(seed)
    best, tie_free = None, set()  # the first run of least inertia; tie-free runs' inits
    for r in range(restarts):
        init = _kmeanspp_init(cols, k, np.random.default_rng([*seed_key, r]))
        if (key := init[np.lexsort(init.T[::-1])].tobytes()) not in tie_free:
            run = _lloyd(cols, init)  # centers, inertia, iterations, labels, near, tied
            if best is None or run[1] < best[1]:
                best = run
            if not run[-1]:
                tie_free.add(key)
    centers, inertia, iterations, labels, near, _ = best
    order = np.lexsort(centers.T[::-1])  # canonical: sort rows lexicographically
    labels = order.argsort()[labels]
    # a tie between distinct centers goes to the lowest canonical index, as in `assign`
    labels[near] = _sq_dists(cols[:, near].T, centers[order]).argmin(axis=1)
    return KMeansResult(centers[order], inertia, iterations, labels)


def assign(token: np.ndarray, centers: np.ndarray) -> int:
    """Index of the Euclidean-nearest center; ties -> lowest index."""
    return int(((centers - token) ** 2).sum(axis=1).argmin())


def fit_symbolizer(tokens: Sequence[np.ndarray], cardinalities: Sequence[int],
                   seed: int, restarts: int = DEFAULT_RESTARTS) -> tuple[Symbolizer, np.ndarray]:
    """Fit one k-means per concept, k fixed to the concept's value-space size.
    Also returns each token's symbols, (n, n_concepts), as `symbolize` gives them."""
    if not len(tokens):
        raise InsufficientPoints("no tokens to fit on")
    stack = np.asarray(tokens, dtype=float)  # (n, 6, dim)
    fits = [fit_kmeans(stack[:, k, :], card, seed=[seed, k], restarts=restarts)
            for k, card in enumerate(cardinalities)]
    symbolizer = Symbolizer(centers=tuple(f.centers for f in fits),
                            inertia=tuple(f.inertia for f in fits),
                            iterations=tuple(f.iterations for f in fits))
    return symbolizer, np.stack([f.labels for f in fits], axis=1)


def center_sq_dists(tokens: np.ndarray, symbolizer: Symbolizer) -> np.ndarray:
    """(..., n_concepts, max k) squared distances of (..., n_concepts, dim) token
    sets to the padded center table; each row sums over dim as in `assign`."""
    return ((symbolizer.center_table - tokens[..., None, :]) ** 2).sum(axis=-1)


def symbolize(tokens: np.ndarray, symbolizer: Symbolizer) -> tuple:
    """`assign` per concept: the argmin of `center_sq_dists`, with `assign`'s ties.
    A (6, dim) token set gives one tuple of symbols, an (n, 6, dim) stack one per set."""
    with np.errstate(over="ignore"):  # an inf or nan distance has no argmin to trust
        dists = center_sq_dists(tokens, symbolizer)
    if not np.isfinite(dists).all():
        raise UnmeasurablePoints("squared distances from tokens to centers are not finite")
    symbols = dists.argmin(axis=-1).tolist()
    return tuple(symbols) if dists.ndim == 2 else tuple(map(tuple, symbols))


def purity(labels, values) -> np.ndarray:
    """Majority-vote purity per concept of (n, n_concepts) cluster labels
    against the (n, n_concepts) array of ground-truth concept values they label."""
    if not len(values):
        raise ValueError("need labeled examples")
    out = np.empty(values.shape[1])
    for k, (clusters, truth) in enumerate(zip(np.asarray(labels).T, values.T)):
        correct = sum(int(np.bincount(truth[clusters == c]).max())
                      for c in np.unique(clusters))
        out[k] = correct / len(values)
    return out
