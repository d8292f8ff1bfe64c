"""Symbol abstraction: cluster concept tokens into discrete symbols.

Each concept gets its own k-means fit with k equal to that concept's known
value-space size; a token's symbol is the index of its nearest center. The
fit is deterministic under a seed: greedy k-means++ init with 2 + floor(ln k)
local trials per center, 6 restarts drawn from `streams.rng(seed, "kmeans",
concept, restart)`, the first run of least inertia kept, its centers sorted
lexicographically. Where the points take exactly k distinct values, as
noiseless tokens do, every seeding draws each value once, so one tie-free Lloyd
run from them is every restart's run, up to the order of its centers; the
seedings are drawn only if that run meets a tie.
Points are held as (dim, n) columns; exact near-tie picks and numpy's row-sum
order keep every label and bit. A Lloyd step sums again only the clusters
whose members changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import streams

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-9
DEFAULT_RESTARTS = 6
RESTARTS = streams.Bound(int, ">= 1", lambda v: v >= 1)  # the k-means runs' rule
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


def center_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., k) squared distances of (..., dim) points to (..., k, dim) centers,
    broadcast over leading axes; the one measure of points against centers."""
    return ((centers - points[..., None, :]) ** 2).sum(axis=-1)


def finite_sq_dists(points: np.ndarray, centers: np.ndarray, what: str) -> np.ndarray:
    """`center_sq_dists` of observed points, refused unless every one is finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan has no argmin to trust
        dists = center_sq_dists(points, centers)
    if not np.isfinite(dists).all():
        raise UnmeasurablePoints(f"squared distances from {what} to centers are not finite")
    return dists


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


def _weighted_pick(weights: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """`rng.choice(len(weights), size, p=weights / total)` by numpy's own steps, or one
    uniform pick if every weight is 0; a total that is not finite is refused."""
    total = weights.sum()
    if not np.isfinite(total):
        raise UnmeasurablePoints(f"squared distances between points sum to {total}")
    if total > 0:
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(rng.random(size), side="right")
    return rng.integers(len(weights), size=1)  # all 0: fewer distinct points than k


def _distinct(cols: np.ndarray) -> np.ndarray | None:
    """The distinct (dim, n) points, ordered by first coordinate, when some repeat, as
    noiseless tokens do; None when no first coordinate repeats or two points sharing one differ."""
    if len(np.unique(cols[0])) == cols.shape[1]:  # a tenth of the cost of the inverse
        return None
    _, first, inverse = np.unique(cols[0], return_index=True, return_inverse=True)
    points = cols[:, first]
    return points if (points.take(inverse, axis=1) == cols).all() else None


def _kmeanspp_init(cols: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ (Arthur & Vassilvitskii, SODA 2007): a uniform first center,
    then per center 2 + floor(ln k) candidates drawn from the D^2 distribution, of
    which the first that leaves the least potential sum(min(D^2, |p - c|^2)) is kept."""
    dim, n = cols.shape
    trials = 2 + int(np.log(k))
    centers = np.empty((k, dim))
    centers[0] = cols[:, int(rng.integers(n))]
    block = np.empty((dim, trials, n))  # candidates' differences, then D^2
    with np.errstate(over="ignore"):  # the pick refuses a sum that overflowed
        d2 = _sq_norms(np.subtract(cols, centers[0][:, None], out=block[:, 0])).copy()
        for j in range(1, k):
            picks = _weighted_pick(d2, rng, trials)
            rows = block[:, :len(picks)]
            costs = np.minimum(_sq_norms(np.subtract(cols[:, None], cols[:, picks, None],
                                                     out=rows)), d2, out=rows[0])
            best = int(costs.sum(axis=1).argmin())
            centers[j] = cols[:, picks[best]]
            d2[:] = costs[best]
    return centers


def _nearest(cols: np.ndarray, sq_norms: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """`center_sq_dists(cols.T, centers).argmin(axis=1)` by one matmul of |p|^2 - 2 p.c
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
        exact = center_sq_dists(cols[:, near].T, centers)
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
    step met an exact tie. A step that reseeds from the centers of an earlier
    reseeding step is in a cycle: the run stops there, with those centers."""
    k = len(centers)
    sq_norms = _sq_norms(cols.copy())
    tied, summed = False, None  # the labels `sums` were added at, if they give `centers`
    reseeded = set()  # the bytes of the centers each reseeding step started from
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
            if (key := centers.tobytes()) in reseeded:  # a cycle: fewer distinct points than k
                unmoved = True  # keep these centers and their labels
                break
            reseeded.add(key)
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


def fit_kmeans(points: Sequence[np.ndarray] | np.ndarray, k: int, seed: int,
               concept: int = 0, restarts: int = DEFAULT_RESTARTS) -> KMeansResult:
    """Greedy k-means++ plus Lloyd; best of `restarts` runs by inertia, the first of equals.
    Restart r draws its init from the k-means stream's key (seed, concept, r). On
    exactly k distinct points, which every seeding draws, a tie-free run from them
    is every restart's run, bit for bit up to the order of its centers."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if not np.isfinite(pts).all():
        raise UnmeasurablePoints("some points are not finite")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    RESTARTS.check("restarts", restarts)
    if len(pts) < k:
        raise InsufficientPoints(f"{len(pts)} points for k={k}")
    cols = np.ascontiguousarray(pts.T)  # (dim, n): each step works on whole rows
    best = None  # the first run of least inertia
    if (distinct := _distinct(cols)) is not None and distinct.shape[1] == k:
        run = _lloyd(cols, distinct.T.copy())  # every seeding draws each of these k once,
        best = None if run[-1] else run  # so, tie-free, this run is every restart's run
    for r in range(restarts if best is None else 0):
        run = _lloyd(cols, _kmeanspp_init(cols, k, streams.rng(seed, "kmeans", concept, r)))
        if best is None or run[1] < best[1]:
            best = run
    centers, inertia, iterations, labels, near, _ = best
    order = np.lexsort(centers.T[::-1])  # canonical: sort rows lexicographically
    labels = order.argsort()[labels]
    # a tie between distinct centers goes to the lowest canonical index, as in `assign`
    labels[near] = center_sq_dists(cols[:, near].T, centers[order]).argmin(axis=1)
    return KMeansResult(centers[order], inertia, iterations, labels)


def assign(token: np.ndarray, centers: np.ndarray) -> int:
    """Index of the Euclidean-nearest center; ties -> lowest index."""
    return int(center_sq_dists(token, centers).argmin())


def fit_symbolizer(tokens: Sequence[np.ndarray], cardinalities: Sequence[int],
                   seed: int, restarts: int = DEFAULT_RESTARTS) -> tuple[Symbolizer, np.ndarray]:
    """Fit one k-means per concept, k fixed to the concept's value-space size.
    Also returns each token's symbols, (n, n_concepts), as `symbolize` gives them."""
    if not len(tokens):
        raise InsufficientPoints("no tokens to fit on")
    stack = np.asarray(tokens, dtype=float)  # (n, 6, dim)
    fits = [fit_kmeans(stack[:, k, :], card, seed, concept=k, restarts=restarts)
            for k, card in enumerate(cardinalities)]
    symbolizer = Symbolizer(centers=tuple(f.centers for f in fits),
                            inertia=tuple(f.inertia for f in fits),
                            iterations=tuple(f.iterations for f in fits))
    return symbolizer, np.stack([f.labels for f in fits], axis=1)


def symbolize(tokens: np.ndarray, symbolizer: Symbolizer) -> tuple:
    """`assign` per concept: the argmin of `center_sq_dists`, with `assign`'s ties.
    A (6, dim) token set gives one tuple of symbols, an (n, 6, dim) stack one per set."""
    dists = finite_sq_dists(tokens, symbolizer.center_table, "tokens")
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
