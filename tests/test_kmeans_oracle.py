"""k-means assigns points by one matmul per Lloyd step, and skips the last
assignment when no center moved; its results must stay those of the broadcast
form frozen in `_oracles`, bit for bit."""

import numpy as np

from _oracles import _sq_dists, oracle_fit_kmeans, oracle_lloyd
from benchplan import symbols
from benchplan.concepts import build_codebook
from benchplan.symbols import _kmeanspp_init, _lloyd, _nearest, fit_kmeans

KINDS = ("normal", "k=1", "k=n", "codebook", "few distinct", "far offset")


def _case(rng, kind):
    """(points, k) of one random case of the given kind."""
    n, dim = int(rng.integers(2, 120)), int(rng.integers(1, 9))
    k = int(rng.integers(1, min(n, 8) + 1))
    if kind == "k=1":
        return rng.normal(size=(n, dim)), 1
    if kind == "k=n":
        n = int(rng.integers(1, 9))
        return rng.normal(size=(n, dim)), n
    if kind == "codebook":  # coincident noiseless tokens of one concept
        table = build_codebook(dim=max(dim, 2), seed=int(rng.integers(1000))).centroids[
            int(rng.integers(6))]
        return table[rng.integers(len(table), size=n)], min(k, len(table))
    if kind == "few distinct":  # kmeans++ repeats a point, so a cluster empties
        k = max(k, 2)  # (and Lloyd often runs to its cap: few points keep it cheap)
        distinct = rng.normal(size=(int(rng.integers(1, k)), dim))
        return distinct[rng.integers(len(distinct), size=int(rng.integers(k, 24)))], k
    if kind == "far offset":  # |p|^2 dwarfs the distances: the exact form decides
        return rng.normal(size=(n, dim)) * 1e-3 + 1e4, k
    return rng.normal(size=(n, dim)), k


def assert_same(result, oracle):
    assert result.centers.tobytes() == oracle.centers.tobytes()
    assert (result.inertia, result.iterations, result.inertia_history) == \
        (oracle.inertia, oracle.iterations, oracle.inertia_history)


def test_fit_kmeans_equals_frozen_oracle():
    rng = np.random.default_rng(2024)
    for case in range(240):
        points, k = _case(rng, KINDS[case % len(KINDS)])
        assert_same(fit_kmeans(points, k, seed=[case, 1], restarts=2),
                    oracle_fit_kmeans(points, k, seed=[case, 1], restarts=2))


def test_lloyd_reseeds_an_empty_cluster_as_the_oracle_does():
    rng = np.random.default_rng(7)
    for _ in range(20):
        points = rng.normal(size=(60, 3))
        init = points[rng.choice(60, size=4, replace=False)].copy()
        init[2] = 1e3  # no point is nearest to it at the first step
        assert 2 not in _sq_dists(points, init).argmin(axis=1)
        centers, inertia, iterations, history = _lloyd(points, init.copy())
        frozen = oracle_lloyd(points, init.copy())
        assert centers.tobytes() == frozen[0].tobytes()
        assert (inertia, iterations, history) == frozen[1:]


def test_nearest_keeps_the_exact_labels_and_costs_at_ties():
    rng = np.random.default_rng(8)
    for _ in range(50):
        points = rng.normal(size=(40, 4))
        centers = points[rng.integers(40, size=5)]  # coincident with points
        centers[3] = centers[1]  # an exact tie: the lower index wins
        centers[4] = np.nextafter(centers[0], np.inf)  # within rounding of center 0
        d2 = _sq_dists(points, centers)
        labels, costs = _nearest(points, (points ** 2).sum(axis=1), centers)
        assert labels.tolist() == d2.argmin(axis=1).tolist()
        assert costs.tobytes() == d2.min(axis=1).tobytes()


def test_lloyd_reuses_the_last_assignment_when_no_center_moved(monkeypatch):
    """Noisy tokens settle on centers that come back bit for bit: one `_nearest`
    per step, the last step's inertia. Noiseless ones settle a rounding error
    away from where they started, and the inertia is assigned again."""
    calls = []
    monkeypatch.setattr(symbols, "_nearest", lambda *args: calls.append(1) or _nearest(*args))
    rng = np.random.default_rng(9)
    table = build_codebook(seed=4).centroids[4]
    values = rng.integers(len(table), size=400)
    extra = []
    for sigma in (0.2, 0.0):
        for restart in range(5):
            points = table[values] + rng.normal(0.0, sigma, (400, table.shape[1]))
            init = _kmeanspp_init(points, len(table), np.random.default_rng(restart))
            calls.clear()
            centers, inertia, iterations, history = _lloyd(points, init.copy())
            frozen = oracle_lloyd(points, init.copy())
            assert centers.tobytes() == frozen[0].tobytes()
            assert (inertia, iterations, history) == frozen[1:]
            extra.append((sigma, len(calls) - iterations))
    assert set(extra) == {(0.2, 0), (0.0, 1)}, extra
