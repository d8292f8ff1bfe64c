"""k-means holds a concept's points as (dim, n) columns, draws k-means++ picks
by numpy's own steps for `choice`, assigns points by one matmul per Lloyd step,
sums again by `bincount` only the clusters that gained or lost a point, computes
point costs only where a result reads them, skips the last assignment when no
center moved, and runs Lloyd once for restarts that draw one center set without
meeting a tie; its results must stay those of the broadcast form frozen in
`_oracles`, bit for bit."""

import numpy as np
import pytest

from _oracles import _kmeanspp_init as oracle_kmeanspp_init
from _oracles import _sq_dists, oracle_fit_kmeans, oracle_lloyd
from benchplan import symbols
from benchplan.concepts import build_codebook
from benchplan.symbols import (
    DEFAULT_RESTARTS, UnmeasurablePoints, _kmeanspp_init, _lloyd, _nearest, _point_costs,
    _sq_norms, _weighted_pick, fit_kmeans,
)

KINDS = ("normal", "k=1", "k=n", "codebook", "few distinct", "far offset")


def _case(rng, kind, dims=(1, 9)):
    """(points, k) of one random case of the given kind, dim in [dims)."""
    n, dim = int(rng.integers(2, 120)), int(rng.integers(*dims))
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


def columns(points):
    """A (dim, n) copy of the points, which `_sq_norms` may overwrite."""
    return np.array(points.T, order="C")


def assert_same(result, oracle):
    assert result.centers.tobytes() == oracle.centers.tobytes()
    assert (result.inertia, result.iterations) == (oracle.inertia, oracle.iterations)
    assert result.labels.tolist() == oracle.labels.tolist()


def assert_same_lloyd(points, init):
    """A run ends as the oracle's run."""
    frozen = oracle_lloyd(points, init.copy())
    centers, inertia, iterations, labels, *_ = _lloyd(columns(points), init.copy())
    assert centers.tobytes() == frozen[0].tobytes()
    assert (inertia, iterations) == frozen[1:3]
    assert labels.tolist() == _sq_dists(points, centers).argmin(axis=1).tolist()


def test_fit_kmeans_equals_frozen_oracle():
    rng = np.random.default_rng(2024)
    for case in range(240):
        points, k = _case(rng, KINDS[case % len(KINDS)])
        for restarts in (2, DEFAULT_RESTARTS):
            assert_same(fit_kmeans(points, k, seed=[case, 1], restarts=restarts),
                        oracle_fit_kmeans(points, k, seed=[case, 1], restarts=restarts))


def test_fit_kmeans_equals_frozen_oracle_at_high_dims():
    # from dim 8 the squared norms add 8 accumulators, a tree, then the tail
    rng = np.random.default_rng(2025)
    for case in range(60):
        points, k = _case(rng, KINDS[case % len(KINDS)], dims=(9, 21))
        assert_same(fit_kmeans(points, k, seed=[case, 2], restarts=2),
                    oracle_fit_kmeans(points, k, seed=[case, 2], restarts=2))


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_fit_kmeans_equals_frozen_oracle_at_scale(level4_run, training_tokens, sigma):
    stack = training_tokens(level4_run, sigma)
    for k, card in enumerate(level4_run[1].codebook.cardinalities):
        for restarts in (2, DEFAULT_RESTARTS):
            assert_same(fit_kmeans(stack[:, k, :], card, seed=[0, k], restarts=restarts),
                        oracle_fit_kmeans(stack[:, k, :], card, seed=[0, k], restarts=restarts))


@pytest.mark.parametrize("sigma, runs", [(0.0, 1), (0.2, DEFAULT_RESTARTS)])
def test_restarts_that_draw_one_center_set_share_one_lloyd_run(
        monkeypatch, level4_run, training_tokens, sigma, runs):
    """Noiseless tokens: every k-means++ init picks each distinct value once, so
    a concept's restarts make one Lloyd run. Noisy ones pick distinct points.
    The best run's result is kept: no run is made again."""
    calls = []
    spy(monkeypatch, "_lloyd", calls)
    stack = training_tokens(level4_run, sigma)
    for k, card in enumerate(level4_run[1].codebook.cardinalities):
        calls.clear()
        fit_kmeans(stack[:, k, :], card, seed=[0, k])
        assert len(calls) == runs, k


def test_a_run_that_meets_a_tie_is_not_shared():
    """Restart 0 draws the centers (0, 0), (2, 0) and restart 1 the same two in
    the other order. The point (1, 0) lies midway: at the tie it joins center 0,
    the three points at (0, 0) in restart 0 and the two at (2, 0) in restart 1,
    which ends with the lower inertia. Restart 1 must run."""
    points = np.array([[0.0, 0.0]] * 3 + [[2.0, 0.0]] * 2 + [[1.0, 0.0]])
    inits = [_kmeanspp_init(columns(points), 2, np.random.default_rng([21, r])) for r in (0, 1)]
    assert inits[0].tolist() == inits[1][::-1].tolist() == [[0.0, 0.0], [2.0, 0.0]]
    assert _nearest(columns(points), _sq_norms(columns(points)), inits[0])[2]
    result = fit_kmeans(points, 2, seed=21, restarts=2)
    assert_same(result, oracle_fit_kmeans(points, 2, seed=21, restarts=2))
    assert result.inertia == 2 / 3


def test_weighted_pick_takes_generator_choices_steps():
    """Each k-means++ pick is `Generator.choice(n, p=d2 / total)` by numpy's own
    steps; a numpy whose `choice` picks another index or reads the stream
    otherwise fails here. Weights with leading, trailing and interior zeros, a
    point mass and n = 1."""
    rng = np.random.default_rng(12)
    cases = [np.array([2.5]), np.array([0.0, 0.0, 3.0, 0.0]), np.array([0.0, 1e-300, 0.0])]
    for _ in range(200):
        n = int(rng.integers(2, 80))
        weights = rng.random(n) ** 3 * 10.0 ** rng.uniform(-8, 8)
        weights[:int(rng.integers(n // 3 + 1))] = 0.0
        weights[n - int(rng.integers(n // 3 + 1)):] = 0.0
        weights[rng.random(n) < 0.3] = 0.0
        weights[int(rng.integers(n))] = rng.uniform(0.5, 2.0)  # one weight above 0
        cases.append(weights)
    for i, weights in enumerate(cases):
        for draw in range(5):
            ours, numpys = np.random.default_rng([i, draw]), np.random.default_rng([i, draw])
            pick = _weighted_pick(weights, ours)
            assert pick == int(numpys.choice(len(weights), p=weights / weights.sum())), (i, draw)
            assert weights[pick] > 0 and ours.random() == numpys.random()
    ours, numpys = np.random.default_rng(5), np.random.default_rng(5)
    assert _weighted_pick(np.zeros(7), ours) == numpys.integers(7)  # all 0: uniform
    for weights in (np.array([1.0, np.inf]), np.array([1e308, 1e308, 0.0])):
        with pytest.raises(UnmeasurablePoints, match="sum to inf"), np.errstate(over="ignore"):
            _weighted_pick(weights, ours)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_kmeanspp_init_equals_the_oracle_draw(level4_run, training_tokens, sigma):
    stack = training_tokens(level4_run, sigma)
    for k, card in enumerate(level4_run[1].codebook.cardinalities):
        cols = columns(stack[:, k, :])
        for r in range(DEFAULT_RESTARTS):
            init = _kmeanspp_init(cols, card, np.random.default_rng([0, k, r]))
            frozen = oracle_kmeanspp_init(stack[:, k, :], card, np.random.default_rng([0, k, r]))
            assert init.tobytes() == frozen.tobytes(), (k, r)


def spy(monkeypatch, name, calls):
    """Record in `calls` each call `symbols` makes to its function `name`, by
    `(name, args)`."""
    fn = getattr(symbols, name)
    monkeypatch.setattr(symbols, name, lambda *args: calls.append((name, args)) or fn(*args))


def test_lloyd_sums_again_only_the_clusters_that_changed(monkeypatch, level4_run,
                                                         training_tokens):
    """Noisy tokens: after the first steps few labels move, so a step sums the
    points of the clusters that gained or lost one, not all. The run ends on
    labels that repeat: that step sums nothing, and the centers are kept."""
    points = training_tokens(level4_run, 0.2)[:, 0, :]  # 8 clusters
    init = _kmeanspp_init(columns(points), 8, np.random.default_rng([0, 0, 0]))
    calls = []
    spy(monkeypatch, "_cluster_sums", calls)
    spy(monkeypatch, "_nearest", calls)
    iterations = _lloyd(columns(points), init.copy())[2]
    summed = [args[0].shape[1] for name, args in calls if name == "_cluster_sums"]
    assert iterations >= 10 and len(summed) == iterations - 1
    assert summed[0] == len(points) and sum(n < len(points) / 2 for n in summed) >= 8
    assert [name for name, _ in calls].count("_nearest") == iterations  # none after
    assert_same_lloyd(points, init)


@pytest.mark.parametrize("dim", [1, 2])
def test_lloyd_reseeds_a_cluster_that_empties_mid_run(monkeypatch, dim):
    """Center 1's two points are claimed at step 2 by centers 0 and 2, which
    moved toward them: center 1 is reseeded there, at -1, and every cluster is
    summed again at step 3. One column sums pairwise, two by `bincount`."""
    points = np.zeros((4, dim))
    points[:, 0] = [-1.5, -1.0, 1.0, 1.5]
    init = np.zeros((3, dim))
    init[:, 0] = [-2.9, 0.0, 2.9]
    assert _sq_dists(points, init).argmin(axis=1).tolist() == [0, 1, 1, 2]
    calls = []
    spy(monkeypatch, "_cluster_sums", calls)
    spy(monkeypatch, "_point_costs", calls)
    centers, _, _, labels, *_ = _lloyd(columns(points), init.copy())
    assert [name for name, _ in calls][:4] == [
        "_cluster_sums", "_cluster_sums", "_point_costs", "_cluster_sums"]
    assert calls[3][1][0].shape[1] == 4  # after the reseed, every point (else 2)
    assert centers[:, 0].tolist() == [-1.5, -1.0, 1.25] and labels.tolist() == [0, 1, 2, 2]
    assert_same_lloyd(points, init)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_point_costs_only_where_a_result_reads_them(monkeypatch, level4_run,
                                                    training_tokens, sigma):
    """Point costs go into each run's final inertia and a reseed (none here).
    Costs at every step of every run would cost about as many calls as the runs
    take steps."""
    calls = []
    spy(monkeypatch, "_point_costs", calls)
    spy(monkeypatch, "_lloyd", calls)
    stack = training_tokens(level4_run, sigma)
    for k, card in enumerate(level4_run[1].codebook.cardinalities):
        calls.clear()
        fit_kmeans(stack[:, k, :], card, seed=[0, k])
        names = [name for name, _ in calls]
        assert names.count("_point_costs") == names.count("_lloyd") >= 1, k


def test_sq_norms_add_rows_as_numpy_sums_each_row():
    """A numpy that sums short rows in another order fails here, not as shifted
    fit.txt bytes."""
    rng = np.random.default_rng(3)
    for dim in range(1, 41):
        x = rng.normal(size=(300, dim)) * 10.0 ** rng.uniform(-3, 3, size=(300, dim))
        assert _sq_norms(columns(x)).tobytes() == (x ** 2).sum(axis=1).tobytes(), dim


def test_cluster_sums_add_as_numpy_means():
    """Lloyd sums each cluster by `bincount`, in index order, as numpy's mean
    adds a group's rows; a group of one column numpy sums pairwise, as does
    Lloyd. Pinned on numpy itself and through `_lloyd`, with -0.0 coordinates
    and a cluster no point is nearest to."""
    rng = np.random.default_rng(4)
    for dim in range(1, 13):
        points = rng.normal(size=(400, dim)) * 10.0 ** rng.uniform(-3, 3, size=(400, dim))
        points[rng.random(400) < 0.4, 0] = -0.0
        if dim > 1:
            points[:, 1] = -0.0
        init = np.vstack([points[np.flatnonzero(points[:, 0])[:3]], np.full(dim, 1e9)])
        labels = _sq_dists(points, init).argmin(axis=1)
        assert set(labels) == {0, 1, 2}
        for j in range(3):
            members = points[labels == j]
            sums = ([np.bincount(labels, weights=col)[j] for col in points.T] if dim > 1
                    else [members[:, 0].copy().sum()])
            assert (np.array(sums) / len(members)).tobytes() == \
                members.mean(axis=0).tobytes(), (dim, j)
        assert_same_lloyd(points, init)


def test_lloyd_reseeds_an_empty_cluster_as_the_oracle_does():
    rng = np.random.default_rng(7)
    for _ in range(20):
        points = rng.normal(size=(60, 3))
        init = points[rng.choice(60, size=4, replace=False)].copy()
        init[2] = 1e3  # no point is nearest to it at the first step
        assert 2 not in _sq_dists(points, init).argmin(axis=1)
        assert_same_lloyd(points, init)


def test_nearest_keeps_the_exact_labels_and_costs_at_ties():
    rng = np.random.default_rng(8)
    for _ in range(50):
        points = rng.normal(size=(40, 4))
        centers = points[rng.integers(40, size=5)]  # coincident with points
        centers[3] = centers[1]  # an exact tie: the lower index wins
        centers[4] = np.nextafter(centers[0], np.inf)  # within rounding of center 0
        d2 = _sq_dists(points, centers)
        labels, near, tied = _nearest(columns(points), _sq_norms(columns(points)), centers)
        assert labels.tolist() == d2.argmin(axis=1).tolist()
        assert _point_costs(columns(points), centers, labels).tobytes() == \
            d2.min(axis=1).tobytes()
        # every point at a tie is among those the exact form picked again
        assert set(np.flatnonzero((d2 == d2.min(axis=1)[:, None]).sum(axis=1) > 1)) <= set(near)
        assert len(near) and tied


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
            init = _kmeanspp_init(columns(points), len(table), np.random.default_rng(restart))
            calls.clear()
            iterations = _lloyd(columns(points), init.copy())[2]
            extra.append((sigma, len(calls) - iterations))
            assert_same_lloyd(points, init)
    assert set(extra) == {(0.2, 0), (0.0, 1)}, extra
