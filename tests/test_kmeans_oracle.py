"""k-means holds a concept's points as (dim, n) columns, draws greedy k-means++
candidates by numpy's own steps for `choice` and scores them in one block, once
per distinct point where points repeat, assigns points by one matmul per Lloyd
step, sums again by `bincount` only the clusters that gained or lost a point, computes
point costs only where a result reads them, skips the last assignment when no
center moved, and runs Lloyd once for restarts that draw one center set without
meeting a tie; its results must stay those of the broadcast form frozen in
`_oracles`, bit for bit. The one exception is a run on fewer distinct points than
k, which stops at a cycle of reseeds where the oracle runs on to the cap."""

import numpy as np
import pytest

from _oracles import _greedy_kmeanspp_init as oracle_kmeanspp_init
from _oracles import _kmeanspp_init as oracle_plain_kmeanspp_init
from _oracles import _sq_dists, oracle_fit_kmeans, oracle_lloyd
from benchplan import streams, symbols
from benchplan.concepts import build_codebook
from benchplan.fitting import FitConfig, fit_pipeline
from benchplan.streams import STREAMS
from benchplan.taskgen import generate_dataset
from benchplan.symbols import (
    DEFAULT_RESTARTS, KMEANS_MAX_ITER, UnmeasurablePoints, _distinct, _kmeanspp_init, _lloyd,
    _nearest, _point_costs, _sq_norms, _weighted_pick, fit_kmeans,
)

KMEANS = STREAMS["kmeans"].tag  # `fit_kmeans` restart r of concept c: [seed, KMEANS, c, r]
KINDS = ("normal", "k=1", "k=n", "codebook", "few distinct", "far offset", "lattice")


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
    if kind == "lattice":  # integer points: distinct candidates often tie on potential
        return rng.integers(-2, 3, size=(n, dim)).astype(float), k
    return rng.normal(size=(n, dim)), k


def columns(points):
    """A (dim, n) copy of the points, which `_sq_norms` may overwrite."""
    return np.array(points.T, order="C")


def assert_same(result, oracle):
    assert result.centers.tobytes() == oracle.centers.tobytes()
    assert (result.inertia, result.iterations) == (oracle.inertia, oracle.iterations)
    assert result.labels.tolist() == oracle.labels.tolist()


def assert_same_or_stopped(result, oracle, points, k):
    """Bitwise the oracle's fit; on fewer distinct points than k, where a cycle
    of reseeds stops a run that the oracle runs to the cap, the oracle's
    partition, in fewer steps than the cap."""
    if len(np.unique(points, axis=0)) >= k:
        return assert_same(result, oracle)
    assert partition(result.labels) == partition(oracle.labels)
    assert result.iterations < KMEANS_MAX_ITER


def partition(labels):
    """The sets of points that share a label."""
    return {frozenset(np.flatnonzero(labels == j).tolist()) for j in set(labels.tolist())}


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
            assert_same_or_stopped(
                fit_kmeans(points, k, case, concept=1, restarts=restarts),
                oracle_fit_kmeans(points, k, seed=[case, KMEANS, 1], restarts=restarts), points, k)


def test_few_distinct_points_stop_before_the_cap():
    """Noiseless tokens of 3 type values, k = 8: a cluster empties at each step
    and is reseeded at the farthest point, which flips with one-ulp differences
    between the means of equal points. Each run stops where a reseeding step's
    centers repeat, with each value in a cluster of its own; three of these
    draws once ran all KMEANS_MAX_ITER steps."""
    table = build_codebook(seed=4).centroids[0]
    for seed in range(6):
        values = np.random.default_rng(seed).integers(3, size=12)
        result = fit_kmeans(table[values], len(table), 0)
        assert result.iterations < KMEANS_MAX_ITER, seed
        assert partition(result.labels) == partition(values), seed


def test_fit_kmeans_equals_frozen_oracle_at_high_dims():
    # from dim 8 the squared norms add 8 accumulators, a tree, then the tail
    rng = np.random.default_rng(2025)
    for case in range(60):
        points, k = _case(rng, KINDS[case % len(KINDS)], dims=(9, 21))
        assert_same_or_stopped(fit_kmeans(points, k, case, concept=2, restarts=2),
                               oracle_fit_kmeans(points, k, seed=[case, KMEANS, 2], restarts=2),
                               points, k)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_fit_kmeans_equals_frozen_oracle_at_scale(level4_run, training_tokens, sigma):
    stack = training_tokens(level4_run, sigma)
    for k, card in enumerate(level4_run[1].codebook.cardinalities):
        for restarts in (2, DEFAULT_RESTARTS):
            assert_same(fit_kmeans(stack[:, k, :], card, 0, concept=k, restarts=restarts),
                        oracle_fit_kmeans(stack[:, k, :], card, seed=[0, KMEANS, k],
                                          restarts=restarts))


@pytest.mark.parametrize("sigma, runs", [(0.0, 1), (0.2, DEFAULT_RESTARTS)])
def test_restarts_that_draw_one_center_set_share_one_lloyd_run(
        monkeypatch, level4_run, training_tokens, sigma, runs):
    """Noiseless tokens: every k-means++ init picks each distinct value once, so
    a concept's restarts make one Lloyd run, from those values, and draw no
    seeding. Noisy ones pick distinct points. The best run's result is kept: no
    run is made again."""
    calls, keys = [], []
    spy(monkeypatch, "_lloyd", calls)
    record_kmeans_keys(monkeypatch, keys)
    stack = training_tokens(level4_run, sigma)
    for k, card in enumerate(level4_run[1].codebook.cardinalities):
        calls.clear(), keys.clear()
        fit_kmeans(stack[:, k, :], card, 0, concept=k)
        assert len(calls) == runs, k
        assert keys == ([] if runs == 1 else [(0, k, r) for r in range(runs)]), k


def record_kmeans_keys(monkeypatch, keys):
    """Record in `keys` the (seed, concept, restart) of each `kmeans` stream drawn."""
    rng = streams.rng
    monkeypatch.setattr(streams, "rng", lambda seed, name, *index: (
        keys.append((seed, *index)) if name == "kmeans" else None) or rng(seed, name, *index))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_exactly_k_distinct_points_fit_as_the_oracle(request, training_tokens, level):
    """Noiseless training tokens take each concept's k values, and the one Lloyd
    run from them is the oracle's best of its restarts, bit for bit."""
    if level == 2:  # no level-2 fixture: a small dataset, under the level-1 codebook
        run = (generate_dataset(2, (150, 0, 0), seed=7), request.getfixturevalue("level1_run")[1])
    else:
        run = request.getfixturevalue(f"level{level}_run")
    stack = training_tokens(run, 0.0)
    for k, card in enumerate(run[1].codebook.cardinalities):
        assert _distinct(columns(stack[:, k, :])).shape[1] == card, k
        assert_same(fit_kmeans(stack[:, k, :], card, 0, concept=k),
                    oracle_fit_kmeans(stack[:, k, :], card, seed=[0, KMEANS, k]))


def test_k_repeated_values_fit_as_the_oracle(monkeypatch):
    """A case of every kind, cut to at most k points of distinct first coordinates
    (which `_distinct` reads), each repeated in random order: one Lloyd run, no
    seeding drawn, and the oracle's fit."""
    rng = np.random.default_rng(2027)
    calls, keys = [], []
    spy(monkeypatch, "_lloyd", calls)
    record_kmeans_keys(monkeypatch, keys)
    for case in range(70):
        points, k = _case(rng, KINDS[case % len(KINDS)])
        table = points[np.unique(points[:, 0], return_index=True)[1][:k]]
        points = table[rng.permutation(np.r_[np.arange(len(table)),
                                             rng.integers(len(table), size=len(points))])]
        calls.clear(), keys.clear()
        result = fit_kmeans(points, len(table), case, concept=1)
        assert (len(calls), keys) == (1, []), case
        assert_same(result, oracle_fit_kmeans(points, len(table), seed=[case, KMEANS, 1]))


def test_fewer_than_k_distinct_points_draw_every_restart(monkeypatch):
    """Three type values for k = 8: no seeding draws 8 distinct points, so each
    restart draws its own."""
    keys = []
    record_kmeans_keys(monkeypatch, keys)
    table = build_codebook(seed=4).centroids[0]
    points = table[np.random.default_rng(0).integers(3, size=12)]
    result = fit_kmeans(points, len(table), 5, concept=2, restarts=4)
    assert keys == [(5, 2, r) for r in range(4)]
    assert_same_or_stopped(result, oracle_fit_kmeans(points, len(table), seed=[5, KMEANS, 2],
                                                     restarts=4), points, len(table))


def test_a_tie_on_k_distinct_points_falls_back_to_the_restarts(monkeypatch):
    """Two distinct points whose squared distance underflows to 0: the run from
    them meets a tie at once, so every restart draws its seeding, as the oracle."""
    keys = []
    record_kmeans_keys(monkeypatch, keys)
    points = np.array([[0.0], [0.0], [1e-170]])
    assert _distinct(columns(points)).shape[1] == 2
    assert _lloyd(columns(points), np.array([[0.0], [1e-170]]))[-1]  # tied
    result = fit_kmeans(points, 2, 3, restarts=3)
    assert keys == [(3, 0, r) for r in range(3)]
    assert_same(result, oracle_fit_kmeans(points, 2, seed=[3, KMEANS, 0], restarts=3))


def test_a_run_that_meets_a_tie_is_not_shared():
    """Restart 0 draws the centers (0, 0), (2, 0) and restart 1 the same two in
    the other order. The point (1, 0) lies midway: at the tie it joins center 0,
    the three points at (0, 0) in restart 0 and the two at (2, 0) in restart 1,
    which ends with the lower inertia. Restart 1 must run."""
    points = np.array([[0.0, 0.0]] * 3 + [[2.0, 0.0]] * 2 + [[1.0, 0.0]])
    inits = [_kmeanspp_init(columns(points), 2, np.random.default_rng([3, KMEANS, 0, r]))
             for r in (0, 1)]
    assert inits[0].tolist() == inits[1][::-1].tolist() == [[0.0, 0.0], [2.0, 0.0]]
    assert _nearest(columns(points), _sq_norms(columns(points)), inits[0])[2]
    result = fit_kmeans(points, 2, 3, restarts=2)
    assert_same(result, oracle_fit_kmeans(points, 2, seed=[3, KMEANS, 0], restarts=2))
    assert result.inertia == 2 / 3


def test_weighted_pick_takes_generator_choices_steps():
    """Each greedy k-means++ draw of candidates is `Generator.choice(n, size,
    p=d2 / total)` by numpy's own steps; a numpy whose `choice` picks other
    indices or reads the stream otherwise fails here. Weights with leading,
    trailing and interior zeros, a point mass and n = 1."""
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
        for size in range(1, 6):
            ours, numpys = np.random.default_rng([i, size]), np.random.default_rng([i, size])
            picks = _weighted_pick(weights, ours, size)
            assert picks.tolist() == numpys.choice(len(weights), size,
                                                   p=weights / weights.sum()).tolist(), (i, size)
            assert (weights[picks] > 0).all() and ours.random() == numpys.random()
    ours, numpys = np.random.default_rng(5), np.random.default_rng(5)
    assert _weighted_pick(np.zeros(7), ours, 3).tolist() == [numpys.integers(7)]  # uniform
    assert ours.random() == numpys.random()
    for weights in (np.array([1.0, np.inf]), np.array([1e308, 1e308, 0.0])):
        with pytest.raises(UnmeasurablePoints, match="sum to inf"), np.errstate(over="ignore"):
            _weighted_pick(weights, ours, 3)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_kmeanspp_init_equals_the_oracle_draw(level4_run, training_tokens, sigma):
    """On the level-4 tokens and on cases of every kind, where the lattice's
    candidates tie on potential and the first drawn of them must be kept."""
    stack = training_tokens(level4_run, sigma)
    cases = [(stack[:, k, :], card) for k, card in enumerate(level4_run[1].codebook.cardinalities)]
    rng = np.random.default_rng([2026, int(sigma * 10)])
    cases += [_case(rng, KINDS[case % len(KINDS)]) for case in range(70)]
    for i, (points, k) in enumerate(cases):
        for r in range(DEFAULT_RESTARTS):
            init = _kmeanspp_init(columns(points), k, np.random.default_rng([0, KMEANS, i, r]))
            frozen = oracle_kmeanspp_init(points, k, np.random.default_rng([0, KMEANS, i, r]))
            assert init.tobytes() == frozen.tobytes(), (i, r)
    assert sigma or _distinct(columns(stack[:, 0, :])).shape == (8, 8)  # 8 type values


def same_points(a, b):
    """Whether the (dim, n) columns of `a` are those of `b` in some order, -0.0 as 0.0."""
    return a.shape == b.shape and (a[:, :, None] == b[:, None, :]).all(axis=0).any(axis=0).all()


def test_distinct_points_draw_the_oracle_init():
    """`_distinct` groups repeated points, and refuses points that share only a
    first coordinate. Every oracle init on exactly k distinct points draws each
    of them once, so the fit that starts from them is the oracle's, bit for bit,
    with -0.0 and 0.0 coordinates, which group together."""
    rng = np.random.default_rng(7)
    assert _distinct(columns(rng.normal(size=(30, 3)))) is None  # no repeats
    assert _distinct(columns(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]]))) is None
    for case in range(60):
        table = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 10))))
        table[rng.random(table.shape) < 0.4] = 0.0
        table[:, 0] = np.arange(len(table)) - len(table) // 2  # one row's is 0.0
        points = table[rng.integers(len(table), size=int(rng.integers(2, 40)))]
        points[points == 0] = rng.choice([-0.0, 0.0], size=int((points == 0).sum()))
        if len(np.unique(points[:, 0])) == len(points):
            continue  # no repeats to group
        distinct = _distinct(columns(points))
        used = table[[(row == points).all(axis=1).any() for row in table]]  # in order of x
        assert distinct.shape == used.T.shape and (distinct == used.T).all(), case
        k = distinct.shape[1]
        for r in range(3):
            frozen = oracle_kmeanspp_init(points, k, np.random.default_rng([case, r, 1]))
            assert same_points(distinct, columns(frozen)), (case, r)
        assert_same(fit_kmeans(points, k, case, restarts=3),
                    oracle_fit_kmeans(points, k, seed=[case, KMEANS, 0], restarts=3))


@pytest.mark.parametrize("seed, concepts", [(11, range(6)), (19, [2])],
                         ids=["seed11", "seed19-pos_y"])
def test_greedy_seeding_keeps_the_inertia_of_ten_plain_restarts(training_tokens, seed,
                                                                concepts):
    """The level-4 desk fits at sigma 0.5: with `DEFAULT_RESTARTS` greedy inits,
    each concept ends within 0.1% of the best of 10 plain k-means++ inits. At
    seed 11, plain seeding at 3 restarts ends far above it (total 56,690 ->
    63,679); at seed 19, greedy seeding at 3 to 5 restarts merges two clusters
    of pos_y (k = 5, 3 trials per center): 9,336 -> 12,952 or more."""
    dataset = generate_dataset(4, (800, 100, 100), seed)
    fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.5))
    stack = training_tokens((dataset, fitted), 0.5)
    cards = fitted.codebook.cardinalities
    for k in concepts:
        inertia = fitted.symbolizer.inertia[k]
        assert fit_kmeans(stack[:, k, :], cards[k], 0, concept=k).inertia == inertia, k
        plain = oracle_fit_kmeans(stack[:, k, :], cards[k], seed=[0, KMEANS, k], restarts=10,
                                  init=oracle_plain_kmeanspp_init)
        assert inertia <= plain.inertia * 1.001, k


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
    # the first 8 points, an init no seeding draws, run 14 steps on these points
    init = points[:8].copy()
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
        fit_kmeans(stack[:, k, :], card, 0, concept=k)
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
