import pickle

import numpy as np
import pytest

from _oracles import encode_trajectory, oracle_fit_transitions, oracle_symbolize
from benchplan import symbols
from benchplan.concepts import build_codebook, encode, extend_codebook
from benchplan.fitting import _STREAM_FIT_ENCODE, FitConfig, fit_pipeline
from benchplan.mdp import action_key
from benchplan.symbols import (
    InsufficientPoints,
    Symbolizer,
    UnmeasurablePoints,
    _kmeanspp_init,
    _lloyd,
    _nearest,
    _sq_norms,
    assign,
    fit_kmeans,
    fit_symbolizer,
    purity,
    symbolize,
)
from benchplan.taskgen import generate_dataset
from benchplan.workbench import DEFAULT_CARDINALITIES, ObjectState


def random_state(rng):
    return ObjectState(int(rng.integers(8)), int(rng.integers(3)),
                       int(rng.integers(5)), 90 * int(rng.integers(4)),
                       int(rng.integers(6)), int(rng.integers(4)))


def token_sample(cb, n, sigma, seed):
    rng = np.random.default_rng(seed)
    states = [random_state(rng) for _ in range(n)]
    tokens = [encode(s, cb, sigma, rng) if sigma else encode(s, cb) for s in states]
    return states, tokens


class TestFitKMeans:
    def test_k_equals_n_points(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        result = fit_kmeans(points, k=3, seed=0)
        assert result.inertia == 0.0
        assert sorted(map(tuple, result.centers)) == sorted(map(tuple, points))

    def test_noiseless_clusters_recovered_exactly(self):
        cb = build_codebook(seed=1)
        color_table = cb.centroids[4]
        points = np.repeat(color_table, 20, axis=0)
        result = fit_kmeans(points, k=6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(result.centers, np.array(sorted(map(tuple, color_table))),
                           atol=1e-12)

    def test_inertia_close_to_oracle_assignment(self):
        # oracle: cost of assigning every point to its nearest true centroid
        cb = build_codebook(seed=2, min_sep=1.0)
        rng = np.random.default_rng(3)
        values = rng.integers(0, 6, size=3000)
        points = cb.centroids[4][values] + rng.normal(0, 0.1, (3000, cb.dim))
        oracle = float(((points[:, None, :] - cb.centroids[4][None]) ** 2)
                       .sum(axis=2).min(axis=1).sum())
        result = fit_kmeans(points, k=6, seed=0)
        assert abs(result.inertia - oracle) / oracle <= 0.01

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(200, 4))
        a = fit_kmeans(points, k=5, seed=9)
        b = fit_kmeans(points, k=5, seed=9)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_inertia_never_increases_during_lloyd(self, monkeypatch):
        # Lloyd capped at t = 1, 2, ... steps, until it stops before its cap
        rng = np.random.default_rng(6)
        cols = np.ascontiguousarray(rng.normal(size=(300, 3)).T)
        init = _kmeanspp_init(cols, 4, np.random.default_rng(1))
        inertias = []
        for t in range(1, symbols.KMEANS_MAX_ITER + 1):
            monkeypatch.setattr(symbols, "KMEANS_MAX_ITER", t)
            _, inertia, iterations, *_ = _lloyd(cols, init.copy())
            inertias.append(inertia)
            if iterations < t:
                break
        assert len(inertias) > 3
        assert all(b <= a + 1e-12 for a, b in zip(inertias, inertias[1:]))

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_kmeans(np.zeros((2, 3)), k=3, seed=0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_fewer_than_one_restart(self, restarts):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            fit_kmeans(np.zeros((4, 2)), k=2, seed=0, restarts=restarts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        points = np.random.default_rng(5).normal(size=(20, 3))
        points[7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_kmeans(points, k=2, seed=0)

    def test_labels_break_ties_as_assign_does(self):
        # -1 is 2 from both 1 = mean(3, -1) and -3: Lloyd gives it to the lower
        # unsorted index, `assign` to the lower sorted one
        points = np.array([[3.0], [-1.0], [-3.0], [-3.0]])
        reordered = 0
        for seed in range(20):
            result = fit_kmeans(points, k=2, seed=seed, restarts=1)
            assert result.labels.tolist() == [assign(p, result.centers) for p in points]
            reordered += result.centers.tolist() == [[-3.0], [1.0]]
        assert reordered

    def test_centers_canonically_sorted(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(100, 2))
        centers = fit_kmeans(points, k=4, seed=2).centers
        assert list(map(tuple, centers)) == sorted(map(tuple, centers))


class TestAssign:
    def test_exact_center(self):
        centers = np.array([[0.0, 0.0], [3.0, 0.0]])
        assert assign(np.array([3.0, 0.0]), centers) == 1

    def test_tie_breaks_to_lowest_index(self):
        centers = np.array([[0.0], [2.0], [99.0]])
        assert assign(np.array([1.0]), centers) == 0

    def test_rigid_transform_invariance(self):
        # a common rotation + translation of token and centers preserves assignment
        rng = np.random.default_rng(8)
        centers = rng.normal(size=(5, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        shift = rng.normal(size=4)
        for _ in range(50):
            token = rng.normal(size=4)
            assert assign(token, centers) == \
                assign(token @ q.T + shift, centers @ q.T + shift)

    def test_agreement_with_true_centroids_under_noise(self):
        cb = build_codebook(seed=9, min_sep=1.0)
        _, tokens = token_sample(cb, 2000, sigma=0.1, seed=10)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        agree = 0
        for t in tokens:
            fitted = symbolize(t, sym)
            truth = tuple(
                int(np.linalg.norm(cb.centroids[k] - t[k], axis=1).argmin())
                for k in range(6))
            # compare through each concept's center-to-centroid grounding
            grounding = tuple(tuple(assign(c, cb.centroids[k]) for c in sym.centers[k])
                              for k in range(6))
            agree += all(grounding[k][fitted[k]] == truth[k] for k in range(6))
        assert agree / len(tokens) >= 0.99


class TestSymbolizer:
    def test_noiseless_centers_match_codebook(self):
        cb = build_codebook(seed=11)
        _, tokens = token_sample(cb, 1500, sigma=0.0, seed=12)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        for k in range(6):
            fitted = np.array(sorted(map(tuple, sym.centers[k])))
            truth = np.array(sorted(map(tuple, cb.centroids[k])))
            assert np.allclose(fitted, truth, atol=1e-12)

    def test_refit_identical(self):
        cb = build_codebook(seed=11)
        _, tokens = token_sample(cb, 500, sigma=0.1, seed=13)
        a, _ = fit_symbolizer(tokens, cb.cardinalities, seed=4)
        b, _ = fit_symbolizer(tokens, cb.cardinalities, seed=4)
        for ca, cb_ in zip(a.centers, b.centers):
            assert np.array_equal(ca, cb_)

    def test_symbolize_encode_bijective_at_sigma_zero(self):
        cb = build_codebook(seed=11)
        states, tokens = token_sample(cb, 1500, sigma=0.0, seed=14)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        forward = {}
        for state in states:
            key = state.values()
            symbols = symbolize(encode(state, cb), sym)
            if key in forward:
                assert forward[key] == symbols
            forward[key] = symbols
        per_concept = [set() for _ in range(6)]
        for key, symbols in forward.items():
            for k in range(6):
                per_concept[k].add((key[k], symbols[k]))
        for k, pairs in enumerate(per_concept):
            values = {v for v, _ in pairs}
            assert len(pairs) == len(values)  # one symbol per value
            assert len({s for _, s in pairs}) == len(values)  # distinct symbols

    def test_same_state_same_symbols_under_noise(self):
        cb = build_codebook(seed=15, min_sep=1.0)
        _, tokens = token_sample(cb, 1000, sigma=0.1, seed=16)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        rng = np.random.default_rng(17)
        same = 0
        for _ in range(500):
            state = random_state(rng)
            a = symbolize(encode(state, cb, 0.1, rng), sym)
            b = symbolize(encode(state, cb, 0.1, rng), sym)
            same += a == b
        assert same / 500 >= 0.98


def nearest_labels(tokens, centers):
    """Each (n, dim) token's nearest center by `_nearest`'s one matmul."""
    cols = np.ascontiguousarray(tokens.T)
    return _nearest(cols, _sq_norms(cols.copy()), centers)[0]


def assert_batch_equals_symbolize(stack, sym):
    """One `_nearest` batch per concept gives what symbolize gives per token."""
    batched = zip(*(nearest_labels(stack[:, k, :], c).tolist()
                    for k, c in enumerate(sym.centers)))
    assert list(batched) == [symbolize(t, sym) for t in stack]


class TestBatchedSymbols:
    def test_batched_training_symbols_equal_symbolize(self):
        # fit_pipeline symbolizes its training stack in one batch per concept
        dataset = generate_dataset(4, (80, 5, 5), 11)
        fitted = fit_pipeline(dataset, FitConfig(noise_sigma=0.2))
        sym = fitted.symbolizer
        paths, triplets = [], []
        for i, task in enumerate(dataset.tasks):
            if task.split == "train":
                rng = np.random.default_rng([0, _STREAM_FIT_ENCODE, i])
                paths.append(np.stack(encode_trajectory(task, fitted.codebook, 0.2, rng)[1]))
                symbols = [symbolize(t, sym) for t in paths[-1]]
                triplets += [(symbols[t], action_key(a, task.env.dyer_color), symbols[t + 1])
                             for t, a in enumerate(task.gt_actions)]
        assert_batch_equals_symbolize(np.concatenate(paths), sym)
        refit = oracle_fit_transitions(triplets, sym.cardinalities, thresh=fitted.model.thresh)
        assert refit.action_keys == fitted.model.action_keys
        for key in refit.action_keys:
            for a, b in zip(refit.counts[key], fitted.model.counts[key]):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("run", ["level3_run", "level4_run"])
    @pytest.mark.parametrize("sigma", [0.0, 0.2])
    def test_fit_labels_equal_assign_many(self, request, training_tokens, run, sigma):
        # fit_pipeline takes its training symbols from the fit, not a second pass
        run = request.getfixturevalue(run)
        stack = training_tokens(run, sigma)
        sym, labels = fit_symbolizer(stack, run[1].codebook.cardinalities, seed=0)
        assert labels.shape == stack.shape[:2]
        for k, centers in enumerate(sym.centers):
            assert labels[:, k].tolist() == nearest_labels(stack[:, k, :], centers).tolist()

    def test_ties_break_as_symbolize_does(self):
        cb = build_codebook(seed=11)
        _, tokens = token_sample(cb, 300, sigma=0.0, seed=24)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        # tokens halfway between two centers of every concept, and on a center
        halfway = np.stack([[(c[0] + c[1]) / 2 for c in sym.centers],
                            [c[-1] for c in sym.centers]])
        assert_batch_equals_symbolize(np.concatenate([np.asarray(tokens), halfway]), sym)


class TestSymbolizeOracle:
    """`symbolize`'s one broadcast over the padded center table gives the frozen
    per-concept `assign` loop's symbols."""

    @pytest.mark.parametrize("sigma", (0.0, 0.4))
    def test_noisy_tokens(self, level4_run, sigma):
        _, fitted = level4_run
        states, tokens = token_sample(fitted.codebook, 600, sigma, seed=43)
        symbols = [symbolize(t, fitted.symbolizer) for t in tokens]
        assert symbols == [oracle_symbolize(t, fitted.symbolizer) for t in tokens]
        # at sigma 0.4 some tokens cross to another concept's center
        clean = [symbolize(encode(s, fitted.codebook), fitted.symbolizer) for s in states]
        assert (symbols != clean) == (sigma > 0)

    @pytest.mark.parametrize("sigma", (0.0, 0.4))
    def test_a_stack_gives_each_token_set_its_symbols(self, level4_run, sigma):
        # eval symbolizes a task's (2, 6, dim) init and goal tokens in one call
        _, fitted = level4_run
        tokens = np.asarray(token_sample(fitted.codebook, 200, sigma, seed=46)[1])
        for stack in (tokens, tokens[:2], tokens[:1]):
            assert symbolize(stack, fitted.symbolizer) == \
                tuple(symbolize(t, fitted.symbolizer) for t in stack)

    def test_exact_ties(self):
        # integer centers and half-integer tokens: every distance is exact, and
        # many tokens sit as near to two centers, a padded last center among them
        rng = np.random.default_rng(44)
        sym = Symbolizer(centers=tuple(rng.integers(0, 3, size=(k, 3)).astype(float)
                                       for k in (2, 5, 3, 1)),
                         inertia=(0.0,) * 4, iterations=(1,) * 4)
        ties = 0
        for _ in range(2000):
            tokens = rng.integers(0, 5, size=(4, 3)) / 2
            assert symbolize(tokens, sym) == oracle_symbolize(tokens, sym), tokens
            for token, centers in zip(tokens, sym.centers):
                dists = ((centers - token) ** 2).sum(axis=1)
                ties += np.count_nonzero(dists == dists.min()) > 1
        assert ties > 500

    def test_non_finite_tokens(self, level1_run):
        # an infinite or nan token, or one whose squared distances overflow, has
        # no nearest center: each of its distances is inf or nan, and their
        # argmin, symbol 0, would be no answer
        sym = level1_run[1].symbolizer
        for bad in (np.inf, -np.inf, np.nan, 1e160):
            tokens = np.zeros((6, sym.centers[0].shape[1]))
            tokens[:, 1] = bad
            with pytest.raises(UnmeasurablePoints, match="not finite"):
                symbolize(tokens, sym)

    def test_extended_unseen_type_codebook(self, level1_run):
        _, fitted = level1_run
        codebook = extend_codebook(fitted.codebook, 4)
        rng = np.random.default_rng(45)
        for type_id in range(12):
            for sigma in (0.0, 0.4):
                state = ObjectState(type_id, 1, 2, 90, 3, 1)
                tokens = encode(state, codebook, sigma, rng)
                assert symbolize(tokens, fitted.symbolizer) == \
                    oracle_symbolize(tokens, fitted.symbolizer)

    def test_pickle_carries_no_center_table(self, level1_run):
        sym = level1_run[1].symbolizer
        symbolize(np.zeros((6, sym.centers[0].shape[1])), sym)  # builds the table
        assert "center_table" in vars(sym)
        twin = pickle.loads(pickle.dumps(sym))
        assert "center_table" not in vars(twin)
        assert all(map(np.array_equal, twin.centers, sym.centers))


def _labels(symbolizer, tokens):
    return [symbolize(t, symbolizer) for t in tokens]


def _values(states):
    return np.array([s.values() for s in states])


class TestPurity:
    def test_noiseless_is_one(self):
        cb = build_codebook(seed=18)
        states, tokens = token_sample(cb, 1200, sigma=0.0, seed=19)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        assert np.array_equal(purity(_labels(sym, tokens), _values(states)), np.ones(6))

    def test_noisy_still_above_99(self):
        cb = build_codebook(seed=18, min_sep=1.0)
        states, tokens = token_sample(cb, 3000, sigma=0.1, seed=20)
        sym, _ = fit_symbolizer(tokens, cb.cardinalities, seed=0)
        assert purity(_labels(sym, tokens), _values(states)).min() >= 0.99

    def test_untrained_random_centers_score_near_chance(self):
        # noise-dominated tokens (sigma >> separation) carry no label signal,
        # so random untrained centers must score at chance level ~ 1/k
        cb = build_codebook(seed=21)
        states, tokens = token_sample(cb, 6000, sigma=10.0, seed=22)
        rng = np.random.default_rng(23)
        random_sym = Symbolizer(
            centers=tuple(rng.normal(size=(c, cb.dim))
                          for c in DEFAULT_CARDINALITIES),
            inertia=(0.0,) * 6, iterations=(0,) * 6)
        scores = purity(_labels(random_sym, tokens), _values(states))
        for k, card in enumerate(DEFAULT_CARDINALITIES):
            # majority-vote purity hovers at 1/k with a small upward bias
            assert abs(scores[k] - 1.0 / card) <= 0.06
