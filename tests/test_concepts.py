import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _metrics import changed_concept_index, disentanglement_score
from _oracles import oracle_draw_separated
from benchplan.concepts import (
    SeparationUnachievable,
    UnknownValue,
    _draw_separated,
    build_codebook,
    encode,
    extend_codebook,
)
from benchplan.streams import STREAMS
from benchplan.workbench import CONCEPTS, DEFAULT_CARDINALITIES, TYPE, ObjectState

ROT = CONCEPTS.index("rotation")
COLOR = CONCEPTS.index("color")


def random_state(rng):
    return ObjectState(int(rng.integers(8)), int(rng.integers(3)),
                       int(rng.integers(5)), 90 * int(rng.integers(4)),
                       int(rng.integers(6)), int(rng.integers(4)))


class TestBuildCodebook:
    def test_deterministic(self):
        a = build_codebook(dim=8, seed=3, min_sep=1.0)
        b = build_codebook(dim=8, seed=3, min_sep=1.0)
        for ta, tb in zip(a.centroids, b.centroids):
            assert np.array_equal(ta, tb)

    def test_zero_min_sep_succeeds(self):
        cb = build_codebook(dim=2, seed=0, min_sep=0.0)
        assert cb.cardinalities == DEFAULT_CARDINALITIES

    def test_min_separation_holds_for_all_pairs(self):
        cb = build_codebook(dim=8, seed=5, min_sep=1.0)
        for table in cb.centroids:
            for a, b in itertools.combinations(table, 2):
                assert np.linalg.norm(a - b) >= 1.0

    def test_unachievable_separation(self):
        with pytest.raises(SeparationUnachievable):
            build_codebook(dim=2, seed=0, min_sep=50.0)


class TestEncode:
    def test_noiseless_equals_centroids(self):
        cb = build_codebook(seed=1)
        state = ObjectState(3, 1, 4, 180, 2, 1)
        tokens = encode(state, cb)
        for k, v in enumerate(state.values()):
            assert np.array_equal(tokens[k], cb.centroids[k][v])

    def test_single_concept_difference(self):
        cb = build_codebook(seed=1)
        a = encode(ObjectState(0, 0, 0, 0, 1, 0), cb)
        b = encode(ObjectState(0, 0, 0, 0, 4, 0), cb)
        diff = np.linalg.norm(a - b, axis=1)
        assert diff[COLOR] > 0
        assert all(diff[k] == 0 for k in range(6) if k != COLOR)

    def test_unknown_value(self):
        cb = build_codebook(seed=1)
        with pytest.raises(UnknownValue):
            encode(ObjectState(8, 0, 0, 0, 0, 0), cb)

    def test_noise_requires_rng(self):
        cb = build_codebook(seed=1)
        with pytest.raises(ValueError):
            encode(ObjectState(0, 0, 0, 0, 0, 0), cb, noise_sigma=0.1)

    def test_negative_noise_rejected(self):
        cb = build_codebook(seed=1)
        with pytest.raises(ValueError, match="noise_sigma"):
            encode(ObjectState(0, 0, 0, 0, 0, 0), cb, noise_sigma=-1.0,
                   rng=np.random.default_rng(0))

    def test_nearest_centroid_decoding_under_noise(self):
        # sigma = 0.1 * min_sep: decode all six values correctly >= 99% of draws
        cb = build_codebook(seed=2, min_sep=1.0)
        rng = np.random.default_rng(10)
        hits, n = 0, 10_000
        for _ in range(n):
            state = random_state(rng)
            tokens = encode(state, cb, noise_sigma=0.1, rng=rng)
            decoded = tuple(
                int(np.linalg.norm(cb.centroids[k] - tokens[k], axis=1).argmin())
                for k in range(6))
            hits += decoded == state.values()
        assert hits / n >= 0.99


class TestExtendCodebook:
    def test_prefix_bit_identical(self):
        cb = build_codebook(seed=4)
        ext = extend_codebook(cb, 4)
        assert ext.cardinalities[0] == 12
        assert np.array_equal(ext.centroids[0][:8], cb.centroids[0])

    def test_separation_still_holds(self):
        ext = extend_codebook(build_codebook(seed=4, min_sep=1.0), 4)
        for a, b in itertools.combinations(ext.centroids[0], 2):
            assert np.linalg.norm(a - b) >= 1.0

    def test_unseen_type_shares_other_tokens(self):
        cb = extend_codebook(build_codebook(seed=4), 4)
        seen = encode(ObjectState(2, 1, 1, 90, 3, 2), cb)
        unseen = encode(ObjectState(10, 1, 1, 90, 3, 2), cb)
        assert not np.array_equal(seen[0], unseen[0])
        assert np.array_equal(seen[1:], unseen[1:])


def drawn(draw, seed, *args):
    """The rows `draw` places from rng `seed`, or its refusal; and the rng's state
    after, which shows that both drawers took the same draws."""
    rng = np.random.default_rng(seed)
    try:
        rows = draw(rng, *args)
        outcome = rows.shape, rows.tobytes()
    except SeparationUnachievable as err:
        outcome = str(err)
    return outcome, rng.bit_generator.state


@pytest.mark.parametrize("existing", (False, True))
@pytest.mark.parametrize("seed, dim, min_sep, count", (
    (0, 8, 1.0, 6), (3, 16, 3.5, 150), (4, 4, 0.0, 20), (5, 2, 0.5, 60),
    (1, 2, 1.0, 40), (2, 3, 2.0, 30)))  # the last two are refused
def test_draw_separated_equals_frozen_drawer(seed, dim, min_sep, count, existing):
    rows = np.random.default_rng([seed, 1]).standard_normal((7, dim)) if existing else None
    args = (seed, count, dim, min_sep, rows)
    assert drawn(_draw_separated, *args) == drawn(oracle_draw_separated, *args)


def test_extension_equals_frozen_drawer():
    codebook = build_codebook(8, 0, 1.0)
    extended = extend_codebook(codebook, 300)
    known = codebook.centroids[TYPE]
    rng = np.random.default_rng([0, STREAMS["codebook_extend"].tag, len(known)])
    frozen = oracle_draw_separated(rng, 300, 8, 1.0, existing=known)
    assert extended.centroids[TYPE].tobytes() == np.vstack([known, frozen]).tobytes()


class TestChangedConceptIndex:
    def test_rotation_difference(self):
        cb = build_codebook(seed=6)
        a = encode(ObjectState(0, 0, 0, 0, 0, 0), cb)
        b = encode(ObjectState(0, 0, 0, 90, 0, 0), cb)
        assert changed_concept_index(a, b) == ROT

    def test_tie_break_lowest_index(self):
        tokens = np.zeros((6, 4))
        assert changed_concept_index(tokens, tokens) == 0

    @given(arrays(float, (6, 4), elements=st.floats(-5, 5)),
           arrays(float, (6, 4), elements=st.floats(-5, 5)))
    def test_symmetric(self, a, b):
        assert changed_concept_index(a, b) == changed_concept_index(b, a)

    def test_accuracy_under_noise(self):
        # sigma = 0.05 * min_sep, 10k pairs: correct index >= 99%
        cb = build_codebook(seed=8, min_sep=1.0)
        rng = np.random.default_rng(11)
        pairs = _changed_pairs(cb, rng, n=10_000, sigma=0.05)
        assert disentanglement_score(pairs) >= 0.99


def _changed_pairs(cb, rng, n, sigma):
    """Pairs of encodings differing in exactly one known concept."""
    pairs = []
    for _ in range(n):
        state = random_state(rng)
        k = int(rng.integers(6))
        values = list(state.values())
        card = cb.cardinalities[k]
        values[k] = (values[k] + 1 + int(rng.integers(card - 1))) % card
        other = ObjectState(values[0], values[1], values[2], 90 * values[3],
                            values[4], values[5])
        a = encode(state, cb, sigma, rng) if sigma else encode(state, cb)
        b = encode(other, cb, sigma, rng) if sigma else encode(other, cb)
        pairs.append((a, b, k))
    return pairs


class TestDisentanglementScore:
    def test_noiseless_is_perfect(self):
        cb = build_codebook(seed=9)
        rng = np.random.default_rng(12)
        assert disentanglement_score(_changed_pairs(cb, rng, 500, 0.0)) == 1.0

    def test_wrong_labels_score_zero(self):
        cb = build_codebook(seed=9)
        rng = np.random.default_rng(13)
        pairs = [(a, b, (k + 1) % 6) for a, b, k in _changed_pairs(cb, rng, 200, 0.0)]
        assert disentanglement_score(pairs) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            disentanglement_score([])

    def test_score_non_increasing_in_sigma(self):
        cb = build_codebook(seed=14, min_sep=1.0)
        scores = []
        for sigma in (0.0, 0.25, 0.5, 1.0, 2.0):
            rng = np.random.default_rng(15)  # common draws across sigmas
            scores.append(disentanglement_score(
                _changed_pairs(cb, rng, 4000, sigma)))
        for lo, hi in zip(scores[1:], scores):
            assert lo <= hi + 0.005
        assert scores[-1] < scores[0]  # heavy noise does visibly hurt
