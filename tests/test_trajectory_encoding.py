"""`encode_values` encodes a trajectory's value rows by one gather and one noise
draw; its tokens must be, bit for bit, those of one `encode` per state from the
same stream, and `encode` is that rule's one-row case. The fit's whole-split
tokens equal these per-trajectory tokens end to end (`test_fit_arrays.py`)."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import encode_trajectory, oracle_encode
from benchplan.concepts import (
    UnknownValue,
    build_codebook,
    encode,
    encode_values,
    extend_codebook,
)
from benchplan.workbench import CONCEPTS, ObjectState


@pytest.mark.parametrize("sigma", (0.0, 0.2))
def test_trajectory_encoding_equals_per_state_encode(level4_run, sigma):
    dataset, _ = level4_run
    codebook = build_codebook(seed=dataset.codebook_seed)
    for i, task in enumerate(dataset.tasks):
        rngs = [np.random.default_rng([5, i]) for _ in range(3)]
        states, tokens = encode_trajectory(task, codebook, sigma, rngs[0] if sigma else None)
        assert tokens.shape == (len(task.gt_actions) + 1, 6, codebook.dim)
        for per_state, rng in zip((oracle_encode, encode), rngs[1:]):
            expected = np.array([per_state(s, codebook, sigma, rng) for s in states])
            assert tokens.tobytes() == expected.tobytes(), (task.task_id, per_state)
        # all three streams were read equally far
        assert len({rng.random() for rng in rngs}) == 1


def test_unseen_type_raises_unknown_value_not_index_error():
    codebook = build_codebook(seed=3)
    seen, unseen = ObjectState(2, 0, 0, 0, 1, 3), ObjectState(8, 0, 1, 90, 1, 3)
    message = r"^type value 8 outside codebook \(cardinality 8\)$"
    for call in (lambda: encode(unseen, codebook),
                 lambda: encode_values([s.values() for s in (seen, unseen, seen)], codebook),
                 lambda: encode_values([seen.values(), unseen.values()], codebook, 0.2,
                                       np.random.default_rng(0)),
                 lambda: oracle_encode(unseen, codebook)):
        with pytest.raises(UnknownValue, match=message):
            call()
    extended = extend_codebook(codebook, 1)
    assert encode(unseen, extended).tobytes() == oracle_encode(unseen, extended).tobytes()


def test_a_trajectory_through_an_unseen_type_raises_unknown_value(level4_run):
    dataset, _ = level4_run
    task = dataset.tasks[0]
    retyped = replace(task, init=replace(task.init, type_id=9))
    with pytest.raises(UnknownValue, match="type value 9"):
        encode_trajectory(retyped, build_codebook(seed=1), 0.0, None)


def test_size_past_a_smaller_codebook_raises_unknown_value():
    # the last table's row past its end would be past the stacked tables too
    codebook = build_codebook(seed=3)
    small = replace(codebook, centroids=(*codebook.centroids[:-1], codebook.centroids[-1][:2]))
    state = ObjectState(0, 0, 0, 0, 0, 3)
    with pytest.raises(UnknownValue, match=r"^size value 3 outside codebook \(cardinality 2\)$"):
        encode(state, small)
    assert encode(replace(state, size=1), small).tobytes() == \
        oracle_encode(replace(state, size=1), small).tobytes()


SEEN = ObjectState(2, 0, 1, 90, 1, 3)


def row_with(changes):
    """SEEN's value row with `changes` ({concept: value}) in place."""
    return [changes.get(k, v) for k, v in enumerate(SEEN.values())]


@pytest.mark.parametrize("past", (False, True), ids=("minus-1", "cardinality"))
@pytest.mark.parametrize("k", range(len(CONCEPTS)), ids=CONCEPTS)
def test_out_of_range_value_raises_unknown_value(k, past):
    codebook = build_codebook(seed=3)
    card = codebook.cardinalities[k]
    row = row_with({k: card if past else -1})
    message = rf"^{CONCEPTS[k]} value {row[k]} outside codebook \(cardinality {card}\)$"
    # the frozen per-state rule reads only `values()`, so it takes any row
    for call in (lambda: encode_values([row], codebook),
                 lambda: encode_values([SEEN.values(), row], codebook, 0.2,
                                       np.random.default_rng(0)),
                 lambda: oracle_encode(SimpleNamespace(values=lambda: row), codebook)):
        with pytest.raises(UnknownValue, match=message):
            call()


def test_a_value_past_int64_raises_unknown_value():
    # an ad hoc `plan --init` state may carry any int as its type
    with pytest.raises(UnknownValue, match=rf"^type value {2**64} outside codebook"):
        encode_values([row_with({0: 2**64})], build_codebook(seed=3))


def test_the_first_bad_value_in_row_major_order_is_reported():
    codebook = build_codebook(seed=3)
    with pytest.raises(UnknownValue, match=r"^pos_x value 3 outside codebook"):
        encode_values([SEEN.values(), row_with({1: 3, 4: 6})], codebook)
    # row 1's color comes before row 2's type in row-major order, not in concept order
    with pytest.raises(UnknownValue, match=r"^color value 6 outside codebook"):
        encode_values([SEEN.values(), row_with({4: 6}), row_with({0: -1})], codebook)


@pytest.mark.parametrize("sigma", (0.0, 0.2))
def test_no_rows_give_no_tokens(sigma):
    codebook, rng = build_codebook(seed=3), np.random.default_rng(0)
    tokens = encode_values([], codebook, sigma, rng)
    assert tokens.shape == (0, len(CONCEPTS), codebook.dim) and tokens.dtype == np.float64
    assert rng.random() == np.random.default_rng(0).random()  # no draw read the stream
