"""Every generator in `src` comes from `streams.rng`, keyed [seed, tag, *index]
with a tag of the stream's own and one index length, so that no two streams
draw alike: numpy's SeedSequence ignores trailing zeros, and a key that is
another with zeros appended draws as that key does."""

import ast
import itertools
import pathlib
import re

import numpy as np
import pytest

from _cli import run_cli
from benchplan import streams
from benchplan.artifacts import save_fitted
from benchplan.concepts import build_codebook, encode_values
from benchplan.streams import SEED_BOUND, STREAMS
from benchplan.symbols import fit_symbolizer

SRC = pathlib.Path(streams.__file__).parent
DEFAULT_RNG = np.random.default_rng


def test_tags_are_unique_and_each_stream_takes_one_index_length():
    assert len({stream.tag for stream in STREAMS.values()}) == len(STREAMS)
    for name, (_, index_len) in STREAMS.items():
        streams.rng(SEED_BOUND - 1, name, *range(index_len))
        refused = (f"stream '{name}' takes a seed and {index_len} index values "
                   f"in 0..{SEED_BOUND - 1}")
        for wrong in {0, index_len + 1} - {index_len}:
            with pytest.raises(ValueError, match=refused):
                streams.rng(0, name, *range(wrong))
        with pytest.raises(ValueError, match=refused):
            streams.rng(SEED_BOUND, name, *range(index_len))


@pytest.mark.parametrize("name, key",
                         [("report", (-1,)), ("task", (-1, 0)), ("kmeans", (0, 1, -1))],
                         ids=["negative-seed", "negative-seed-with-index", "negative-index"])
def test_a_negative_seed_or_index_is_refused_by_the_stream_name(name, key):
    """numpy's own refusal of a negative key word names no stream."""
    with pytest.raises(ValueError, match=re.escape(
            f"stream '{name}' takes a seed and {len(key) - 1} index values "
            f"in 0..{SEED_BOUND - 1}, got {list(key)}")):
        streams.rng(key[0], name, *key[1:])


def test_a_seed_past_the_bound_would_shift_the_tag():
    """numpy splits 5 + 11 * 2**32 into the words 5, 11: eval's key of task 0
    under that seed would draw as task 31 of dataset seed 5."""
    eval_key = [5 + 11 * SEED_BOUND, STREAMS["eval"].tag, 0]
    task_key = [5, STREAMS["task"].tag, 31]
    assert DEFAULT_RNG(eval_key).random(4).tolist() == DEFAULT_RNG(task_key).random(4).tolist()


def test_no_two_keys_draw_alike():
    """Keys of every stream, seeds 0, 1 and 5 and index values 0-3, each with a
    seed state of its own (one with zeros appended would share another's)."""
    states = {}
    for name, (tag, index_len) in STREAMS.items():
        for seed, index in itertools.product((0, 1, 5), itertools.product(range(4),
                                                                           repeat=index_len)):
            state = tuple(np.random.SeedSequence([seed, tag, *index]).generate_state(4))
            assert state not in states, (name, seed, index, states.get(state))
            states[state] = (name, seed, index)


def test_src_makes_every_generator_in_the_stream_module():
    """One `np.random.default_rng` call in `src`, looked up at call time (tests
    patch the attribute to record keys), and no stream tag outside the table but
    `evaluate._STREAM_EVAL`, which perfbench reads."""
    calls, tags = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "default_rng" in ast.unparse(node.func):
                calls.append((path.name, ast.unparse(node.func)))
            if isinstance(node, ast.Name) and node.id.startswith("_STREAM_"):
                tags.append((path.name, node.id))
            if isinstance(node, ast.FunctionDef) and node.name == "_task_rng":
                tags.append((path.name, node.name))
    assert calls == [("streams.py", "np.random.default_rng")]
    assert tags == [("evaluate.py", "_STREAM_EVAL")]


def recorded_keys(monkeypatch):
    """Each key that `np.random.default_rng` is called with from here on."""
    keys = []
    monkeypatch.setattr(np.random, "default_rng", lambda key: keys.append(key) or DEFAULT_RNG(key))
    return keys


def kmeans_key(monkeypatch, seed, concept):
    """The key of the fit's k-means restart 0 on `concept` under fit seed `seed`."""
    codebook = build_codebook(seed=seed)
    cards = codebook.cardinalities
    tokens = encode_values([[v % card for card in cards] for v in range(max(cards))], codebook)
    keys = recorded_keys(monkeypatch)
    fit_symbolizer(tokens, cards, seed=seed, restarts=1)  # one key per concept, in order
    monkeypatch.undo()
    return keys[concept]


def assert_draw_apart(keys, other):
    for key in keys:
        assert DEFAULT_RNG(key).random(4).tolist() != DEFAULT_RNG(other).random(4).tolist(), \
            (key, other)


def test_codebook_and_kmeans_draw_apart_under_equal_seeds(monkeypatch):
    """The codebook's key [5, 0] once drew as k-means concept 0's [5, 0, 0]."""
    kmeans = kmeans_key(monkeypatch, 5, 0)
    keys = recorded_keys(monkeypatch)
    build_codebook(seed=5)
    assert keys
    assert_draw_apart(keys, kmeans)


def test_plan_and_kmeans_draw_apart(monkeypatch, tmp_path, level1_run):
    """`plan --seed 5`'s key [5, 3] once drew as k-means concept 3's [5, 3, 0]."""
    save_fitted(tmp_path, level1_run[1])
    kmeans = kmeans_key(monkeypatch, 5, 3)
    keys = recorded_keys(monkeypatch)
    assert run_cli(["plan", "--artifacts", tmp_path, "--init", "0,0,0,0,2,1",
                    "--goal", "0,1,0,0,2,1", "--seed", 5])[0] == 0
    assert keys
    assert_draw_apart(keys, kmeans)
