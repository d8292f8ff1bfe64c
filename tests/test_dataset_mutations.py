"""A dataset file edited a line at a time and sealed again reaches the parser:
`load_dataset` must return a Dataset or refuse the file in one line of our
own wording (`_cli.assert_own_message`), and `eval`, `fit` and `plan
--task-id` on it must keep the command line's exit contract (`_cli.run_cli`),
never ending in a traceback."""

import re
import shutil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _cli import assert_own_message, run_cli
from _sealing import FIELD_EDITS, edit_field, edit_sealed
from benchplan import cli
from benchplan.artifacts import SchemaMismatch, load_dataset
from benchplan.taskgen import Dataset

# an int that a key=value field holds, alone or in a cell list, as in `level=4`,
# `obstacles=0,1;2,3` or `train=20`; its replacements stay small (a type past the
# codebook extends it by that many types)
INT = re.compile(r"(?<=[=,;])-?\d+\b")
INTS = st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "9", "14", "15", "-1",
                        "45", "180", "360"])


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    """Per level, 2 and 4: a dataset of 24 tasks, its lines above the seal, and
    a directory holding its fit."""
    root = tmp_path_factory.mktemp("dataset-mutations")
    out = {}
    for level in (2, 4):
        data, fit = str(root / f"l{level}.txt"), str(root / f"fit{level}")
        assert cli.main(["gen", "--level", str(level), "--train", "20", "--val", "1",
                         "--test", "3", "--seed", "1", "--out", data]) == 0
        assert cli.main(["fit", "--data", data, "--artifacts", fit, "--sigma", "0"]) == 0
        with open(data, encoding="utf-8") as fh:
            text = fh.read()
        out[level] = data, fit, text[:text.rindex("sha256=")].splitlines(True)
    return root, out


def mutate(lines, draw):
    """One drawn edit of a copy of `lines`: drop, duplicate or swap a task line,
    change one int of any line, cut a line's field short, or edit a field or a
    gt plan's action of any line (`_sealing.edit_field`)."""
    lines = list(lines)
    at = draw(st.integers(1, len(lines) - 1))  # a task line
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "int", "cut", *FIELD_EDITS]))
    if kind == "drop":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(1, len(lines))), lines[at])
    elif kind == "swap":
        other = draw(st.integers(1, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "int":
        at = draw(st.integers(0, len(lines) - 1))  # the header too
        m = draw(st.sampled_from(list(INT.finditer(lines[at]))))
        lines[at] = lines[at][:m.start()] + draw(INTS) + lines[at][m.end():]
    elif kind in FIELD_EDITS:
        at = draw(st.integers(0, len(lines) - 1))  # the header too
        lines[at] = edit_field(lines[at], kind, draw)
    else:
        words = lines[at].split(" ")
        i = draw(st.integers(0, len(words) - 1))
        words[i] = words[i][:draw(st.integers(0, len(words[i].rstrip("\n")) - 1))]
        lines[at] = " ".join(words).rstrip(" \n") + "\n"
    return lines


def write_mutated(path, original, lines, data):
    """Copy the dataset file `original` of `lines` to `path`, and seal one drawn
    edit of it there; skips edits that change nothing."""
    edited = "".join(mutate(lines, data.draw))
    assume(edited != "".join(lines))
    shutil.copyfile(original, path)
    edit_sealed(path, lambda _: edited)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(level=st.sampled_from([2, 4]), data=st.data())
def test_an_edited_dataset_loads_or_is_refused_in_one_line(sealed, level, data):
    root, datasets = sealed
    path = root / "edited.txt"
    original, _, lines = datasets[level]
    write_mutated(path, original, lines, data)
    try:
        assert isinstance(load_dataset(path), Dataset)
    except SchemaMismatch as err:
        assert str(err).startswith(f"{path}: ") and "\n" not in str(err), err
        assert_own_message(str(err))


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(level=st.sampled_from([2, 4]), data=st.data())
def test_eval_of_an_edited_dataset_runs_or_exits_2_or_3(sealed, level, data):
    root, datasets = sealed
    original, fit, lines = datasets[level]
    path = root / "edited.txt"
    write_mutated(path, original, lines, data)
    code, err = run_cli(["eval", "--data", path, "--artifacts", fit,
                         "--out", root / "reports", "--jobs", "1"])
    assert code in (0, 2, 3), err


@settings(max_examples=16, derandomize=True, database=None, deadline=None)
@given(level=st.sampled_from([2, 4]), command=st.sampled_from(["fit", "plan"]),
       data=st.data())
def test_fit_and_plan_of_an_edited_dataset_keep_the_exit_contract(sealed, level, command,
                                                                    data):
    root, datasets = sealed
    original, fit, lines = datasets[level]
    path = root / "edited.txt"
    write_mutated(path, original, lines, data)
    if command == "fit":  # into a directory of its own, so that `fit` stays as made
        argv = ["fit", "--data", path, "--artifacts", root / "refit", "--sigma", "0"]
    else:  # an id of the file as it was, so that some are gone
        task_ids = re.findall(r"\btask_id=(\S+)", "".join(lines))
        argv = ["plan", "--data", path, "--artifacts", fit,
                "--task-id", data.draw(st.sampled_from(task_ids))]
    run_cli(argv)
