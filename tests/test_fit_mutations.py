"""A fit file edited a line at a time and sealed again reaches the parser, the
planners, the token rollout and the report: `eval --compare`, `plan` and
`report` must refuse it or run on it, keeping the command line's exit contract
(`_cli.run_cli`)."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _cli import run_cli
from _sealing import FIELD_EDITS, edit_field
from benchplan import cli
from benchplan.artifacts import FIT_FILE, _seal, load_dataset

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf")
# replacement numbers: small ints (counts, symbols, concepts, seeds), a sign,
# extremes and non-numbers; none makes a large array (dim <= 99)
VALUES = st.sampled_from(["0", "2", "7", "-1", "1e-300", "1e200", "-1e200", "nan", "inf", "x"])
KINDS = ("drop", "duplicate", "swap", "record", "cut", "number", *FIELD_EDITS)
# a map row (tag A or b) has a number changed in about half its edits, to an
# extreme in half of those: finite, so the loader takes it, and the token
# planner, the rollout and the report meet predictions that overflow
MAP_KINDS = (*KINDS, *["number"] * (len(KINDS) - 1))
MAP_VALUES = st.sampled_from(["1e200", "-1e200", "1e-300", "0"])


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A level-1 dataset of 24 tasks, its fit file's lines, a directory to write
    edited fits to, and the commands that read an edited fit: `eval --compare`,
    `plan` of the first test task and `report`."""
    root = tmp_path_factory.mktemp("mutations")
    data = str(root / "data.txt")
    assert cli.main(["gen", "--level", "1", "--train", "20", "--val", "1", "--test", "3",
                     "--seed", "1", "--out", data]) == 0
    assert cli.main(["fit", "--data", data, "--artifacts", str(root), "--sigma", "0"]) == 0
    text = (root / FIT_FILE).read_text()
    task_id = load_dataset(data).subset("test")[0].task_id
    commands = (["eval", "--data", data, "--compare", "--out", root / "reports", "--jobs", 1],
                ["plan", "--data", data, "--task-id", task_id],
                ["report", "--samples", 4, "--out", root / "reports"])
    return root, text[:text.rindex("sha256=")].splitlines(True), commands


def mutate(lines, draw):
    """One drawn edit of a copy of `lines`: drop, duplicate or swap a line, swap
    the whole record that holds the line (its key=value line and its rows) with
    another, cut a vector short, change one number, or edit a field or an action
    key (`_sealing.edit_field`). The line is drawn by its kind first (the
    header, a record, or rows of one tag), so that the few record lines are
    edited as often as the many map rows; the edit is drawn by the line's tag
    (`MAP_KINDS` for a map row)."""
    kinds = {}
    for i, line in enumerate(lines):
        kinds.setdefault(re.match(r"[^ =]*", line)[0], []).append(i)
    at = draw(st.sampled_from(draw(st.sampled_from(sorted(kinds.values())))))
    map_row = lines[at].startswith(("A ", "b "))
    lines = list(lines)
    starts = [i for i, line in enumerate(lines) if i and "=" in line.split(" ", 1)[0]]
    kind = draw(st.sampled_from(MAP_KINDS if map_row else KINDS))
    if kind == "drop" and len(lines) > 1:
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "record" and starts and starts[0] <= at:  # the record holding `at`
        ends = dict(zip(starts, starts[1:] + [len(lines)]))
        this = max(i for i in starts if i <= at)
        a, b = sorted((this, draw(st.sampled_from(starts))))
        if a < b:
            lines = (lines[:a] + lines[b:ends[b]] + lines[ends[a]:b] + lines[a:ends[a]]
                     + lines[ends[b]:])
    elif kind == "cut" and "," in lines[at]:
        values = lines[at].rstrip("\n").split(",")
        lines[at] = ",".join(values[:draw(st.integers(1, len(values) - 1))]) + "\n"
    elif kind == "number" and (numbers := list(NUMBER.finditer(lines[at]))):
        m = draw(st.sampled_from(numbers))
        lines[at] = (lines[at][:m.start()] + draw(MAP_VALUES if map_row else VALUES)
                     + lines[at][m.end():])
    elif kind in FIELD_EDITS:
        lines[at] = edit_field(lines[at], kind, draw)
    return lines


@settings(max_examples=250, derandomize=True, database=None)
@given(data=st.data())
def test_an_edited_fit_is_refused_or_evaluated(fitted, data):
    root, lines, commands = fitted
    command = data.draw(st.sampled_from(commands))
    for _ in range(data.draw(st.integers(1, 3))):
        lines = mutate(lines, data.draw)
        (root / FIT_FILE).write_text(_seal("".join(lines)))
        run_cli([*command, "--artifacts", root])
