"""Command lines drawn from `build_parser()` alone: every subcommand, each
option's choices, and each bounded option just inside, at and just outside
each bound its type refuses past. `cli.main` runs them in process against one
tiny sealed dataset and fit, and keeps the exit contract (`_cli.run_cli`) on
every one."""

import argparse
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _cli import run_cli
from benchplan import cli

PARSER = cli.build_parser()
COMMANDS = next(a for a in PARSER._actions
                if isinstance(a, argparse._SubParsersAction)).choices
# options drawn on every command line: left out, they would write beside the
# tests, take hundreds of tasks or samples, or start a process per core
ALWAYS = {"--out", "--artifacts", "--data", "--train", "--val", "--test", "--samples",
          "--jobs"}
JOBS = ("1", "2")  # no draw starts more than two processes
EPS = 1e-9


def accepts(kind, text) -> bool:
    try:
        kind(text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


def bound_values(kind) -> list[str]:
    """For an int or float option type: each bound in -3..103 where its
    acceptance changes, as the values just inside, at and just outside it (an
    int bound is the last value accepted); a type with no bound there meets -1,
    0 and 1, a float type the non-finite values too, and every type a non-number."""
    values = set()
    if kind.__name__ == "int":
        ok = {v: accepts(kind, str(v)) for v in range(-3, 104)}
        for v in range(-3, 103):
            if ok[v] != ok[v + 1]:
                at = v + 1 if ok[v + 1] else v
                values.update((at - 1, at, at + 1))
    else:
        for at in range(-3, 104):
            near = (at - EPS, at, at + EPS)
            if len({accepts(kind, repr(v)) for v in near}) > 1:
                values.update(near)
    extra = ["nan", "inf", "x"] if kind.__name__ == "float" else ["x"]
    return ([repr(v) for v in sorted(values)] or ["-1", "0", "1"]) + extra


def test_the_probe_finds_each_bound():
    types = {a.option_strings[-1]: a.type
             for name in ("eval", "fit") for a in COMMANDS[name]._actions if a.option_strings}
    assert bound_values(types["--thresh"]) == \
        [repr(v) for v in (-EPS, 0, EPS, 1 - EPS, 1, 1 + EPS)] + ["nan", "inf", "x"]
    assert bound_values(types["--min-top1"]) == \
        [repr(v) for v in (-EPS, 0, EPS, 100 - EPS, 100, 100 + EPS)] + ["nan", "inf", "x"]
    assert bound_values(types["--topk"]) == ["0", "1", "2", "x"]
    assert bound_values(types["--dim"]) == ["1", "2", "3", "x"]


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    """A level-4 dataset of 24 tasks, its fit, its task ids, and a scratch
    directory for what the drawn commands write."""
    root = tmp_path_factory.mktemp("cli-argv")
    data, fit = root / "d.txt", root / "fit"
    assert run_cli(["gen", "--level", 4, "--train", 20, "--val", 1, "--test", 3,
                    "--seed", 1, "--out", data])[0] == 0
    assert run_cli(["fit", "--data", data, "--artifacts", fit, "--sigma", 0])[0] == 0
    task_ids = re.findall(r"\btask_id=(\S+)", data.read_text())
    (root / "out").mkdir()
    return data, fit, task_ids, root / "out"


def free_text(command, option, sealed) -> tuple[list, list]:
    """The values drawn for an option that takes any text, as (well-formed, and
    ones the command refuses): paths it reads or writes (it never writes the
    shared dataset or fit), task ids, states and cells."""
    data, fit, task_ids, out = sealed
    return {
        "--data": ([data], [out / "absent.txt"]),
        "--artifacts": ([out / "fit"], [data]) if command == "fit" else ([fit], [out / "absent"]),
        "--out": ([out / "d.txt"], [out]) if command == "gen" else ([out / "reports"], [data]),
        "--task-id": ([task_ids[0], task_ids[-1]], ["L9-99999"]),
        "--init": (["0,0,0,0,2,1", "3,2,4,270,5,2"],
                   ["0,0,0,45,0,0", "1,2", f"{2**64},0,0,0,0,0"]),
        "--goal": (["0,1,0,0,2,1", "3,0,0,90,1,2"], ["0,9,0,0,0,0", "x"]),
        "--obstacles": (["-", "1,1", "1,1;2,2"], ["9,9", "x"]),
        "--dyer": (["2,1", "0,0"], ["3,0", "x"]),
    }[option]


def option_values(command, action, sealed) -> tuple[list[str], list[str]]:
    """The values a drawn command line may give `action`, as (those accepted,
    those refused): its choices and one value that is none of them; the values
    about its type's bounds; or free text (`free_text`)."""
    option = action.option_strings[-1]
    if action.nargs == 0:  # a flag takes no value
        return [], []
    if option == "--jobs":
        return list(JOBS), []
    if action.choices is not None:
        return [str(c) for c in action.choices], ["0"]
    if action.type is None:
        return tuple([str(v) for v in values] for values in free_text(command, option, sealed))
    values = bound_values(action.type)
    accepted = [v for v in values if accepts(action.type, v)]
    return accepted, [v for v in values if v not in accepted]


@st.composite
def command_lines(draw, sealed):
    """A subcommand and a drawn set of its options; at most one option takes a
    value that is refused, so that many lines run the command to its end."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = [(action.option_strings[-1], action.nargs == 0,
                *option_values(command, action, sealed))
               for action in COMMANDS[command]._actions
               if action.option_strings and not isinstance(action, argparse._HelpAction)]
    refusable = [option for option, _, _, bad in options if bad]
    refused = draw(st.sampled_from(refusable)) if draw(st.booleans()) else None
    argv = [command]
    for option, flag, good, bad in options:
        if option == refused or option in ALWAYS or draw(st.booleans()):
            argv += [option] if flag else \
                [option, draw(st.sampled_from(bad if option == refused else good))]
    return argv


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_drawn_command_lines_keep_the_exit_contract(sealed, data):
    run_cli(data.draw(command_lines(sealed)))
