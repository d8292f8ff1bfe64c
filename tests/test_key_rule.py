"""Only `mdp` parses an action key: every other module goes through its helpers."""

import pathlib
import re

import pytest

import benchplan
from benchplan.mdp import _key_rank, action_key
from benchplan.workbench import ACTIONS, N_COLORS

SPLIT_ON_AT = re.compile(r"""\.r?(partition|split)\(\s*["']@["']""")
SOURCES = pathlib.Path(benchplan.__file__).parent


def test_only_mdp_splits_a_key_on_at():
    assert SPLIT_ON_AT.search((SOURCES / "mdp.py").read_text())
    splitters = sorted(path.name for path in SOURCES.glob("*.py")
                       if SPLIT_ON_AT.search(path.read_text()))
    assert splitters == ["mdp.py"]


def test_key_rank_takes_exactly_the_keys_action_key_gives():
    keys = [action_key(a, color) for a in ACTIONS for color in (None, *range(N_COLORS))]
    assert sorted(set(keys), key=_key_rank) == [*ACTIONS, *(f"change_color@{c}"
                                                            for c in range(N_COLORS))]
    for key in ("move_jump", "move_front@3", "change_color@9", "change_color@x",
                "change_color@-1", "change_color@", "@2", ""):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(key))} is not an action key"):
            _key_rank(key)
